"""Small arithmetic expression grammar for scenario configuration.

Supports + - * / with unary minus, integer powers via ^, the functions
sin, cos, exp, the constant pi, numeric literals and named parameters.
Compiled expressions evaluate on floats, on node arrays or on Jets, so one
config string serves values and derivatives alike.  The entries of a vector
or matrix are parsed into one straight-line program by value numbering:
structurally equal subtrees, across all entries, share one slot, computed
once per call by the operation a tree walk would run, so values are
bit-identical.  A slot is dropped after the last instruction that reads it,
unless it is an entry's value, so a long program holds a few node arrays at
a time, not one per slot.  A numpy fault on arrays is located by
re-evaluating node by node in Python floats, so the ConfigError names the
first failing node and, in it, the first failing entry (the one that emitted
the first faulting instruction), with Python's own message; with no node,
none fails, and every entry comes back with zero nodes.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .geometry import ConfigError, Jet, jet_cos, jet_exp, jet_sin

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                    r"|\d+(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

_FUNCTIONS = {"sin": jet_sin, "cos": jet_cos, "exp": jet_exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class ExpressionError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"cannot tokenize {text[pos:]!r}")
        num, name, sym = m.groups()
        if num is not None:
            tokens.append(("num", float(num)))
        elif name is not None:
            tokens.append(("name", name))
        elif sym.strip():
            if sym not in "+-*/^()":
                raise ExpressionError(f"unexpected character {sym!r} in {text!r}")
            tokens.append(("op", sym))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent that emits each subtree, children first, as a slot."""

    def __init__(self, tokens, params, slots, program):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.slots = slots      # instruction -> slot, shared by all entries
        self.program = program

    def emit(self, *ins):
        """Slot of ``ins``, an op with its operand slots and literals."""
        if ins not in self.slots:
            self.slots[ins] = len(self.program)
            self.program.append(ins)
        return self.slots[ins]

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, sym):
        kind, val = self.take()
        if kind != "op" or val != sym:
            raise ExpressionError(f"expected {sym!r}, found {val!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = self.emit(op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.factor()
            node = self.emit(op, node, rhs)
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return self.emit("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            neg = False
            if (kind, val) == ("op", "-"):
                neg = True
                kind, val = self.take()
            if kind != "num" or val != int(val):
                raise ExpressionError("exponent must be an integer literal")
            node = self.emit("pow", node, -int(val) if neg else int(val))
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return self.emit("const", val)
        if kind == "name":
            if val in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return self.emit("call", val, arg)
            if val == "pi":
                return self.emit("const", math.pi)
            if val in self.params:
                return self.emit("param", self.params.index(val))
            raise ExpressionError(f"unknown name {val!r} (parameters: {self.params})")
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {val!r}")


def _operands(ins):
    """The slots that the instruction ``ins`` reads."""
    op = ins[0]
    if op in ("const", "param"):
        return ()
    return ins[2:] if op == "call" else ins[1:2] if op == "pow" else ins[1:]


def _dead_after(program, outputs):
    """For each instruction, the slots it reads for the last time, outputs
    excepted: those can be dropped once it has run."""
    last = {s: i for i, ins in enumerate(program) for s in _operands(ins)}
    dead = [[] for _ in program]
    for s, i in last.items():
        if s not in outputs:
            dead[i].append(s)
    return dead


def _run(program, dead, env, values):
    """Append the value of each instruction of ``program`` to ``values``,
    then replace by None the slots ``dead`` lists for it; after a fault,
    ``len(values)`` is the failing instruction."""
    for ins, drop in zip(program, dead):
        op = ins[0]
        if op == "const":
            x = ins[1]
        elif op == "param":
            x = env[ins[1]]
        elif op == "neg":
            x = -values[ins[1]]
        elif op == "call":
            x = _FUNCTIONS[ins[1]](values[ins[2]])
        elif op == "pow":
            x = values[ins[1]] ** ins[2]
        else:
            x = _BINARY[op](values[ins[1]], values[ins[2]])
        values.append(x)
        for s in drop:
            values[s] = None


def _first_fault(fn, env):
    """Evaluate ``fn`` node by node on Python floats, in node order, so the
    first failing node (and in it the first failing entry) raises its
    ConfigError.  The re-run defines the error rather than searching for it:
    Python floats decide which node fails and with what message, and numpy's
    array faults differ from theirs (1e200 * 1e200 overflows in numpy and is
    inf in Python).  Returns the node shape when no node fails."""
    values = np.broadcast_arrays(*[v.v if isinstance(v, Jet) else v for v in env])
    shape = values[0].shape if values else ()
    for k in np.ndindex(shape):
        fn([float(v[k]) for v in values])
    return shape


def compile_vector(texts, params):
    """Compile expression strings into env -> list of values (floats, node
    arrays or Jets), all evaluated by one shared straight-line program; an
    arithmetic fault while evaluating them is a ConfigError."""
    texts = list(map(str, texts))
    params = list(params)
    slots, program, owner, outputs = {}, [], [], []
    for entry, text in enumerate(texts):
        try:
            outputs.append(_Parser(_tokenize(text), params, slots, program).parse())
        except RecursionError:
            raise ExpressionError(f"expression of {len(text)} characters is nested "
                                  f"too deeply to parse") from None
        owner += [entry] * (len(program) - len(owner))
    dead = _dead_after(program, set(outputs))

    def fn(env):
        values = []
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                _run(program, dead, env, values)
            return [values[s] for s in outputs]
        except (ArithmeticError, ValueError) as exc:
            if all(type(v) in (int, float) for v in env):
                raise ConfigError(f"expression {texts[owner[len(values)]]!r} fails at "
                                  f"{list(map(float, env))}: {exc}") from None
        shape = _first_fault(fn, env)
        if 0 in shape:  # no node, so no node fails, constants included
            return [np.zeros(shape) for _ in outputs]
        values = []
        with np.errstate(all="ignore"):  # numpy faulted where Python floats do not
            _run(program, dead, env, values)
        return [values[s] for s in outputs]

    return fn


def compile_expression(text, params):
    """Compile one expression string into env -> value (floats, node arrays
    or Jets); an arithmetic fault while evaluating it is a ConfigError."""
    vector = compile_vector([text], params)

    def fn(env):
        return vector(env)[0]

    return fn


def compile_matrix(rows, params):
    vector = compile_vector([t for row in rows for t in row], params)

    def fn(env):
        values = iter(vector(env))
        return [[next(values) for _ in row] for row in rows]

    return fn
