"""Small arithmetic expression grammar for scenario configuration.

Supports + - * / with unary minus, integer powers via ^, the functions
sin, cos, exp, the constant pi, numeric literals and named parameters.
Compiled expressions evaluate on floats, on node arrays or on Jets, so one
config string serves values and derivatives alike.  A numpy fault on arrays
is located by re-evaluating node by node in Python floats, so the ConfigError
names the first failing node with Python's own message.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .geometry import ConfigError, Jet, jet_cos, jet_exp, jet_sin

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                    r"|\d+(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

_FUNCTIONS = {"sin": jet_sin, "cos": jet_cos, "exp": jet_exp}


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
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.pos = 0
        self.params = params

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
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.factor())
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
            node = ("pow", node, -int(val) if neg else int(val))
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("const", val)
        if kind == "name":
            if val in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("call", val, arg)
            if val == "pi":
                return ("const", math.pi)
            if val in self.params:
                return ("param", self.params.index(val))
            raise ExpressionError(f"unknown name {val!r} (parameters: {self.params})")
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {val!r}")


def _evaluate(node, env):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "param":
        return env[node[1]]
    if op == "neg":
        return -_evaluate(node[1], env)
    if op == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    if op == "pow":
        return _evaluate(node[1], env) ** node[2]
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def _first_fault(fns, env):
    """Evaluate ``fns`` node by node on Python floats, in node order, so the
    first failing node (and in it the first failing function) raises its
    ConfigError."""
    values = np.broadcast_arrays(*[v.v if isinstance(v, Jet) else v for v in env])
    for k in np.ndindex(values[0].shape if values else ()):
        for f in fns:
            f([float(v[k]) for v in values])


def compile_expression(text, params):
    """Compile one expression string into env -> value (floats, node arrays
    or Jets); an arithmetic fault while evaluating it is a ConfigError."""
    if not isinstance(text, str):
        text = str(text)
    ast = _Parser(_tokenize(text), list(params)).parse()

    def fn(env):
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                return _evaluate(ast, env)
        except (ArithmeticError, ValueError) as exc:
            if all(type(v) in (int, float) for v in env):
                raise ConfigError(f"expression {text!r} fails at "
                                  f"{list(map(float, env))}: {exc}") from None
        _first_fault([fn], env)
        with np.errstate(all="ignore"):  # numpy faulted where Python floats do not
            return _evaluate(ast, env)

    fn.source = text
    return fn


def compile_vector(texts, params):
    fns = [compile_expression(t, params) for t in texts]

    def fn(env):
        try:
            return [f(env) for f in fns]
        except ConfigError:
            _first_fault(fns, env)  # the earliest node across the entries
            raise

    return fn


def compile_matrix(rows, params):
    vector = compile_vector([t for row in rows for t in row], params)

    def fn(env):
        values = iter(vector(env))
        return [[next(values) for _ in row] for row in rows]

    return fn
