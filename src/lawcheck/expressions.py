"""Small arithmetic expression grammar for scenario configuration.

Supports + - * / with unary minus, ^ with an integer literal (optionally
negated), sin, cos, exp, pi, decimal literals and named parameters, which
pi, sin, cos and exp cannot name.  Python's parser reads the text, with ^
for ** and _ before every name (so lambda may name a parameter), and bounds
nesting at 200 parentheses and a chain of + - * / or unary minus at about
2,990 operands; one walk of its tree refuses every other node.  The entries
of a vector or matrix are emitted into one straight-line program by value
numbering: structurally equal subtrees, across all entries, share one slot,
computed once per call by the operation a tree walk would run, so values are
bit-identical.  A slot is dropped after the last instruction that reads it,
unless it is an entry's value, so a long program holds a few node arrays at
a time, not one per slot.

A compiled vector or matrix is read at nodes one way, through
``jets(x, order)``: the node-last maps of the values (order 0, the value
program itself), gradients and Hessians at the nodes x (N, m), keyed k,
(i, k) and (i, j, k), with (k, l) in place of k for a matrix, from the
value program or a derivative program on (N,) arrays, differentiated from
it on the first call of each order and free of the derivatives that are
structurally zero.  Its values are the value program's at every order, bit
for bit.  A numpy fault is located by re-evaluating node by node in Python
floats, which is what calling a compiled vector on a list of floats does, so
the ConfigError names the first failing node and, in it, the first failing
entry (the one that emitted the first faulting instruction), with Python's
own message; with no node, none fails, and every entry comes back with zero
nodes.  A derivative that overflows where no value fails (exp(705*r) at
r = 1, or d(a/b) = -a db/b^2) comes back inf or NaN, and
``RiemannianPatch.metric_jets`` raises the ConfigError that names its metric
entry.  ``jets`` and ``reads`` are how ``geometry``, ``fields``,
``integrate`` and ``scenarios`` read every numeric input.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from functools import lru_cache

import numpy as np

from .geometry import ConfigError, _present, jet_cos, jet_exp, jet_sin

_FUNCTIONS = {"sin": jet_sin, "cos": jet_cos, "exp": jet_exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CHAIN = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.USub: "neg"}
_CHARACTERS = re.compile(r"[\w\s.+\-*/^()]*", re.ASCII)
_NAMES = re.compile(r"(?<![\w.])[A-Za-z_]\w*")  # not the e of 1e5
_NUMBER = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?")


class ExpressionError(ValueError):
    pass


def _parse(text, params, slots, program):
    """Emit each subtree of ``text``, children first and left to right, as
    one instruction of ``program``, value-numbered by ``slots`` (instruction
    -> slot, shared by all entries); returns the root's slot."""
    if _CHARACTERS.fullmatch(text) is None or "**" in text:
        raise ExpressionError(f"unexpected character or ** in {text!r}")
    source = _NAMES.sub(r"_\g<0>", " ".join(text.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():  # a SyntaxWarning (1if) becomes a SyntaxError
            warnings.simplefilter("error")
            tree = ast.parse(source, mode="eval").body
    except (SyntaxError, ValueError) as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.args[0]}") from None

    names = {"_" + p: ("param", i) for i, p in enumerate(params)}
    names["_pi"] = ("const", math.pi)

    def emit(*ins):
        if ins not in slots:
            slots[ins] = len(program)
            program.append(ins)
        return slots[ins]

    def number(node):  # read as a decimal literal, through float(), exponents too
        span = source[node.col_offset:node.end_col_offset]
        if _NUMBER.fullmatch(span) is None:
            raise ExpressionError(f"{span!r} in {text!r} is not a decimal number")
        return float(span)

    def exponent(node):  # an integer literal, optionally negated
        negated = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
        literal = node.operand if negated else node
        k = number(literal) if isinstance(literal, ast.Constant) else math.nan
        if not k.is_integer():
            raise ExpressionError(f"exponent must be an integer literal in {text!r}")
        return -int(k) if negated else int(k)

    def walk(node):
        above = []  # down a chain of + - * / and unary minus: each op and right operand
        while isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _CHAIN:
            above.append((_CHAIN[type(node.op)], getattr(node, "right", None)))
            node = node.left if isinstance(node, ast.BinOp) else node.operand
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            slot = emit("pow", walk(node.left), exponent(node.right))
        elif isinstance(node, ast.Constant):
            slot = emit("const", number(node))
        elif isinstance(node, ast.Name) and node.id in names:
            slot = emit(*names[node.id])
        elif isinstance(node, ast.Name):
            raise ExpressionError(f"unknown name {node.id[1:]!r} (parameters: {params})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id[1:] in _FUNCTIONS and len(node.args) == 1):
            slot = emit("call", node.func.id[1:], walk(node.args[0]))
        else:
            raise ExpressionError(f"unexpected {type(node).__name__} in {text!r}")
        for op, right in reversed(above):
            slot = emit(op, slot) if right is None else emit(op, slot, walk(right))
        return slot

    return walk(tree)


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


def _differentiate(program, outputs, m, order):
    """The forward-mode derivative program (Griewank & Walther 2008) of
    ``program`` in m parameters, in the same instruction set: each value
    instruction, then its derivatives d_i and, at ``order`` 2, d_i d_j,
    i <= j, each where it is not structurally zero, by the Jet arithmetic's
    formula (^k by k x^(k-1)) with zero terms dropped and products with one
    folded; value numbering shares equal instructions.  Returns the program,
    its dead slots and, per output, its value slot, {i: slot} and
    {(i, j): slot}."""
    prog, slots = [], {}

    def emit(*ins):
        slot = slots.get(ins)
        if slot is None:
            slot = slots[ins] = len(prog)
            prog.append(ins)
        return slot

    one = emit("const", 1.0)
    hp = list(enumerate([(i, j) for i in range(m) for j in range(i, m) if order == 2], m))
    zero = [None] * (m + len(hp))  # the derivatives of a slot that reads no parameter

    def mul(a, b):  # None is a structural zero
        if a is None or b is None:
            return None
        return (b if a == one else a if b == one else
                emit("*", a, b) if a < b else emit("*", b, a))

    def add(*terms):  # left to right, as the Jet arithmetic sums
        total = None
        for t in terms:
            total = t if total is None else total if t is None else emit("+", total, t)
        return total

    def sub(a, b):
        return a if b is None else emit("neg", b) if a is None else emit("-", a, b)

    def power(a, k):
        return one if k == 0 else a if k == 1 else emit("pow", a, k)

    def keyed(grad, hess):  # the d_i, then the d_i d_j keyed by ``hp``, by their rules
        return [grad(i) for i in range(m)] + [hess(k, i, j) for k, (i, j) in hp]

    def chain(d1, d2, du):  # f(u) from d1 = f'(u) and d2 = f''(u)
        return keyed(lambda i: mul(d1, du[i]), lambda k, i, j: add(
            mul(d1, du[k]), mul(mul(d2, du[i]), du[j])))

    def product(a, da, b, db):
        return keyed(lambda i: add(mul(da[i], b), mul(db[i], a)), lambda k, i, j: add(
            mul(da[k], b), mul(db[k], a), mul(da[i], db[j]), mul(da[j], db[i])))

    new, ders = [], []  # each old slot's new slot and its derivatives' slots, by key
    for ins in program:
        op, operands = ins[0], _operands(ins)
        args = [new[s] for s in operands]
        v = emit(*ins[:2], *args) if op == "call" else emit(op, *args, *ins[1 + len(args):])
        a, b = (args + [None, None])[:2]
        da, db = ([ders[s] for s in operands] + [zero, zero])[:2]
        if op == "param":
            d = [one if i == ins[1] else None for i in range(m)] + zero[m:]
        elif da is zero and db is zero:
            d = zero
        elif op == "neg":
            d = keyed(lambda i: sub(None, da[i]), lambda k, i, j: sub(None, da[k]))
        elif op in ("+", "-"):
            combine = add if op == "+" else sub
            d = keyed(lambda i: combine(da[i], db[i]), lambda k, i, j: combine(da[k], db[k]))
        elif op == "*":
            d = product(a, da, b, db)
        elif op == "/":  # a times the reciprocal r of b
            r = emit("/", one, b)
            dr = db if db is zero else chain(
                emit("/", emit("const", -1.0), power(b, 2)),
                emit("/", emit("const", 2.0), power(b, 3)) if hp else None, db)
            d = product(a, da, r, dr)
        elif op == "pow":
            k = ins[2]
            d = da if k == 1 else zero if k == 0 else chain(
                mul(emit("const", float(k)), power(a, k - 1)),
                mul(emit("const", float(k * (k - 1))), power(a, k - 2)) if hp else None, da)
        else:  # sin' = cos, cos' = -sin, exp' = exp
            d1 = (emit("call", "cos", a) if ins[1] == "sin" else
                  emit("neg", emit("call", "sin", a)) if ins[1] == "cos" else v)
            d = chain(d1, (v if ins[1] == "exp" else emit("neg", v)) if hp else None, da)
        new.append(v)
        ders.append(d)
    spec = [(new[s], {i: t for i, t in enumerate(ders[s][:m]) if t is not None},
             {ij: ders[s][k] for k, ij in hp if ders[s][k] is not None}) for s in outputs]
    live = {t for v, grad, hess in spec for t in (v, *grad.values(), *hess.values())}
    return prog, _dead_after(prog, live), spec


def _reads(program):
    """Per slot of ``program``, the parameters it reads: a param slot its own,
    any other its operands' (Griewank & Walther 2008), so exp(0*r) reads r."""
    reads = []
    for ins in program:
        operands = [reads[s] for s in _operands(ins)]
        reads.append({ins[1]} if ins[0] == "param" else set().union(*operands))
    return reads


def _first_fault(fn, x):
    """Evaluate ``fn`` node by node on Python floats, in node order, so the
    first failing node of x (N, m) (and in it the first failing entry)
    raises its ConfigError.  The re-run defines the error rather than
    searching for it: Python floats decide which node fails and with what
    message, and numpy's array faults differ from theirs (1e200 * 1e200
    overflows in numpy and is inf in Python)."""
    for point in x.tolist():
        fn(point)


def compile_vector(texts, params, keys=None):
    """Compile expression strings into one shared straight-line program,
    read at nodes through ``jets`` and ``reads``; ``keys`` (by default 0,
    1, ...) key its entries there.  Called on a list of Python floats, it
    gives the list of values, an arithmetic fault a ConfigError."""
    texts = list(map(str, texts))
    keys = list(range(len(texts)) if keys is None else keys)
    params = list(params)
    for k, name in enumerate(params):
        if not (isinstance(name, str) and name.isascii() and name.isidentifier()) or name in (
                "pi", *_FUNCTIONS, *params[:k]):
            raise ExpressionError(f"parameter {name!r} is not a name, reserved or repeated")
    slots, program, owner, outputs = {}, [], [], []
    for entry, text in enumerate(texts):
        try:
            outputs.append(_parse(text, params, slots, program))
        except RecursionError:
            raise ExpressionError(f"expression of {len(text)} characters is nested "
                                  f"too deeply or too long to parse") from None
        owner += [entry] * (len(program) - len(owner))
    dead = _dead_after(program, set(outputs))

    def fn(env):
        values = []
        try:
            _run(program, dead, env, values)
        except (ArithmeticError, ValueError) as exc:
            raise ConfigError(f"expression {texts[owner[len(values)]]!r} fails at "
                              f"{list(map(float, env))}: {exc}") from None
        return [values[s] for s in outputs]

    @lru_cache(maxsize=None)
    def derived(order):
        """The program of ``order`` (0: the value program, else its derivative
        program), its dead slots, the (key, slot) of each value, gradient and
        Hessian, and ``reads(order)``: per key, the parameters (indices) that
        the entry reads, its value at order 0, else its derivatives of orders
        1 to ``order``."""
        prog, drop, spec = (_differentiate(program, outputs, len(params), order) if order
                            else (program, dead, [(s, {}, {}) for s in outputs]))
        reads, slots, deps = _reads(prog), ([], [], []), {}
        for key, (v, grad, hess) in zip(keys, spec):
            k = key if isinstance(key, tuple) else (key,)
            slots[0].append((key, v))
            slots[1].extend(((i, *k), t) for i, t in grad.items())
            slots[2].extend(((*ij, *k), t) for (i, j), t in hess.items()
                            for ij in dict.fromkeys([(i, j), (j, i)]))
            deps[key] = set().union(*(reads[t] for t in (
                (*grad.values(), *hess.values()) if order else (v,))))
        return prog, drop, slots, deps

    def jets(x, order):
        """The node-last maps of the values {k: v} and, from ``order`` 1,
        gradients {(i, k): d_i v} and, at ``order`` 2 only, Hessians
        {(i, j, k): d_i d_j v} (empty maps below their order), in both
        orders of (i, j), of the entries k at the nodes x (N, m), the
        structural zeros left out; a tuple key k is spliced, as (i, *k)."""
        prog, drop, slots, _ = derived(order)
        x = np.asarray(x, dtype=float)
        env = list(x.T.copy())
        values = []
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                _run(prog, drop, env, values)
        except (ArithmeticError, ValueError):
            _first_fault(fn, x)  # a failing value raises the ConfigError of its first node
            if not len(x):  # no node, so no node fails, constants included
                values = [np.zeros(0)] * len(prog)
            else:  # no value fails under floats: a derivative or a numpy array overflowed
                values = []
                with np.errstate(all="ignore"):
                    _run(prog, drop, env, values)
        return tuple({key: values[s] for key, s in part if _present(values[s])}
                     for part in slots)

    fn.jets, fn.reads = jets, lambda order=0: derived(order)[3]
    return fn


def compile_expression(text, params):
    """Compile one expression string into a function of a list of Python
    floats to its value; an arithmetic fault while evaluating it is a
    ConfigError."""
    vector = compile_vector([text], params)

    def fn(env):
        return vector(env)[0]

    return fn


def compile_matrix(rows, params):
    """Compile rows of expression strings as ``compile_vector`` does, its
    ``jets`` and ``reads`` keying the entries (k, l)."""
    return compile_vector([t for row in rows for t in row], params,
                          [(k, l) for k, row in enumerate(rows) for l in range(len(row))])
