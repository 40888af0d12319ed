"""Batched contractions in the numeric layers stay cheap.

The metric, frame and section layers contract node-last maps entry by entry
(``geometry._product``); the few stacked matmuls left, in the field sweeps
of ``fields``, act on node-first arrays.  ``np.einsum`` with two or more
array operands builds an iterator over every index and runs far slower than
either; geometry, integrate and fields may use einsum to transpose a single
array only.  Nor may an ``@`` there read a transposed view: a stacked matmul
whose operand is one runs several times more slowly than on a contiguous
copy.  The checks read the source, so they need no input that reaches the
contraction.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lawcheck"


def _multi_operand_einsums(source):
    """Line numbers of einsum calls with more than one array operand (a
    starred argument counts as many)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        operands = node.args[1:]
        if len(operands) > 1 or any(isinstance(a, ast.Starred) for a in operands):
            lines.append(node.lineno)
    return lines


def test_the_check_finds_multi_operand_einsums():
    source = ("import numpy as np\n"
              "np.einsum('ij->ji', a)\n"
              "np.einsum('ij,jk->ik', a, b)\n"
              "einsum(s, *ops)\n")
    assert _multi_operand_einsums(source) == [3, 4]


@pytest.mark.parametrize("module", ["geometry.py", "integrate.py", "fields.py"])
def test_no_multi_operand_einsum(module):
    assert _multi_operand_einsums((SRC / module).read_text()) == []


def _is_transpose(node):
    """Whether ``node`` is a ``.T`` attribute or a ``.swapaxes(...)`` or
    ``.transpose(...)`` call: an expression that makes a transposed view."""
    if isinstance(node, ast.Call):
        node = node.func
        return isinstance(node, ast.Attribute) and node.attr in ("swapaxes", "transpose")
    return isinstance(node, ast.Attribute) and node.attr == "T"


def _scope_nodes(scope):
    """The nodes of ``scope`` outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _transposed_matmul_operands(source):
    """Line numbers of ``@`` operands that are a transposed view, written in
    place or through a name last bound to one in the same function body."""
    tree = ast.parse(source)
    lines = []
    for scope in [tree] + [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]:
        # in source order; an assignment binds its names where it ends
        events = sorted((n for n in _scope_nodes(scope) if isinstance(n, (ast.Assign, ast.BinOp))),
                        key=lambda n: (n.end_lineno, n.end_col_offset) if isinstance(n, ast.Assign)
                        else (n.lineno, n.col_offset))
        views = set()
        for node in events:
            if isinstance(node, ast.Assign):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                views = (views | names) if _is_transpose(node.value) else (views - names)
            elif isinstance(node.op, ast.MatMult):
                lines += [operand.lineno for operand in (node.left, node.right)
                          if _is_transpose(operand)
                          or (isinstance(operand, ast.Name) and operand.id in views)]
    return lines


def test_the_check_finds_transposed_matmul_operands():
    source = ("def f(a, b):\n"
              "    c = a @ b.swapaxes(1, 2)\n"
              "    c = a.T @ b\n"
              "    c = a @ b.transpose(0, 2, 1)\n"
              "    bt = b.swapaxes(-1, -2)\n"
              "    c = a @ bt\n"
              "    c = a @ b.transpose(0, 2, 1).reshape(4, 4)\n"
              "    c = a @ np.ascontiguousarray(b.swapaxes(1, 2))\n"
              "    bt = b.copy()\n"
              "    return a @ bt\n")
    assert _transposed_matmul_operands(source) == [2, 3, 4, 6]


@pytest.mark.parametrize("module", ["geometry.py", "integrate.py", "fields.py"])
def test_no_transposed_matmul_operand(module):
    assert _transposed_matmul_operands((SRC / module).read_text()) == []
