"""Batched contractions in the numeric layers stay cheap.

The metric, frame and section layers contract node-last maps entry by entry
(``geometry._product``), the form templates read those maps as they are,
and so do the value sweeps of ``fields``, which read the metric through
``RiemannianPatch.metric_jets`` at order 0.  ``np.einsum`` with two or more array
operands builds an iterator over every index and runs far slower; the
numeric modules may use einsum to transpose a single array only.  No module
stacks a map node first (``node_first``) to feed a contraction, nor uses a
stacked matmul ``@``.  The checks read the source, so they need no input that
reaches the contraction.
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


@pytest.mark.parametrize("module", ["geometry.py", "integrate.py", "fields.py", "templates.py"])
def test_no_multi_operand_einsum(module):
    assert _multi_operand_einsums((SRC / module).read_text()) == []


MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _node_first_calls(source):
    """Line numbers of calls to, and definitions of, a function or method
    named ``node_first``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if (
        isinstance(node, ast.Call) and (node.func.attr if isinstance(node.func, ast.Attribute)
                                        else getattr(node.func, "id", None)) == "node_first"
        or isinstance(node, ast.FunctionDef) and node.name == "node_first")]


def test_the_check_finds_node_first_calls():
    source = ("from .geometry import node_first\n"
              "u = node_first(u, (N, n))\n"
              "theta = geometry.node_first(theta, shape)\n"
              "first = node_first\n"
              "v = node_firsts(v)\n"
              "def node_first(entries, shape):\n"
              "    return entries\n")
    assert sorted(_node_first_calls(source)) == [2, 3, 6]


@pytest.mark.parametrize("module", MODULES)
def test_no_node_first_stack(module):
    assert _node_first_calls((SRC / module).read_text()) == []


def _matmuls(source):
    """Line numbers of ``@`` and ``@=`` operations."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]


def test_the_check_finds_matmuls():
    source = ("c = a @ b\n"
              "c @= a\n"
              "d = np.matmul\n"
              "@decorated\n"
              "def f(x):\n"
              "    return x\n")
    assert sorted(_matmuls(source)) == [1, 2]


@pytest.mark.parametrize("module", MODULES)
def test_no_matmul(module):
    assert _matmuls((SRC / module).read_text()) == []
