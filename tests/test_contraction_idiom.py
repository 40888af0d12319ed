"""Batched contractions in the numeric layers are stacked matmuls.

``np.einsum`` with two or more array operands builds an iterator over every
index and runs far slower than one ``@`` per node on these small matrices;
geometry, integrate and fields may use einsum to transpose a single array
only.  The check reads the source, so it needs no input that reaches the
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
