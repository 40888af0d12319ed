"""The exact track stands alone, and its term order reaches no numeric bit.

trig, algebra, chern, report and the package ``__init__`` form the exact
track: they import neither numpy nor a numeric lawcheck module, so
``lawcheck symbolic-check`` runs without numpy.  The numeric track compiles
chern's forms in sorted monomial order, so two Forms that differ only in the
insertion order of their terms give the same template and the same bits.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from lawcheck.algebra import Form
from lawcheck.chern import build_phi
from lawcheck.templates import compile_template, evaluate_template
from lawcheck.trig import TrigScalar

SRC = Path(__file__).resolve().parent.parent / "src" / "lawcheck"
EXACT = ("trig", "algebra", "chern", "report")  # with the package __init__

SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])
    import lawcheck
    import lawcheck.chern
    from lawcheck import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        codes = [cli.main(["symbolic-check", "--n", "3", "--identity", "dphi"]),
                 cli.main(["symbolic-check", "--n", "9"])]
    print(json.dumps({"codes": codes, "stderr": err.getvalue(),
                      "numpy": "numpy" in sys.modules}))
""")


def test_symbolic_check_runs_without_numpy():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC.parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 2]
    [line] = out["stderr"].splitlines()
    assert line.startswith("configuration error:")
    assert not out["numpy"]


CATALOG_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])
    from lawcheck import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = [cli.main(["list"]), cli.main(["suite", "--filter", "symbolic"])]
    print(json.dumps({"codes": codes, "stdout": out.getvalue(),
                      "numpy": "numpy" in sys.modules}))
""")


def test_list_and_symbolic_suite_run_without_numpy():
    """``lawcheck list`` reads the raw catalog, and a suite filters on the
    raw names and dimensions before it compiles a scenario, so neither
    imports numpy when no scenario is selected."""
    proc = subprocess.run([sys.executable, "-c", CATALOG_SCRIPT, str(SRC.parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0]
    assert "ball3-radial" in out["stdout"] and "symbolic-dphi-n5" in out["stdout"]
    assert not out["numpy"]


def _imported_modules(source):
    """(level, dotted name) of every import in ``source``, nested ones included;
    ``from . import a`` yields (1, "a")."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.level, node.module
            else:
                yield from ((node.level, alias.name) for alias in node.names)


@pytest.mark.parametrize("module", ("__init__",) + EXACT)
def test_exact_track_imports_no_numeric_module(module):
    source = (SRC / f"{module}.py").read_text()
    assert "numpy" not in source
    lawcheck = [name.removeprefix("lawcheck.") for level, name in _imported_modules(source)
                if level or name.startswith("lawcheck")]
    assert set(lawcheck) <= set(EXACT), lawcheck


def test_template_entries_do_not_depend_on_term_order():
    phi = build_phi(4).phi
    items = list(phi.terms.items())
    forward, backward = Form(4, dict(items)), Form(4, dict(reversed(items)))
    assert list(forward.num) != list(backward.num)
    tpl, other = compile_template(forward, 3), compile_template(backward, 3)
    assert tpl.entries == other.entries
    rng = np.random.default_rng(7)
    nodes = 64
    args = ({A: rng.normal(size=nodes) for A in range(4)},
            {(A, s): rng.normal(size=nodes) for A in range(4) for s in range(3)},
            {(I, J): rng.normal(size=nodes) for I in range(6) for J in range(3)}, nodes)
    assert np.array_equal(evaluate_template(tpl, *args), evaluate_template(other, *args))


def test_to_float_converts_constants_only():
    assert TrigScalar.pi_power(1, 2).to_float() == 2 * np.pi
    with pytest.raises(ValueError):
        (TrigScalar.sin() + TrigScalar.rational(1)).to_float()
