"""Every module-level function and class of lawcheck has a caller in src/.

A reference is a name, an attribute or an import anywhere in src/lawcheck
outside the definition itself and outside ``__init__.py``: a re-export is
not a caller.  A definition that only tests read is dead code kept alive by
its own test; the few paper checks that exist to be called by the tests are
listed below, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lawcheck"

TEST_ENTRY_POINTS = {
    "connection_curvature": "structure equation and Bianchi checks of the "
                            "connection formula boundary_frame runs",
    "integrate_fiber_volume": "fiber normalization of Phi (criterion 4)",
    "check_boundary_closure": "closure of the boundary family, a symbolic "
                              "identity of the paper",
    "rotate_frame": "frame-rotation invariance of Phi and of the boundary "
                    "family",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name  # an import from another module is a reference


def test_every_definition_has_a_caller_in_src():
    refs = Counter()
    definitions = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "__init__.py":
            refs.update(_names(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # references inside the definition itself do not count
                own = sum(1 for name in _names(node) if name == node.name)
                definitions.append((path.name, node.name, own))
    uncalled = {name: module for module, name, own in definitions
                if refs[name] == own}
    dead = [f"{module}:{name}" for name, module in uncalled.items()
            if name not in TEST_ENTRY_POINTS]
    assert not dead, f"no caller in src/: {dead}"
    # an exemption lapses once src/ calls the function or it is deleted
    assert set(TEST_ENTRY_POINTS) <= set(uncalled)
