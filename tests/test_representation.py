"""Exact elements store one representation: packed terms over one denominator.

``Form`` and ``TrigScalar`` keep integer numerators keyed by packed ints
(``num``) over one ``den``; their ``terms`` are decoded views.  A stored
tuple-keyed dict beside them would be a second representation that every
operation has to keep in step, so these checks read the source: ``terms``
is a property on both classes, and no module of src/lawcheck assigns to a
``.terms`` attribute.

The views are also the one place that orders terms.  Both classes add
through the one ``Packed.__add__``, and no module sorts a ``terms`` view
again: a second order decision would be a second place to keep in step.
"""

import ast
from pathlib import Path

from lawcheck.algebra import Form
from lawcheck.trig import TrigScalar

SRC = Path(__file__).resolve().parent.parent / "src" / "lawcheck"


def test_terms_is_a_decoded_view():
    for cls in (Form, TrigScalar):
        assert isinstance(cls.__dict__.get("terms"), property), cls.__name__
        assert "terms" not in getattr(cls, "__slots__", ()), cls.__name__


def _assigned_attributes(tree):
    """(line, name) of each attribute that an assignment, an augmented or
    annotated assignment, a del or a setattr call writes."""
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.lineno, node.args[1].value
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, (ast.Store, ast.Del)):
                    yield sub.lineno, sub.attr


def test_no_module_assigns_terms():
    writes = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
              for line, name in _assigned_attributes(ast.parse(path.read_text()))
              if name == "terms"]
    assert not writes, f"a .terms attribute is assigned: {writes}"


def test_the_check_sees_an_assignment():
    source = "f.terms = {}\nf.terms[m] = c\nx.terms += y\nsetattr(f, 'terms', {})\n"
    names = [name for _, name in _assigned_attributes(ast.parse(source))]
    assert names.count("terms") == 3  # f.terms[m] = c stores into the dict, not the attribute


def test_one_summation_routine():
    for cls in (Form, TrigScalar):
        assert "__add__" not in cls.__dict__, cls.__name__


def _sorted_views(tree):
    """Line of each sorted() call whose first argument is a ``.terms`` view,
    or its ``.items()``, ``.keys()`` or ``.values()``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sorted" and node.args):
            continue
        arg = node.args[0]
        if (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
                and arg.func.attr in ("items", "keys", "values")):
            arg = arg.func.value
        if isinstance(arg, ast.Attribute) and arg.attr == "terms":
            yield node.lineno


def test_no_module_sorts_a_terms_view():
    calls = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _sorted_views(ast.parse(path.read_text()))]
    assert not calls, f"a terms view is sorted again: {calls}"


def test_the_check_sees_a_sorted_view():
    source = ("sorted(f.terms)\nsorted(f.terms.items())\nsorted(x.terms.keys(), key=k)\n"
              "sorted(x.terms.values())\nsorted(f.num.items())\nsorted(terms)\n")
    assert list(_sorted_views(ast.parse(source))) == [1, 2, 3, 4]
