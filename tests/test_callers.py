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


# -- dead defaults ----------------------------------------------------------------

DEFAULT_ENTRY_POINTS = {
    ("main", "argv"): "tests drive the command line in-process; the console "
                      "script calls main() with no argument",
    ("integrate_phi_over_section", "frame_twist"): "the SO(n)-invariance seam: "
                                                   "tests rotate the boundary "
                                                   "frame through it",
}


def _defaulted(fn):
    """(position or None, name) of each parameter of ``fn`` with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(k, a.arg) for k, a in enumerate(positional) if k >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _module_and_nested_functions(tree):
    """The module-level functions of ``tree`` and every function nested in a
    function (a closure); methods are left out."""
    nested = {id(sub): sub for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for sub in ast.walk(fn) if sub is not fn and isinstance(sub, ast.FunctionDef)}
    top = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    return top + list(nested.values())


def test_every_default_is_set_by_a_caller_in_src():
    """A defaulted parameter of a module-level or nested function that no
    call in src/ sets, by position or by keyword, is a dead option: every
    caller gets the default, so it belongs in the body."""
    functions, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions += _module_and_nested_functions(tree)
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    set_by_call = set()
    for call in calls:
        name = _callee(call)
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        set_by_call.update((name, k) for k in range(len(call.args)))
        set_by_call.update((name, kw.arg) for kw in call.keywords)
        if starred or any(kw.arg is None for kw in call.keywords):
            set_by_call.add((name, "*"))  # unpacked arguments may set any parameter
    unset = {(fn.name, param) for fn in functions for pos, param in _defaulted(fn)
             if not {(fn.name, pos), (fn.name, param), (fn.name, "*")} & set_by_call}
    dead = sorted(f"{name}({param})" for name, param in unset - set(DEFAULT_ENTRY_POINTS))
    assert not dead, f"defaults no caller in src/ sets: {dead}"
    # an exemption lapses once src/ sets the parameter or it is gone
    assert set(DEFAULT_ENTRY_POINTS) <= unset


# -- Hessians only where they are read ---------------------------------------------

SECOND_ORDER_SITES = {
    ("_input_jets", "fn"): "a Python-callable input (the tests' patches) gives the "
                           "Hessians its caller asks for: the metric's on a curvature "
                           "path, the embedding's for d2x",
}

CURVATURE_PATHS = {
    "euler_form_density": "the Euler density reads the Riemann tensor",
    "boundary_frame": "Phi's 2-form factors read the Riemann tensor",
}

# the one second-order program outside the curvature paths
SECOND_ORDER_INPUTS = {
    "adapted_frame": "the frame's tangent rows differentiate to d2x, the "
                     "embedding's Hessians",
}

# callees that take a derivative order, and its position among their arguments
ORDER_POSITION = {"jets": 1, "_input_jets": 2, "metric_jets": 1, "adapted_frame": 2}


def _is_jet_variables(node):
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Attribute) and func.attr == "variables"
            and isinstance(func.value, ast.Name) and func.value.id == "Jet")


def test_second_order_jets_only_where_hessians_are_read():
    """Every Jet.variables call in src/ passes a literal order, 1 or 2, as
    its second positional argument, and order 2 appears only where a
    Hessian is read: as the argument of each (function, callee) pair of
    SECOND_ORDER_SITES."""
    orders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so the innermost function wins
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        callee = {id(arg): _callee(call) for call in ast.walk(tree)
                  if isinstance(call, ast.Call) for arg in call.args}
        for node in ast.walk(tree):
            if _is_jet_variables(node):
                order = node.args[1] if len(node.args) == 2 and not node.keywords else None
                literal = (isinstance(order, ast.Constant) and type(order.value) is int
                           and order.value in (1, 2))
                site = (owner.get(id(node)), callee.get(id(node)))
                orders.append((f"{path.name}:{node.lineno}", site,
                               order.value if literal else None))
    assert orders, "no Jet.variables call found"
    unset = [where for where, _, order in orders if order is None]
    assert not unset, f"Jet.variables needs a literal order of 1 or 2: {unset}"
    assert {site for _, site, order in orders if order == 2} == set(SECOND_ORDER_SITES)


def _literal_orders(node):
    """The orders a literal or a conditional between literals can take,
    None for anything else."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return {node.value}
    if isinstance(node, ast.IfExp):
        body, orelse = _literal_orders(node.body), _literal_orders(node.orelse)
        return None if body is None or orelse is None else body | orelse
    return None


def test_second_order_programs_only_on_curvature_paths():
    """Every call of a callee of ORDER_POSITION in src/ passes its order as
    a literal (or the callee's default), a conditional between literals, or
    the ``order`` parameter of the function or lambda it is in, which
    forwards its own caller's order; an order of 2 starts only on the
    curvature paths of CURVATURE_PATHS, so only they build second-order
    derivative programs of the metric, and in SECOND_ORDER_INPUTS, for the
    embedding."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defaults = {}
    for tree in trees:
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                args = fn.args.args[len(fn.args.args) - len(fn.args.defaults):]
                defaults.update((fn.name, v.value) for a, v in zip(args, fn.args.defaults)
                                if a.arg == "order")
    starts, bad, calls = set(), [], 0
    for tree in trees:
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so the innermost function wins
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                owner.update((id(node), fn) for node in ast.walk(fn))
        for call in ast.walk(tree):
            name = _callee(call) if isinstance(call, ast.Call) else None
            if name not in ORDER_POSITION:
                continue
            calls += 1
            fn = owner[id(call)]
            where = f"{getattr(fn, 'name', 'lambda')}:{call.lineno}"
            pos = ORDER_POSITION[name]
            arg = (call.args[pos] if len(call.args) > pos else
                   next((kw.value for kw in call.keywords if kw.arg == "order"), None))
            if arg is None:
                orders = {defaults.get(name)}
            elif isinstance(arg, ast.Name) and arg.id == "order":
                if "order" not in [a.arg for a in fn.args.args]:
                    bad.append(where)
                continue
            else:
                orders = _literal_orders(arg)
            if orders is None or not orders <= {1, 2}:
                bad.append(where)
            elif 2 in orders:
                starts.add(fn.name)
    assert calls >= len(ORDER_POSITION)
    assert not bad, f"order neither 1, 2 nor forwarded: {bad}"
    assert starts == set(CURVATURE_PATHS) | set(SECOND_ORDER_INPUTS)


# -- one gate table ------------------------------------------------------------------

def _is_failures(node):
    return (isinstance(node, ast.Name) and node.id == "failures"
            or isinstance(node, ast.Attribute) and node.attr == "failures")


def test_failures_come_only_from_the_gate_table():
    """Nothing in src/ appends to, extends or augments a ``failures`` list,
    and ``run_scenario`` binds ``failures`` once: every pass/fail decision is
    a record of its gate table, judged by the one rule there."""
    grown, bindings = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and _is_failures(func.value)
                    and func.attr in ("append", "extend", "insert")
                    or isinstance(node, ast.AugAssign) and _is_failures(node.target)):
                grown.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name == "run_scenario":
                bindings += [sub.lineno for sub in ast.walk(node)
                             if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                                 ast.NamedExpr, ast.For))
                             and any(_is_failures(target) for target in (
                                 sub.targets if isinstance(sub, ast.Assign) else [sub.target]))]
    assert not grown, f"failures grown outside the gate table: {grown}"
    assert len(bindings) == 1, f"run_scenario binds failures at lines {bindings}"
