"""Every module-level function and class of lawcheck, and every method of
its classes, has a caller in src/.

A reference is a name, an attribute or an import anywhere in src/lawcheck
outside the definition itself and outside ``__init__.py``: a re-export is
not a caller, and neither is an attribute of an imported module (``np.sin``
does not call ``TrigScalar.sin``).  A definition that only tests read is
dead code kept alive by its own test; the few paper checks and methods that
exist to be called by the tests are listed below, each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lawcheck"

TEST_ENTRY_POINTS = {
    "integrate_fiber_volume": "fiber normalization of Phi (criterion 4)",
    "check_boundary_closure": "closure of the boundary family, a symbolic "
                              "identity of the paper",
    "rotate_frame": "frame-rotation invariance of Phi and of the boundary "
                    "family",
    "Jet": "the tests' forward-mode oracle; bench/tracing.py counts its products "
           "(Jet.__mul__, Jet.__rmul__) in every traced pass",
}

METHOD_ENTRY_POINTS = {
    "ScenarioReport.from_json": "the lossless JSON round trip that README promises; "
                                "bench's worker and self-test read reports through it",
    "Form.degrees": "the acceptance wedge-law check reads the degrees of a form",
    "_ArgumentParser.error": "argparse calls it on a bad argument; the override "
                             "makes that a one-line configuration error",
    "Jet.variables": "the tests' callable adapter makes its Jets; Jet itself moves "
                     "out of src/ after the benchmark's counter stops wrapping it",
}


def _names(node, modules=frozenset()):
    """The names ``node`` references, an attribute of one of the imported
    ``modules`` (a receiver such as np or math) left out."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            if getattr(sub.value, "id", None) not in modules:
                yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name  # an import from another module is a reference


def _imported_modules(tree):
    """The names that ``import`` statements of ``tree`` bind to modules."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names}


def _uncalled(root=SRC):
    """{qualified name: module} of the module-level functions and classes
    and the methods of module-level classes of the modules in ``root``,
    dunders left out, whose bare name has no reference there outside the
    definition itself."""
    refs = Counter()
    definitions = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = _imported_modules(tree)
        if path.name != "__init__.py":
            refs.update(_names(tree, modules))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            methods = [sub for sub in node.body if isinstance(node, ast.ClassDef)
                       and isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
            for owner, qualified in [(node, node.name),
                                     *((sub, f"{node.name}.{sub.name}") for sub in methods)]:
                # references inside the definition itself do not count
                own = sum(1 for name in _names(owner, modules) if name == owner.name)
                definitions.append((path.name, qualified, own))
    return {qualified: module for module, qualified, own in definitions
            if refs[qualified.rsplit(".", 1)[-1]] == own}


def test_the_scan_does_not_count_a_module_attribute(tmp_path):
    """``np.sin`` and ``math.cos`` name no method of a src/ class, while a
    call through an instance or a module of src/ does."""
    (tmp_path / "t.py").write_text(
        "import math\nimport numpy as np\n"
        "class T:\n"
        "    def sin(self):\n        return np.sin(0.0)\n"
        "    def cos(self):\n        return math.cos(0.0)\n"
        "    def exp(self):\n        return 1.0\n")
    (tmp_path / "u.py").write_text("from . import t\n"
                                   "def use(x):\n    return x.exp(), t.T\n")
    assert _uncalled(tmp_path) == {"T.sin": "t.py", "T.cos": "t.py", "use": "u.py"}


def test_every_definition_has_a_caller_in_src():
    uncalled = {name: module for name, module in _uncalled().items() if "." not in name}
    dead = [f"{module}:{name}" for name, module in uncalled.items()
            if name not in TEST_ENTRY_POINTS]
    assert not dead, f"no caller in src/: {dead}"
    # an exemption lapses once src/ calls the function or it is deleted
    assert set(TEST_ENTRY_POINTS) <= set(uncalled)


def test_every_method_has_a_caller_in_src():
    """A method, classmethod or staticmethod of a src/ class, dunders aside,
    is referenced by its name somewhere in src/ outside its own body: a
    second way to build or read an object that only the tests use is dead
    code."""
    uncalled = {name: module for name, module in _uncalled().items() if "." in name}
    dead = [f"{module}:{name}" for name, module in uncalled.items()
            if name not in METHOD_ENTRY_POINTS]
    assert not dead, f"no caller in src/: {dead}"
    # an exemption lapses once src/ calls the method or it is deleted
    assert set(METHOD_ENTRY_POINTS) <= set(uncalled)


# -- dead defaults ----------------------------------------------------------------

DEFAULT_ENTRY_POINTS = {
    ("main", "argv"): "tests drive the command line in-process; the console "
                      "script calls main() with no argument",
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
ORDER_POSITION = {"jets": 1, "metric_jets": 1, "adapted_frame": 2}


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
    a literal 0, 1 or 2 (or the callee's default; 0 reads values and builds
    no derivative program), a conditional between literals, or the ``order``
    parameter of the function or lambda it is in, which forwards its own
    caller's order; an order of 2 starts only on the curvature paths of
    CURVATURE_PATHS, so only they build second-order derivative programs of
    the metric, and in SECOND_ORDER_INPUTS, for the embedding."""
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
            if orders is None or not orders <= {0, 1, 2}:
                bad.append(where)
            elif 2 in orders:
                starts.add(fn.name)
    assert calls >= len(ORDER_POSITION)
    assert not bad, f"order neither 0, 1, 2 nor forwarded: {bad}"
    assert starts == set(CURVATURE_PATHS) | set(SECOND_ORDER_INPUTS)


# -- one read path -----------------------------------------------------------------

INPUTS = {"metric", "_chart_map", "embed", "outward", "components", "chart_field",
          "section"}


def _input_calls(source):
    """(callee, line) of each call in ``source`` whose callee, a bare name or
    an attribute, is named as an input of INPUTS, by line."""
    return sorted(((_callee(node), node.lineno) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and _callee(node) in INPUTS),
                  key=lambda site: (site[1], site[0]))


def test_the_check_finds_planted_input_calls():
    source = ("def metric_values(self, x):\n"
              "    return self.metric(list(x.T))\n"
              "def sweep(spec, bp, x, section):\n"
              "    v = spec.components.jets(x, 0)[0]\n"
              "    return spec.components(x), bp.embed.jets(x, 0), section(x)\n")
    assert _input_calls(source) == [("metric", 2), ("components", 5), ("section", 5)]


def test_src_reads_inputs_only_through_jets_and_reads():
    """No call in src/ invokes a numeric input (a metric, chart map,
    embedding, outward vector, field, chart field or section): src/ reads
    each through its ``jets``, values at order 0, and its ``reads``, so a
    compiled input evaluates node arrays in one place."""
    calls = [(path.name, *site) for path in sorted(SRC.glob("*.py"))
             for site in _input_calls(path.read_text())]
    assert calls == [], calls


_PROBES = {"hasattr", "getattr"}
_READ_ATTRIBUTES = {"jets", "reads"}


def _read_probes(source):
    """The lines of ``source`` that call ``hasattr`` or ``getattr`` on the
    attribute ``jets`` or ``reads``, named by a string constant."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _callee(node) in _PROBES
                  and any(isinstance(a, ast.Constant) and a.value in _READ_ATTRIBUTES
                          for a in node.args[1:]))


def test_the_check_finds_planted_read_probes():
    source = ("def _reads(fn, order=0):\n"
              "    return fn.reads(order) if hasattr(fn, 'reads') else None\n"
              "def values(fn, x):\n"
              "    jets = getattr(fn, 'jets', None)\n"
              "    right = getattr(node, 'right', None)\n"
              "    return hasattr(fn, 'jets') and jets(x, 0), builtins.getattr(fn, 'reads')\n")
    assert _read_probes(source) == [2, 4, 6, 6]


def test_src_never_probes_an_input_for_jets_or_reads():
    """Every input that src/ reads has ``jets`` and ``reads``, as every
    compiled input does: no module asks whether an input has them, so no
    branch serves an input without them."""
    probes = {path.name: lines for path in sorted(SRC.glob("*.py"))
              if (lines := _read_probes(path.read_text()))}
    assert probes == {}, probes


# -- no Jets in src/ -------------------------------------------------------------------

_JET = re.compile(r"\bJet")


def _jet_sites(source):
    """The lines of ``source`` that name ``Jet`` (or Jets), in code, a comment
    or a docstring, outside the block of a module-level ``class Jet``."""
    tree = ast.parse(source)
    allowed = {line for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Jet"
               for line in range(node.lineno, node.end_lineno + 1)}
    return [k for k, line in enumerate(source.splitlines(), start=1)
            if _JET.search(line) and k not in allowed]


def test_the_check_finds_planted_jet_variables():
    source = ("class Jet:\n"
              "    def sin(self):\n"
              "        return Jet(self.v, self.g, self.h)\n"
              "def _input_jets(fn, x, order):\n"
              "    return fn(Jet.variables(x, 1))\n"
              "def index_at(sing, nodes):  # as Jets would\n"
              "    return isinstance(nodes, geometry.Jet)\n"
              "make = Jet.variables\n"
              "def jets(x):\n"
              "    \"\"\"No Jet here.\"\"\"\n"
              "    return OnJets, metric_jets\n")
    assert _jet_sites(source) == [5, 6, 7, 8, 10]


def test_src_makes_no_jets():
    """No module of src/ names ``Jet`` outside geometry's ``class Jet`` block:
    every input gives its derivatives through its own ``jets`` as node-last
    maps, compiled expressions call numpy or math, and only the tests run a
    Python callable or a compiled vector on Jets."""
    sites = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := _jet_sites(path.read_text()))}
    assert sites == {}, sites


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
