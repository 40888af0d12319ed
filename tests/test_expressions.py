"""Expression grammar: parsing, precedence, evaluation on floats and jets."""

import json
import math
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lawcheck import expressions
from lawcheck.expressions import (
    ExpressionError,
    compile_expression,
    compile_matrix,
    compile_vector,
)
from lawcheck.geometry import ConfigError

from callable_input import Jet, install_jet_functions


def ev(text, params=(), env=()):
    return compile_expression(text, list(params))(list(env))


def test_literals_and_constants():
    assert ev("2") == 2.0
    assert ev("2.5e-1") == 0.25
    assert ev(".5") == 0.5
    assert ev("pi") == math.pi


def test_precedence_and_parentheses():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("2 - 3 - 4") == -5.0
    assert ev("12 / 3 / 2") == 2.0
    assert ev("-2 ^ 2") == -4.0
    assert ev("2 * 3 ^ 2") == 18.0


def test_unary_minus_and_functions():
    assert ev("-sin(pi/2)") == pytest.approx(-1.0)
    assert ev("cos(0) - exp(0)") == 0.0
    assert ev("-x", ["x"], [3.0]) == -3.0
    assert ev("sin(x)*sin(x) + cos(x)*cos(x)", ["x"], [0.7]) == pytest.approx(1.0)


def test_negative_integer_power():
    assert ev("x ^ -2", ["x"], [2.0]) == 0.25


def test_parameters_positional():
    f = compile_expression("a*b - b/a", ["a", "b"])
    assert f([2.0, 6.0]) == 9.0


def test_jets_flow_through(jet_functions):
    f = compile_expression("sin(x)*y + x^2", ["x", "y"])
    jx, jy = Jet.variables([0.5, 2.0], 1)
    out = f([jx, jy])
    assert out.v == pytest.approx(math.sin(0.5) * 2 + 0.25)
    assert out.g[0] == pytest.approx(math.cos(0.5) * 2 + 1.0)
    assert out.g[1] == pytest.approx(math.sin(0.5))


@pytest.mark.parametrize("bad", [
    "2 +", "sin(", "foo(3)", "x", "2 ** 3", "1 @ 2", "(1", "3 ^ x", "2 ^ 1.5",
    "1_000", "0x10", "2j", "True", "y.y", "y//y", "not y", "y if y else y", "1if y else 2",
    "1 # c", "sin(y)(y)", "+y", "sin", "y^--2", "y ^ 1e400", "y\u00a0+ 1", "\u0661",
    pytest.param("(" * 400 + "1" + ")" * 400, id="400-deep-parentheses"),
    pytest.param("-" * 3000 + "1", id="3000-unary-minuses"),
    pytest.param("+".join(["y"] * 5000), id="5000-operand-sum"),
])
def test_parse_errors(bad):
    """Each refusal is one ExpressionError of one line."""
    with pytest.raises(ExpressionError) as err:
        compile_expression(bad, ["y"])([1.0])
    assert len(str(err.value).splitlines()) == 1


def test_deep_and_long_expressions_still_compile():
    """Python's parser bounds nesting at 200 parentheses and chains at about
    2,990 operands; the walk adds no lower bound.  A parameter may be named
    like a Python keyword."""
    nested_sin = 2.0
    for _ in range(198):
        nested_sin = math.sin(nested_sin)
    for text, want in [("(1+" * 197 + "y" + ")" * 197, 199.0), ("-" * 990 + "y", 2.0),
                       ("sin(" * 198 + "y" + ")" * 198, nested_sin),
                       ("+".join(["y"] * 2000), 4000.0)]:
        assert compile_expression(text, ["y"])([2.0]) == want
    assert compile_vector(["lambda - if * None", "None^2"],
                          ["lambda", "if", "None"])([5.0, 2.0, 3.0]) == [-1.0, 9.0]


@pytest.mark.parametrize("params,name", [
    (["pi"], "pi"), (["x", "sin"], "sin"), (["cos"], "cos"), (["exp", "x"], "exp"),
    (["x", "y", "x"], "x"), (["2x"], "2x"), (["a-b"], "a-b"), ([""], ""),
    (["\u00e9"], "\u00e9"), ([3], 3),
])
def test_reserved_repeated_and_malformed_parameters_are_refused(params, name):
    """A parameter named pi would otherwise read as the constant, one named
    sin, cos or exp could not be read at all, and a repeated one would
    shadow its namesake."""
    with pytest.raises(ExpressionError, match=repr(name)):
        compile_vector(["1"], params)


def test_parse_emits_the_recorded_programs():
    """Every vector and matrix of the catalog and of the seed-1 and seed-2
    ``conformal-2d`` files, their constant strings, and 300 expressions
    over the whole grammar parse to the outputs and the shared, value-
    numbered instruction list recorded from the hand-written parser that
    ``_parse`` replaced: the slot order the derivative programs and the
    dead-slot lists follow."""
    path = Path(__file__).parent / "data" / "expression_programs.json"
    for record in json.loads(path.read_text()):
        slots, program = {}, []
        outputs = [expressions._parse(t, record["params"], slots, program)
                   for t in record["texts"]]
        assert outputs == record["outputs"], record["texts"]
        assert json.dumps(list(map(list, program))) == json.dumps(record["program"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.text(max_size=12),
                 st.text(alphabet="()-+*/^.e1xy sin", max_size=40)))
def test_arbitrary_text_parses_or_raises_expression_error(text):
    try:
        compile_vector([text], ["x", "y"])
    except ExpressionError:
        pass


def test_vector_and_matrix_compilation():
    v = compile_vector(["x", "2*x"], ["x"])
    assert v([3.0]) == [3.0, 6.0]
    m = compile_matrix([["1", "0"], ["0", "x*x"]], ["x"])
    assert m([2.0]) == [1.0, 0.0, 0.0, 4.0]
    values = m.jets(np.array([[2.0], [3.0]]), 0)[0]
    assert list(values) == [(0, 0), (1, 1)] and values[0, 0] == 1.0
    assert np.array_equal(values[1, 1], [4.0, 9.0])


# -- node arrays against Python floats --------------------------------------------

_LEAVES = st.sampled_from(["x", "y", "pi", "0", "0.5", "2", "3e2", "1e200"])
_EXPRESSIONS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.builds("-({})".format, inner),
    st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp"]), inner),
    st.builds("({})^{}".format, inner, st.integers(-3, 3)),
    st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
), max_leaves=6)
_VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 1e-3, 700.0, 1e200, -1e155])


def _first_point_error(fn, points):
    for point in points:
        try:
            fn(point)
        except ConfigError as exc:
            return str(exc)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_EXPRESSIONS, st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=6))
def test_arrays_agree_with_python_floats(text, points):
    """At nodes, through ``jets(x, 0)``, an expression either gives what
    Python floats give point by point, or raises the ConfigError of the
    first point that fails under floats; numpy emits no RuntimeWarning
    either way."""
    fn = compile_vector([text], ["x", "y"])
    points = [list(p) for p in points]
    expected = _first_point_error(fn, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if expected is not None:
            with pytest.raises(ConfigError) as err:
                fn.jets(np.array(points), 0)
            assert str(err.value) == expected
        else:
            got = np.broadcast_to(fn.jets(np.array(points), 0)[0].get(0, 0.0), len(points))
            np.testing.assert_allclose(got, [fn(p)[0] for p in points], rtol=1e-14)


def test_empty_node_batch_has_no_failing_node():
    """With no node no node fails: every entry comes back with zero nodes,
    a constant that fails under Python floats included, while one node
    names the fault."""
    fn = compile_vector(["exp(1000)+x"], ["x"])
    assert fn.jets(np.zeros((0, 1)), 0)[0][0].shape == (0,)
    with pytest.raises(ConfigError, match=r"fails at \[0\.0\]: math range error"):
        fn.jets(np.zeros((2, 1)), 0)
    vector = compile_vector(["exp(1000)", "1/0", "x"], ["x"])
    nodes = np.zeros((0, 1))
    for order in (0, 1, 2):
        values = vector.jets(nodes, order)[0]
        assert list(values) == [0, 1, 2] and [v.shape for v in values.values()] == [(0,)] * 3


# -- shared subexpressions --------------------------------------------------------

@st.composite
def _shared_entries(draw):
    """Two or three entries built from one pool of subexpressions, so that
    whole subtrees repeat within and across entries, beside fresh ones."""
    pick = st.sampled_from(draw(st.lists(_EXPRESSIONS, min_size=1, max_size=3)))
    entry = st.one_of(
        pick,
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp"]), pick),
        st.builds("({}) {} ({})".format, pick, st.sampled_from("+-*/"),
                  st.one_of(pick, _EXPRESSIONS)),
    )
    return draw(st.lists(entry, min_size=2, max_size=3))


def _bits(value):
    value = np.asarray(value)
    return value.shape, value.dtype, value.tobytes()


def _jet_bits(value):
    parts = (value.v, value.g, value.h) if isinstance(value, Jet) else (value,)
    return [_bits(p) for p in parts]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_shared_entries(), st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=6))
@example(["(x) - (y)", "(y) - (x)", "(y) / (x) + (x) / (y)"], [(0.5, 2.0)])
def test_shared_program_agrees_with_entries_one_by_one(texts, points):
    """compile_vector and compile_matrix give bit for bit what the entries
    compiled one by one give, at nodes through ``jets(x, 0)`` and called on
    Jets, or raise at nodes the ConfigError of the first failing node and,
    in it, the first failing entry; numpy emits no RuntimeWarning at nodes."""
    params = ["x", "y"]
    single = [compile_vector([t], params) for t in texts]
    vector = compile_vector(texts, params)
    matrix = compile_matrix([texts[:1], texts[1:]], params)
    keys = [(0, 0)] + [(1, l) for l in range(len(texts) - 1)]
    nodes = np.array(points)
    expected = _first_point_error(lambda p: [f(p) for f in single], nodes.tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if expected is not None:
            for fn in (vector, matrix):
                with pytest.raises(ConfigError) as err:
                    fn.jets(nodes, 0)
                assert str(err.value) == expected
            return
        want = {k: _bits(v) for k, f in enumerate(single) for v in f.jets(nodes, 0)[0].values()}
        assert {k: _bits(v) for k, v in vector.jets(nodes, 0)[0].items()} == want
        assert matrix.jets(nodes, 0)[0].keys() == {keys[k] for k in want}
        assert {keys.index(key): _bits(v) for key, v in matrix.jets(nodes, 0)[0].items()} == want
    env = Jet.variables(points, 2)
    # the Jet reference leaves numpy's faults to its caller
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        install_jet_functions(patch)
        want = [_jet_bits(f(env)[0]) for f in single]
        assert [_jet_bits(v) for v in vector(env)] == want
        assert [_jet_bits(v) for v in matrix(env)] == want


def test_shared_calls_run_once_per_evaluation(jet_functions, monkeypatch):
    """A conformal metric exp(2*f) * g with f and g sharing sin(th) calls sin,
    cos and exp once each per evaluation, however often they repeat, and its
    derivative program once per distinct argument."""
    calls = Counter()
    for name, function in list(expressions._FUNCTIONS.items()):
        def counted(x, name=name, function=function):
            calls[name] += 1
            return function(x)
        monkeypatch.setitem(expressions._FUNCTIONS, name, counted)
    factor = "exp(2*(0.1*sin(th) - 0.2*sin(th)*cos(ps) + 0.05*sin(th)*sin(th)))"
    metric = compile_matrix([[f"{factor}*(1)", "0"],
                             ["0", f"{factor}*(sin(th)*sin(th))"]], ["th", "ps"])
    nodes = np.array([[0.3, 0.1], [0.7, -0.4], [1.1, 2.0]])
    jets = Jet.variables(nodes, 2)
    for evaluations in (1, 2):
        metric(jets)
        assert calls == {"sin": evaluations, "cos": evaluations, "exp": evaluations}
    # the derivatives add sin' = cos(th) and cos' = -sin(ps), each once, at either order
    for order in (1, 2):
        calls.clear()
        metric.jets(nodes, order)
        assert calls == {"sin": 2, "cos": 2, "exp": 1}


# -- slot liveness ----------------------------------------------------------------

def test_an_output_that_later_entries_read_is_kept(jet_functions):
    """A slot is dropped after its last reader unless it is an entry's
    value: sin(x) is the first entry and an operand of the second, x*y the
    second entry and an operand of the third."""
    texts = ["sin(x)", "x*y + sin(x)", "(x*y + sin(x)) * 2 - x"]
    vector = compile_vector(texts, ["x", "y"])
    nodes = np.array([[0.3, 1.5], [-0.7, 2.0]])
    for env in (Jet.variables(nodes, 2), [0.3, 1.5]):
        want = [_jet_bits(compile_expression(t, ["x", "y"])(env)) for t in texts]
        assert [_jet_bits(v) for v in vector(env)] == want
    want = [_bits(compile_vector([t], ["x", "y"]).jets(nodes, 0)[0][0]) for t in texts]
    assert [_bits(v) for v in vector.jets(nodes, 0)[0].values()] == want


def test_a_fault_after_dropped_slots_names_its_node_and_entry():
    """By the third entry the slots of x, exp(x) and sin(x) are dropped; the
    fault in it still names the first failing node and that entry."""
    vector = compile_vector(["exp(x) * 2", "sin(x) + y", "1 / (y - 1)"], ["x", "y"])
    fault = r"expression '1 / \(y - 1\)' fails at \[0\.5, 1\.0\]: float division by zero"
    with pytest.raises(ConfigError, match=fault):
        vector([0.5, 1.0])
    nodes = np.array([[0.1, 3.0], [0.5, 1.0], [0.2, 1.0]])
    for order in (0, 1, 2):
        with pytest.raises(ConfigError, match=fault):
            vector.jets(nodes, order)


def test_a_long_chain_keeps_a_few_slots_alive(jet_functions):
    """The peak memory of a chain of k products of second-order jets, or of
    its second-order derivative program, stays within a few slots (a slot:
    values, gradients and Hessians of every node), whatever k."""
    nodes = np.random.default_rng(0).random((1000, 2))
    env = Jet.variables(nodes, 2)
    slot = nodes.shape[0] * (1 + 2 + 4) * 8
    for k in (50, 200):
        fn = compile_expression("x" + "*1.001" * k + " + y", ["x", "y"])
        vector = compile_vector(["sin(x)" + "*sin(x*1.001)" * k + " + y"], ["x", "y"])
        vector.jets(nodes, 2)  # builds the program
        for run in (lambda: fn(env), lambda: vector.jets(nodes, 2)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * slot, (k, peak / slot)


# -- derivative programs ------------------------------------------------------------

def _grammar(params):
    """Expressions over the whole grammar in ``params``, read as often as
    the literals."""
    leaves = st.sampled_from(params * 2 + ["pi", "0.5", "2", "3", "1.25"])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds("-({})".format, inner),
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp"]), inner),
        st.builds("({})^{}".format, inner, st.integers(-3, 4)),
        st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
    ), max_leaves=8)


@st.composite
def _programs(draw):
    """One to three entries in two or three parameters, at 1 to 4 nodes."""
    params = ["x", "y", "z"][:draw(st.sampled_from([2, 3]))]
    texts = draw(st.lists(_grammar(params), min_size=1, max_size=3))
    coords = st.floats(-1.5, 1.5, allow_nan=False).map(lambda v: round(v, 3))
    nodes = draw(st.lists(st.lists(coords, min_size=len(params), max_size=len(params)),
                          min_size=1, max_size=4))
    return texts, params, np.array(nodes)


def _reads(text, params):
    program = []
    expressions._parse(text, params, {}, program)
    return any(ins[0] == "param" for ins in program)


def _largest_intermediate(text, params, nodes):
    """At each node, the largest magnitude of any slot, value or derivative,
    of the second-order derivative program of the one expression ``text``:
    the scale of the round-off in each derivative it gives."""
    program = []
    output = expressions._parse(text, params, {}, program)
    derived = expressions._differentiate(program, [output], len(params), 2)[0]
    values = []
    with np.errstate(all="ignore"):
        expressions._run(derived, [()] * len(derived), list(nodes.T), values)
    return np.max(np.abs(np.broadcast_arrays(*values)), axis=0)


_ARRAY_OPERATIONS = {"__truediv__": lambda a, b: a / b, "__rtruediv__": lambda a, b: b / a,
                     "__pow__": lambda a, k: a ** k}


def _with_array_values(name):
    """The Jet operator ``name`` with the values of the array arithmetic:
    Jet division and negative powers go through reciprocals, which round
    the value differently from a / b and x ** k."""
    operation, values = getattr(Jet, name), _ARRAY_OPERATIONS[name]

    def apply(a, b):
        out = operation(a, b)
        if isinstance(out, Jet):
            out.v = values(a.v, b.v if isinstance(b, Jet) else b)
        return out
    return apply


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_programs())
@example((["(x)^2 * sin(y)", "3 - pi", "exp(x*y) / (y)^-2"], ["x", "y"],
          np.array([[0.5, -1.25], [1.0, 0.75]])))
def test_derivative_programs_agree_with_jet_arithmetic(program):
    """The derivative program of a compiled vector gives, at each node, the
    bits of the value program's values, and gradients and Hessians within
    1e-13 of the Jet evaluation of the same program on the same values,
    relative to the largest intermediate of the entry's own program there.
    Order 1 gives the gradients of order 2 bit for bit; an entry that reads
    no parameter has no derivative.  Where a value fails, both raise the
    same ConfigError."""
    texts, params, nodes = program
    fn = compile_vector(texts, params)
    m = len(params)
    try:
        v0 = fn.jets(nodes, 0)[0]
    except ConfigError as exc:
        for order in (1, 2):
            with pytest.raises(ConfigError) as err:
                fn.jets(nodes, order)
            assert str(err.value) == str(exc)
        return
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        install_jet_functions(patch)
        for name in _ARRAY_OPERATIONS:
            patch.setattr(Jet, name, _with_array_values(name))
        reference = fn(Jet.variables(nodes, 2))
    (v1, g1, h1), (v2, g2, h2) = fn.jets(nodes, 1), fn.jets(nodes, 2)
    assert h1 == {} and set(g1) == set(g2)
    assert [_bits(g1[key]) for key in g1] == [_bits(g2[key]) for key in g1]
    assert all(h2[j, i, k] is d for (i, j, k), d in h2.items())
    for k, (text, want) in enumerate(zip(texts, reference)):
        if k in v0:
            assert _bits(v0[k]) == _bits(v1[k]) == _bits(v2[k])
        else:  # a structural zero: a plain-number 0 value
            assert k not in v1 and k not in v2 and want == 0
        grad = {i: d for (i, e), d in g2.items() if e == k}
        hess = {(i, j): d for (i, j, e), d in h2.items() if e == k}
        if not _reads(text, params):
            assert grad == {} and hess == {}
        if not isinstance(want, Jet):
            assert grad == {} and hess == {}
            continue
        got = [grad.get(i, 0.0) for i in range(m)]
        got += [hess.get((i, j), 0.0) for i in range(m) for j in range(i, m)]
        ref = list(want.g) + [want.h[i, j] for i in range(m) for j in range(i, m)]
        got, ref = np.broadcast_arrays(*got, *ref)[:len(got)], np.array(ref)
        scale = _largest_intermediate(text, params, nodes)
        if not (np.isfinite(ref).all() and np.isfinite(scale).all()):
            continue  # a derivative that overflows is compared by its own test
        assert (np.abs(np.array(got) - ref) <= 1e-13 * scale).all(), (text, got, ref)


# -- the parameters each entry reads ------------------------------------------------

def test_a_disk_metric_reads_only_the_radius():
    """The ``disk-saddle`` metric over (r, psi) reads r, in its one entry
    that reads a parameter, and so do its derivatives."""
    metric = compile_matrix([["1", "0"], ["0", "r*r"]], ["r", "psi"])
    for order in (0, 1, 2):
        assert metric.reads(order) == {(0, 0): set(), (0, 1): set(), (1, 0): set(),
                                       (1, 1): {0}}


def test_an_affine_embedding_reads_its_parameters_and_its_derivatives_none():
    """In the embedding (1, a, b), the values read nothing, a and b; every
    derivative is a constant and reads nothing."""
    embed = compile_vector(["1", "a", "b"], ["a", "b"])
    assert embed.reads() == {0: set(), 1: {0}, 2: {1}}
    assert embed.reads(1) == embed.reads(2) == {0: set(), 1: set(), 2: set()}


def test_reads_are_structural_not_numeric():
    """exp(0*r) is 1 at every node, and reads r: the analysis follows the
    program, not the values."""
    fn = compile_vector(["exp(0*r)"], ["r", "s"])
    assert np.array_equal(fn.jets(np.array([[0.5, 1.0], [2.0, 3.0]]), 0)[0][0], [1.0, 1.0])
    assert fn.reads() == fn.reads(2) == {0: {0}}


def test_a_shared_slot_counts_for_every_entry_that_reads_it():
    """sin(a*b) is one value-numbered slot, the first entry's value and an
    operand of the second: a and b count for both entries, c for the second
    and third."""
    texts, params = ["sin(a*b)", "sin(a*b) + c", "c"], ["a", "b", "c"]
    program, slots = [], {}
    outputs = [expressions._parse(t, params, slots, program) for t in texts]
    assert outputs[0] in program[outputs[1]]
    fn = compile_vector(texts, params)
    assert fn.reads() == {0: {0, 1}, 1: {0, 1, 2}, 2: {2}}
    assert fn.reads(1) == {0: {0, 1}, 1: {0, 1}, 2: set()}
