"""Vector field indices, boundary splitting, genericity enforcement."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lawcheck import ConfigError, fields, geometry
from lawcheck.fields import (
    GenericityError,
    InteriorSingularity,
    TangentialSingularity,
    VectorFieldSpec,
    _degree_index,
    _sample_points,
    boundary_decompose,
    check_interior_nonvanishing,
    index_at,
    index_tangential,
)
from lawcheck.expressions import compile_vector
from lawcheck.geometry import BoundaryPatch, RiemannianPatch
from lawcheck.scenarios import load_catalog_scenario

from callable_input import CONSTANT_POLAR, Jet, OnJets, jet_cos, jet_exp, jet_sin
from test_geometry import stack_first_order
from test_integrate import node_first


def sing2(field, name="s", center=(0, 0), radius=0.2):
    return InteriorSingularity(name=name, ambient=list(center),
                               exclusion_radius=2 * radius,
                               center=list(center),
                               radius=radius, chart_field=OnJets(field))


def disk_patch():
    return RiemannianPatch(2, [(0, 1), (0, 2 * math.pi)],
                           OnJets(lambda x: [[1, 0], [0, x[0] * x[0]]]),
                           chart_map=compile_vector(["r*cos(t)", "r*sin(t)"], ["r", "t"]))


def disk_rim(patch=None):
    patch = patch or disk_patch()
    return BoundaryPatch(patch, [(0, 2 * math.pi)],
                         embed=OnJets(lambda t: [1.0 + 0 * t[0], t[0]]),
                         outward=OnJets(lambda t: [1.0, 0.0]))


# -- interior indices -----------------------------------------------------------

def test_identity_field_has_index_one():
    assert index_at(sing2(lambda x: [x[0], x[1]]), order=192).value == 1


def test_antipodal_3d_has_index_minus_one():
    s = InteriorSingularity(name="a", ambient=[0, 0, 0], exclusion_radius=0.4,
                            center=[0, 0, 0],
                            radius=0.2,
                            chart_field=OnJets(lambda x: [-1.0 * x[0], -1.0 * x[1],
                                                          -1.0 * x[2]]))
    assert index_at(s, order=48).value == -1


def test_doubled_angle_field_against_winding_oracle():
    field = lambda x: [x[0] * x[0] - x[1] * x[1], 2.0 * x[0] * x[1]]
    res = index_at(sing2(field), order=192)
    # independent oracle: accumulate the angle of the field over the circle
    samples = 10_000
    total = 0.0
    prev = None
    for k in range(samples + 1):
        t = 2 * math.pi * k / samples
        x, y = 0.2 * math.cos(t), 0.2 * math.sin(t)
        ang = math.atan2(2 * x * y, x * x - y * y)
        if prev is not None:
            d = ang - prev
            while d > math.pi:
                d -= 2 * math.pi
            while d < -math.pi:
                d += 2 * math.pi
            total += d
        prev = ang
    oracle = round(total / (2 * math.pi))
    assert res.value == oracle == 2
    assert res.residual < 1e-6


def test_index_invariant_under_radius_halving_and_rescaling():
    field = lambda x: [x[0] * x[0] - x[1] * x[1], 2.0 * x[0] * x[1]]
    s = sing2(field)
    full = index_at(s, order=192)
    half = index_at(s, order=192, radius=s.radius / 2)
    assert full.value == half.value
    scaled = sing2(lambda x: [7.0 * c for c in field(x)])
    assert index_at(scaled, order=192).value == full.value


def test_index_error_on_vanishing_field():
    vanishing = sing2(lambda x: [x[0] * 0.0, x[1] * 0.0])
    with pytest.raises(GenericityError):
        index_at(vanishing, order=192)


def test_index_error_on_non_integer_residual():
    # oscillatory direction field with a deliberately under-resolved rule:
    # the degree estimate lands far from an integer and must be refused
    osc = sing2(lambda x: [(x[0] * 60.0).cos(), (x[1] * 60.0).sin()])
    with pytest.raises(GenericityError):
        index_at(osc, order=8)


@pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf])
def test_non_finite_degree_is_a_genericity_error(raw):
    with pytest.raises(GenericityError, match="from an integer"):
        _degree_index("center", raw, "degree integral")


def test_index_unsupported_dimension():
    s = InteriorSingularity(name="bad", ambient=[0], exclusion_radius=0.1,
                            center=[0], radius=0.1,
                            chart_field=OnJets(lambda x: [x[0]]))
    with pytest.raises(ValueError):
        index_at(s, order=192)


# -- index maps by the chain rule ----------------------------------------------------

_INDEX_FIELDS = {
    2: ["sin(x*y) + exp(x)/(1 + y^2) - 1.1", "x^3/(2 + cos(y)) - y*exp(-x) + 0.3"],
    3: ["sin(x*z) + exp(y)/(1 + z^2) - 1.1", "x^3/(2 + cos(y)) - z*exp(-x) + 0.3",
        "y^2*z - sin(x + y)/(3 + z) - 0.2"],
}


def _index_map(sing, monkeypatch):
    """The map that ``index_at`` hands its degree integral."""
    maps = []
    for name in ("degree_integral_circle", "degree_integral_sphere"):
        monkeypatch.setattr(fields, name, lambda map_fn, order: maps.append(map_fn) or 1.0)
    index_at(sing, order=8)
    return maps[0]


@pytest.mark.parametrize("dim", [2, 3])
def test_index_maps_match_a_jet_run_reference(dim, jet_functions, monkeypatch):
    """The maps w[k] and dw[i, k] of the chain-rule index map, stacked as
    (N, n) and (N, n - 1, n), agree with the chart field run on the Jets of
    the circle or sphere map, within 8
    ulps of each entry's largest magnitude over the nodes (3 seen): values
    differ where Jets divide through reciprocals, gradients in the order of
    the chain rule's products.  The map's points are the Jets' bit for bit."""
    params = ["x", "y", "z"][:dim]
    c, r = [0.3, -0.7, 0.45][:dim], 0.13
    rng = np.random.default_rng(7)
    if dim == 2:
        nodes = rng.uniform(0, 2 * math.pi, (500, 1))
        (theta,) = Jet.variables(nodes, 1)
        x = [c[0] + r * theta.cos(), c[1] + r * theta.sin()]
    else:
        nodes = rng.uniform(0, 1, (500, 2)) * [math.pi, 2 * math.pi]
        a, b = Jet.variables(nodes, 1)
        x = [c[0] + r * a.sin() * b.cos(), c[1] + r * a.sin() * b.sin(), c[2] + r * a.cos()]
    for texts, ulps in ((params, 0), (_INDEX_FIELDS[dim], 8)):
        field = compile_vector(texts, params)
        map_fn = _index_map(InteriorSingularity("s", c, 0.4, c, r, field), monkeypatch)
        w, dw = map_fn(nodes[:, 0] if dim == 2 else nodes)
        got = node_first(w, (len(nodes), dim)), node_first(dw, (len(nodes), dim - 1, dim))
        for value, want in zip(got, stack_first_order(field(x), nodes)):
            assert value.shape == want.shape
            assert np.all(np.abs(value - want) <= ulps * np.spacing(np.abs(want).max(axis=0)))


def test_python_callable_chart_fields_keep_their_degrees():
    """A Python-callable chart field, run on Jets of the chart points and
    chained through the circle or sphere map, gives the index and the raw
    degree that it gave run on Jets of the map's parameters (recorded from
    them; equal here, held to 4 ulps)."""
    doubled = sing2(lambda x: [(x[0] - 0.3) * (x[0] - 0.3) - (x[1] + 0.2) * (x[1] + 0.2),
                               2.0 * (x[0] - 0.3) * (x[1] + 0.2)], center=(0.3, -0.2))
    swirl = InteriorSingularity(
        "swirl", [-0.4, 0.5, 0.2], 0.3, [-0.4, 0.5, 0.2], 0.15,
        OnJets(lambda x: [x[1] - 0.5 + 0.3 * jet_sin(x[2] - 0.2),
                          -1.0 * (x[0] + 0.4) * jet_exp(x[1] - 0.5),
                          (x[2] - 0.2) / (1.0 + x[0] * x[0])]))
    for sing, order, value, raw in ((doubled, 192, 2, 2.0000000000000004),
                                    (swirl, 48, 1, 1.0000000000000007)):
        res = index_at(sing, order=order)
        assert res.value == value and abs(res.raw - raw) <= 4 * math.ulp(raw), res


@pytest.mark.parametrize("dim, point", [
    (2, "[0.1499445674657544, 0.0033291791906207534]"),
    (3, "[0.08748128686342868, 0.0003221907621808554, 0.09270948887883125]")],
    ids=["circle", "sphere"])
def test_overflowing_chart_field_names_its_first_node(dim, point):
    """A compiled chart field that overflows on part of the index sphere
    raises the ConfigError of its first failing node, the message that the
    Jet-run maps raised (recorded from them)."""
    c = [0.05, 0.0, 0.0][:dim]
    field = compile_vector(["exp(10000*x)", "y", "z"][:dim], ["x", "y", "z"][:dim])
    with pytest.raises(ConfigError) as err:
        index_at(InteriorSingularity("s", c, 0.2, c, 0.1, field), order=16)
    assert str(err.value) == f"expression 'exp(10000*x)' fails at {point}: math range error"


# -- boundary decomposition -------------------------------------------------------

def test_disk_constant_field_split_and_indices():
    spec = VectorFieldSpec(
        components=CONSTANT_POLAR,
        tangential=[TangentialSingularity("west", 0, [math.pi], 0.1),
                    TangentialSingularity("east", 0, [0.0], 0.1)])
    rim = disk_rim()
    split = boundary_decompose(spec, rim, 0)
    assert [s.name for s in split.minus] == ["west"]
    assert [s.name for s in split.plus] == ["east"]
    west = index_tangential(spec, rim, split.minus[0], order=192)
    assert west.value == 1
    east = index_tangential(spec, rim, split.plus[0], order=192)
    assert east.value == -1


def test_pure_normal_field_is_flagged_not_fatal():
    spec = VectorFieldSpec(components=OnJets(lambda x: [x[0], 0.0 * x[0]]))
    split = boundary_decompose(spec, disk_rim(), 0)
    assert split.minus == [] and split.plus == []
    assert any("degenerates in the outward region" in w for w in split.warnings)


def test_undeclared_inward_zero_aborts():
    # inward-pointing radial field: the projection vanishes identically while
    # the field points inward, which corrupts the inward index sum
    spec = VectorFieldSpec(components=OnJets(lambda x: [-1.0 * x[0], 0.0 * x[0]]))
    with pytest.raises(GenericityError):
        boundary_decompose(spec, disk_rim(), 0)


def test_rotational_field_is_generic():
    # tangent everywhere: the normal component vanishes but the projection
    # never does, so the law's data is intact
    spec = VectorFieldSpec(components=OnJets(lambda x: [0.0 * x[0], 1.0 + 0.0 * x[0]]))
    split = boundary_decompose(spec, disk_rim(), 0)
    assert split.warnings == []


def test_declared_singularity_with_nonzero_projection_rejected():
    spec = VectorFieldSpec(
        components=CONSTANT_POLAR,
        tangential=[TangentialSingularity("wrong", 0, [math.pi / 3], 0.1)])
    with pytest.raises(GenericityError):
        boundary_decompose(spec, disk_rim(), 0)


def test_declared_singularities_share_one_frame_evaluation(monkeypatch):
    """The declared singularities of a boundary are classified from one frame
    evaluation at all their locations, after the sampling sweep's."""
    sizes, frame_components = [], fields._field_frame_components
    monkeypatch.setattr(fields, "_field_frame_components",
                        lambda b, c, t: sizes.append(len(t)) or frame_components(b, c, t))
    spec = VectorFieldSpec(
        components=CONSTANT_POLAR,
        tangential=[TangentialSingularity("west", 0, [math.pi], 0.1),
                    TangentialSingularity("east", 0, [0.0], 0.1)])
    split = boundary_decompose(spec, disk_rim(), 0)
    assert [s.name for s in split.minus + split.plus] == ["west", "east"]
    assert len(sizes) == 2 and sizes[1] == 2


@pytest.mark.parametrize("first", [0, 1])
def test_declared_singularity_errors_follow_declaration_order(first):
    """Of two offending declared singularities the first one declared names
    the error: a non-vanishing projection at one, and at the other a
    degenerate frame (outward parallel to the rim there), which a batched
    frame evaluation would otherwise raise first."""
    corner = 2 * math.pi / 3
    rim = disk_rim()
    rim.outward = OnJets(lambda t: [(t[0] - corner) * (t[0] - corner), 1.0])
    declared = [TangentialSingularity("skewed", 0, [math.pi / 3], 0.1),
                TangentialSingularity("corner", 0, [corner], 0.1)]
    spec = VectorFieldSpec(components=CONSTANT_POLAR,
                           tangential=declared[first:] + declared[:first])
    error, match = ((GenericityError, "skewed has a non-vanishing projection") if first == 0
                    else (ConfigError, "degenerate frame"))
    with pytest.raises(error, match=match):
        boundary_decompose(spec, rim, 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 24), st.integers(0, 160), st.data())
def test_sweep_raises_what_a_point_by_point_sweep_meets_first(cap, count, data):
    """A sweep over ``count`` points, chunks of at most ``cap``, with a
    synthetic check that, like the genericity checks, raises a slice's
    ConfigError before it tests genericity: it raises the exception type
    and message a point-by-point loop meets first, or nothing, as that loop
    does.  It checks the chunks before the failing one once each and, in a
    chunk that raises ConfigError, bisects in at most ceil(log2(length)) + 1
    more calls; a sweep that raises nothing checks each point once."""
    kinds = st.sampled_from([ConfigError, GenericityError])
    bad = data.draw(st.dictionaries(st.integers(0, count - 1), kinds, max_size=4)) if count else {}
    calls = []

    def check(chunk):
        calls.append(chunk)
        points = range(*chunk.indices(count))
        for kind in (ConfigError, GenericityError):
            if hits := [k for k in points if bad.get(k) is kind]:
                raise kind(f"{kind.__name__} at point {hits[0]}")

    want = None
    for k in range(count):
        try:
            check(slice(k, k + 1))
        except (ConfigError, GenericityError) as error:
            want = error
            break
    calls.clear()
    with mock.patch.object(geometry, "CHUNK_NODES", cap):
        chunks = geometry.node_chunks(count)
        if want is None:
            fields._sample_in_point_order(check, count)
            assert calls == chunks
            return
        with pytest.raises(type(want)) as raised:
            fields._sample_in_point_order(check, count)
    assert str(raised.value) == str(want)
    failing = next(c for c in chunks if c.start <= min(bad) < c.stop)
    bisection = (math.ceil(math.log2(failing.stop - failing.start)) + 1
                 if ConfigError in [bad.get(k) for k in range(failing.start, failing.stop)] else 0)
    assert calls[:chunks.index(failing) + 1] == chunks[:chunks.index(failing) + 1]
    assert len(calls) <= chunks.index(failing) + 1 + bisection


def test_field_vanishing_on_boundary_aborts():
    spec = VectorFieldSpec(components=OnJets(lambda x: [x[0] - 1.0, 0.0 * x[0]]))
    with pytest.raises(GenericityError):
        boundary_decompose(spec, disk_rim(), 0)


def test_tangential_two_point_rule_needs_nonvanishing_tests():
    spec = VectorFieldSpec(
        components=OnJets(lambda x: [1.0 + 0.0 * x[0], 0.0 * x[0]]),
        tangential=[TangentialSingularity("west", 0, [math.pi], 0.1)])
    with pytest.raises(GenericityError):
        index_tangential(spec, disk_rim(), spec.tangential[0], order=192)


@pytest.mark.parametrize("name", ["disk-saddle", "ball3-radial", "ball3-constant"])
def test_boundary_sweep_builds_no_connection_or_curvature(name, monkeypatch):
    """boundary_decompose and index_tangential read the frame step only:
    with the connection, the Christoffel symbols and the curvature refusing
    to run, they pass, and they ask for first-order metric jets only."""
    scenario = load_catalog_scenario(name)

    def refuse(*args, **kwargs):
        raise AssertionError("connection or curvature built for a frame-only sweep")

    monkeypatch.setattr(geometry, "_frame_connection", refuse)
    monkeypatch.setattr(geometry, "christoffel_symbols", refuse)
    monkeypatch.setattr(geometry, "pair_curvature", refuse)
    orders, metric_jets = [], geometry.RiemannianPatch.metric_jets
    monkeypatch.setattr(geometry.RiemannianPatch, "metric_jets",
                        lambda self, x, order=2: orders.append(order) or metric_jets(self, x, order))
    indexed = 0
    for k, bpatch in enumerate(scenario.boundaries):
        with pytest.raises(AssertionError):  # the patch bites where curvature is built
            geometry.boundary_frame(bpatch, np.asarray([bpatch.box])[:, :, 0] + 0.1)
        orders.clear()
        split = boundary_decompose(scenario.field_spec, bpatch, k)
        for sing in split.minus + split.plus:
            index_tangential(scenario.field_spec, bpatch, sing,
                             order=scenario.degree_order)
            indexed += 1
        assert orders and set(orders) == {1}
    assert indexed == len(scenario.field_spec.tangential)


@pytest.mark.parametrize("name", ["disk-saddle", "hemisphere-tilted", "ball3-radial"])
def test_first_order_metric_jets_give_the_same_frame(name):
    """The first-order metric jets of ``adapted_frame`` give, bit for bit, the
    frame, the metric and their t-gradients that second-order jets give."""
    for bpatch in load_catalog_scenario(name).boundaries:
        t = _sample_points(bpatch.box, 24 if bpatch.m == 2 else 256)
        (first, jets1), (second, jets2) = (geometry.adapted_frame(bpatch, t, order)
                                           for order in (1, 2))
        assert jets1[2] == {} and jets2[2] != {}
        (G1, dG1, _, inv1, diag1), (G2, dG2, _, inv2, diag2) = jets1, jets2
        maps = [(G1, G2), (dG1, dG2), (inv1, inv2)] + [
            (getattr(first, key), getattr(second, key))
            for key in ("pushforward", "metric", "dmetric", "frame", "dframe")]
        assert all(a.keys() == b.keys() for a, b in maps)
        for a, b in [(first.points, second.points), *zip(diag1, diag2),
                     *((a[k], b[k]) for a, b in maps for k in a)]:
            assert np.array_equal(a, b)


def test_tangential_indices_follow_the_degree_order():
    """``orders.degree`` sets the tangential winding rule too: at order 8 each
    tangential raw value of ball3-constant is its order-8 integral, which is
    1 + 7.8e-5 where the order-192 rule gives 1 to round-off."""
    from lawcheck.runner import run_scenario
    from lawcheck.scenarios import load_catalog_raw, load_scenario

    cfg = load_catalog_raw("ball3-constant")
    cfg["orders"] = {"degree": 8}
    scenario = load_scenario(cfg)
    indices = run_scenario(scenario).indices
    reported = {r["name"]: r["raw"]
                for r in indices["tangential_minus"] + indices["tangential_plus"]}
    expected = {s.name: index_tangential(scenario.field_spec, scenario.boundaries[0], s,
                                         order=8).raw
                for s in scenario.field_spec.tangential}
    assert reported == expected and len(expected) == 2
    assert reported["back"] == 1.0000784770111073


# -- 3-dimensional boundary -------------------------------------------------------

def ball_setup():
    ball = RiemannianPatch(
        3, [(0, 1), (0, math.pi), (0, 2 * math.pi)],
        OnJets(lambda x: [[1, 0, 0], [0, x[0] * x[0], 0],
                          [0, 0, x[0] * x[0] * jet_sin(x[1]) * jet_sin(x[1])]]),
        chart_map=compile_vector(["r*sin(a)*cos(b)", "r*sin(a)*sin(b)", "r*cos(a)"],
                                 ["r", "a", "b"]))
    sph = BoundaryPatch(ball, [(0, math.pi), (-math.pi / 2, 3 * math.pi / 2)],
                        embed=OnJets(lambda t: [1.0 + 0 * t[0], t[0], t[1]]),
                        outward=OnJets(lambda t: [1.0, 0.0, 0.0]))
    const = OnJets(lambda x: [jet_sin(x[1]) * jet_cos(x[2]),
                              jet_cos(x[1]) * jet_cos(x[2]) / x[0],
                              -1.0 * jet_sin(x[2]) / (x[0] * jet_sin(x[1]))])
    return ball, sph, const


def test_ball_constant_field_indices():
    _ball, sph, const = ball_setup()
    spec = VectorFieldSpec(
        components=const,
        tangential=[TangentialSingularity("back", 0, [math.pi / 2, math.pi], 0.15),
                    TangentialSingularity("front", 0, [math.pi / 2, 0.0], 0.15)])
    split = boundary_decompose(spec, sph, 0)
    assert [s.name for s in split.minus] == ["back"]
    back = index_tangential(spec, sph, split.minus[0], order=128)
    assert back.value == 1
    assert back.residual < 1e-3


def test_interior_sampling_catches_undeclared_zero():
    patch = disk_patch()
    # rotational field with no declared zero: |V|_g = r dips below the margin
    # near the center and must be reported
    spec = VectorFieldSpec(components=OnJets(lambda x: [0.0 * x[0], 1.0 + 0 * x[0]]),
                           margin=1e-2)
    with pytest.raises(GenericityError):
        check_interior_nonvanishing(patch, spec)


def test_interior_sampling_respects_exclusions():
    patch = disk_patch()
    spec = VectorFieldSpec(
        components=OnJets(lambda x: [0.0 * x[0], 1.0 + 0 * x[0]]), margin=1e-2,
        interior=[InteriorSingularity(
            name="center", ambient=[0, 0], exclusion_radius=0.3,
            center=[0, 0], radius=0.15,
            chart_field=OnJets(lambda x: [-1.0 * x[1], x[0]]))])
    check_interior_nonvanishing(patch, spec)


def test_default_index_radius_rule():
    from lawcheck.fields import default_index_radius

    # capped at 0.1 with nothing nearby
    assert default_index_radius([0, 0]) == pytest.approx(0.1)
    # half the distance to the nearest other singularity
    assert default_index_radius([0, 0], other_ambients=[[0.12, 0]]) == \
        pytest.approx(0.06)
    # boundary points compete too
    assert default_index_radius([0, 0], other_ambients=[[1, 0]],
                                boundary_points=[[0.0, 0.05]]) == \
        pytest.approx(0.025)
    with pytest.raises(GenericityError):
        default_index_radius([0, 0], other_ambients=[[0, 0]])


def test_scenario_radius_defaulting():
    from lawcheck.scenarios import load_catalog_raw, load_scenario

    cfg = load_catalog_raw("disk-radial")
    del cfg["interior_singularities"][0]["radius"]
    sc = load_scenario(cfg)
    # center of the unit disk: boundary at distance 1 does not bind the cap
    assert sc.field_spec.interior[0].radius == pytest.approx(0.1)
    assert index_at(sc.field_spec.interior[0], order=sc.degree_order).value == 1
