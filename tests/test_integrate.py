"""Quadrature and form-pullback integrals."""

import importlib
import math
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from lawcheck.algebra import DEGREE, K_U, Form
from lawcheck.chern import build_phi, signed_permutations
from lawcheck import geometry, integrate
from lawcheck.geometry import (
    BoundaryPatch,
    GenericityError,
    RiemannianPatch,
    boundary_frame,
    euler_form_density,
    jet_cos,
    jet_sin,
)
from lawcheck.expressions import compile_matrix, compile_vector
from lawcheck.integrate import (
    QuadratureGrid,
    SectionPullback,
    degree_integral_circle,
    degree_integral_sphere,
    fiber_grid,
    gauss_grid,
    integrate_euler,
    integrate_fiber_form,
    integrate_fiber_volume,
    integrate_phi_over_section,
    joined_grid,
    phi_template,
)
from lawcheck.runner import run_scenario
from lawcheck.scenarios import (catalog_names, load_catalog_raw, load_catalog_scenario,
                                load_scenario)
from lawcheck.templates import (
    compile_template,
    euler_template,
    evaluate_template,
    pairs,
    trig_values,
)
from lawcheck.trig import TrigScalar, sphere_volume

from callable_input import CONSTANT_POLAR, OnJets


# -- shared patches -----------------------------------------------------------

def disk_patch():
    return RiemannianPatch(2, [(0, 1), (0, 2 * math.pi)],
                           OnJets(lambda x: [[1, 0], [0, x[0] * x[0]]]),
                           chart_map=compile_vector(["r*cos(t)", "r*sin(t)"], ["r", "t"]))


def disk_rim(reverse=False):
    patch = disk_patch()
    if reverse:
        embed = OnJets(lambda t: [1.0 + 0 * t[0], 2 * math.pi - t[0]])
    else:
        embed = OnJets(lambda t: [1.0 + 0 * t[0], t[0]])
    return BoundaryPatch(patch, [(0, 2 * math.pi)], embed=embed,
                         outward=OnJets(lambda t: [1.0, 0.0]))


def cap_patch(theta_max):
    return RiemannianPatch(2, [(0, theta_max), (0, 2 * math.pi)],
                           OnJets(lambda x: [[1, 0],
                                             [0, jet_sin(x[0]) * jet_sin(x[0])]]))


def cap_rim(theta_max):
    patch = cap_patch(theta_max)
    return BoundaryPatch(patch, [(0, 2 * math.pi)],
                         embed=OnJets(lambda t: [theta_max + 0 * t[0], t[0]]),
                         outward=OnJets(lambda t: [1.0, 0.0]))


# -- grids and summation ---------------------------------------------------------

def test_grid_weights_positive_and_sum_to_volume():
    grid = gauss_grid([(0, 2), (-1, 3)], [12, 7])
    assert np.all(grid.weights > 0)
    assert math.fsum(grid.weights) == pytest.approx(8.0, abs=1e-12)


@pytest.mark.parametrize("orders", [[7], [12, 7], [3, 5, 4]])
def test_grid_weights_are_the_outer_product_of_the_axes(orders):
    """The weights, an outer product of the axes' weights, are bit for bit the
    product of each node's axis weights, the rule's own definition."""
    box = [(0, 1 + k) for k in range(len(orders))]
    grid = gauss_grid(box, orders)
    weights = [integrate._gauss_1d(lo, hi, k)[1] for (lo, hi), k in zip(box, orders)]
    assert grid.weights.tobytes() == geometry.grid_points(weights).prod(axis=1).tobytes()


def test_grid_polynomial_exactness():
    grid = gauss_grid([(0, 1)], [6])
    val = math.fsum(w * x ** 11 for (x,), w in zip(grid.nodes, grid.weights))
    assert val == pytest.approx(1 / 12, abs=1e-15)


# -- Gauss-Legendre rules ------------------------------------------------------

def test_legendre_rule_matches_eigenvalue_rule():
    """numpy's Golub-Welsch rule as the oracle, in absolute terms: its end
    weights are the less accurate ones at large orders."""
    for order in range(1, 257):
        x, w = integrate._legendre(order)
        x_ref, w_ref = np.polynomial.legendre.leggauss(order)
        assert np.abs(x - x_ref).max() <= 1e-15, order
        assert np.abs(w - w_ref).max() <= 5e-14, order


def _legendre_oracle(order, x0):
    """Node near x0 and its weight, by Newton's method on the same recurrence
    in 32-digit mpmath arithmetic."""
    with mpmath.workdps(32):
        def p_dp(x):
            p0, p1 = mpmath.mpf(1), x
            for j in range(2, order + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            return p1, order * (x * p1 - p0) / (x * x - 1)

        x = mpmath.mpf(float(x0))
        for _ in range(3):
            p, dp = p_dp(x)
            x -= p / dp
        p, dp = p_dp(x)
        return float(x), float(2 / ((1 - x * x) * dp * dp))


@pytest.mark.parametrize("order", [512, 1024, 4096])
def test_legendre_rule_matches_a_high_precision_oracle(order):
    """Beyond leggauss's range: both end nodes and one middle node."""
    x, w = integrate._legendre(order)
    for i in (0, order // 2, order - 1):
        x_ref, w_ref = _legendre_oracle(order, x[i])
        assert abs(x[i] - x_ref) <= 1e-15, (order, i)
        assert abs(w[i] - w_ref) <= 5e-14, (order, i)


@pytest.mark.parametrize("order", [1, 2, 48, 192, 1024])
def test_legendre_rule_runs_the_recurrence_twice(monkeypatch, order):
    calls, legendre_p = [], integrate._legendre_p
    monkeypatch.setattr(integrate, "_legendre_p",
                        lambda n, x: calls.append(n) or legendre_p(n, x))
    integrate._legendre.__wrapped__(order)
    assert calls == [order, order]


def test_legendre_rule_integrates_monomials_exactly():
    for order in range(1, 65):
        x, w = integrate._legendre(order)
        for k in range(2 * order):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = math.fsum((w * x ** k).tolist())
            assert got == pytest.approx(exact, abs=4e-15), (order, k)


def test_legendre_rule_closed_forms():
    x, w = integrate._legendre(1)
    assert x.tolist() == [0.0] and w.tolist() == [2.0]
    x, w = integrate._legendre(2)
    assert x.tolist() == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert w.tolist() == pytest.approx([1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 16, 47, 48, 192, 255])
def test_legendre_rule_symmetric_sorted_and_read_only(order):
    x, w = integrate._legendre(order)
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    if order % 2:
        assert x[order // 2] == 0.0 and math.copysign(1.0, x[order // 2]) == 1.0
    assert integrate._legendre(order) is integrate._legendre(order)
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_numeric_track_solves_no_eigenproblem(monkeypatch):
    """Every rule of a scenario run comes from the recurrence: with numpy's
    eigenvalue routes disabled and no rule cached, the run still passes."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigenproblem on the numeric track")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    integrate._legendre.cache_clear()
    assert run_scenario(load_catalog_scenario("disk-saddle"), order=16).passed


def test_legendre_rule_memory_is_linear_in_order():
    """An order-1024 rule peaks well below the 8 MB of one 1024 x 1024 matrix."""
    tracemalloc.start()
    try:
        integrate._legendre.__wrapped__(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# -- sphere volumes ----------------------------------------------------------------

def test_c_volume_values():
    assert sphere_volume(1).to_float() == pytest.approx(2 * math.pi, abs=1e-14)
    assert sphere_volume(2).to_float() == pytest.approx(4 * math.pi, abs=1e-14)
    with pytest.raises(ValueError):
        sphere_volume(-1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sphere_volume_reduction_identity(n):
    # c_{n-1} = c_{n-2} * integral of sin^(n-2) over [0, pi]
    grid = gauss_grid([(0.0, math.pi)], [40])
    integral = math.fsum(w * math.sin(x) ** (n - 2)
                         for (x,), w in zip(grid.nodes, grid.weights))
    assert sphere_volume(n - 1).to_float() == pytest.approx(
        sphere_volume(n - 2).to_float() * integral, abs=1e-10)


# -- fiber integrals -----------------------------------------------------------------

def test_fiber_normalization_n2():
    assert integrate_fiber_volume(2) == pytest.approx(1.0, abs=1e-8)


def test_fiber_normalization_n3():
    assert integrate_fiber_volume(3) == pytest.approx(1.0, abs=1e-6)


def test_fiber_curvature_terms_vanish_at_flat_point():
    # every term of the secondary form with a curvature factor dies when the
    # curvature bindings are zero, so each contributes 0 to the flat fiber
    # integral
    for n in (3, 4):
        fam = build_phi(n)
        for k in range(1, (n - 1) // 2 + 1):
            val = integrate_fiber_form(fam.phi_k[k], fiber_grid(n, 24))
            assert val == 0.0


# -- section integrals ----------------------------------------------------------------

def test_disk_normal_section():
    rim = disk_rim()
    grid = gauss_grid(rim.box, [64])
    ((normal,),), *_ = integrate_phi_over_section(rim, (None,), grid)
    assert normal == pytest.approx(1.0, abs=1e-6)


def test_disk_constant_field_section():
    rim = disk_rim()
    grid = gauss_grid(rim.box, [64])
    ((section,),), *_ = integrate_phi_over_section(rim, (CONSTANT_POLAR,), grid)
    assert section == pytest.approx(0.0, abs=1e-6)


def test_hemisphere_normal_section_and_euler():
    hemi = cap_patch(math.pi / 2)
    rim = cap_rim(math.pi / 2)
    (euler,) = integrate_euler(hemi, gauss_grid(hemi.box, 48))
    assert euler == pytest.approx(1.0, abs=1e-6)
    ((normal,),), *_ = integrate_phi_over_section(rim, (None,),
                                                  gauss_grid(rim.box, [64]))
    assert normal == pytest.approx(0.0, abs=1e-6)


def test_euler_odd_dimension_short_circuit():
    ball = RiemannianPatch(3, [(0, 1)] * 3,
                           OnJets(lambda x: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert integrate_euler(ball, gauss_grid(ball.box, 4)) == (0.0,)


def test_euler_grid_dimension_mismatch():
    with pytest.raises(ValueError):
        integrate_euler(disk_patch(), gauss_grid([(0, 1)], [8]))


def test_section_tuple_shares_frames_and_matches_single_calls():
    rim = cap_rim(1.2)
    grid = gauss_grid(rim.box, [24])
    field = OnJets(lambda x: [jet_cos(x[1]) + 0.3, jet_sin(x[1] * 2.0)])
    (normal,), *arrays_n = integrate_phi_over_section(rim, (None,), grid)
    (section,), *arrays_f = integrate_phi_over_section(rim, (field,), grid)
    (both,), *arrays = integrate_phi_over_section(rim, (None, field), grid)
    assert both == normal + section
    # densities, angles and v_dot_n: one row per section, one column per node
    for both_rows, (row_n,), (row_f,) in zip(arrays, arrays_n, arrays_f):
        assert both_rows.shape == (2, len(grid))
        assert np.array_equal(both_rows[0], row_n)
        assert np.array_equal(both_rows[1], row_f)


def _permuted(grid, seed):
    order = np.random.default_rng(seed).permutation(len(grid))
    return QuadratureGrid(nodes=grid.nodes[order], weights=grid.weights[order],
                          orders=grid.orders)


def test_node_order_does_not_change_integrals():
    saddle = load_catalog_scenario("disk-saddle")
    grid = gauss_grid(saddle.patch.box, 24)
    assert (integrate_euler(saddle.patch, _permuted(grid, 1))
            == integrate_euler(saddle.patch, grid))
    rim = saddle.boundaries[0]
    grid = gauss_grid(rim.box, 64)
    sections = (None, saddle.field_spec.components)
    assert (integrate_phi_over_section(rim, sections, _permuted(grid, 2))[0]
            == integrate_phi_over_section(rim, sections, grid)[0])


def test_joined_grids_give_each_grid_its_own_integrals():
    """Over a joined grid, the integrals of each part equal, bit for bit,
    those over its grid alone, and the integrand arrays are the grids' own,
    side by side."""
    saddle = load_catalog_scenario("disk-saddle")
    grids = [gauss_grid(saddle.patch.box, k) for k in (12, 24)]
    assert (integrate_euler(saddle.patch, joined_grid(grids))
            == tuple(integrate_euler(saddle.patch, g)[0] for g in grids))
    rim = saddle.boundaries[0]
    grids = [gauss_grid(rim.box, k) for k in (48, 96)]
    sections = (None, saddle.field_spec.components)
    joined, *arrays = integrate_phi_over_section(rim, sections, joined_grid(grids))
    alone = [integrate_phi_over_section(rim, sections, g) for g in grids]
    assert joined == tuple(integrals[0] for integrals, *_ in alone)
    for k, array in enumerate(arrays):  # densities, angles, v_dot_n
        assert np.array_equal(array, np.concatenate([a[1 + k] for a in alone], axis=-1))


def _traced_beyond_result(fn):
    """Bytes that ``fn()`` allocates at its peak beyond the arrays it
    returns, a tuple of arrays or of maps to arrays, each array counted once."""
    fn()  # fills caches
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [a for part in result for a in (part.values() if isinstance(part, dict) else [part])]
    return peak - sum({id(a): a.nbytes for a in arrays}.values())


def _one_node(grid, k):
    return QuadratureGrid(nodes=grid.nodes[k:k + 1], weights=grid.weights[k:k + 1],
                          orders=grid.orders)


def test_chunk_seams_do_not_change_densities(monkeypatch):
    """With a cap of 16 nodes, on grids that split into slices of unequal
    length (35 nodes into 11, 12 and 12 at n = 2, 21 into 10 and 11 at
    n = 3, on ``ball3-constant``, whose Phi integrand reads both boundary
    axes), every Euler density, and every Phi density, angle and v_dot_n,
    of the chunked path equals, bit for bit, the value at the same node
    evaluated alone."""
    monkeypatch.setattr(geometry, "CHUNK_NODES", 16)
    scenario = load_catalog_scenario("hemisphere-tilted")
    patch = scenario.patch
    grid = gauss_grid(patch.box, [35, 1])
    chunked = []
    density = integrate.euler_form_density
    monkeypatch.setattr(integrate, "euler_form_density",
                        lambda p, x: chunked.append(density(p, x)) or chunked[-1])
    integrate_euler(patch, grid)
    assert [len(d) for d in chunked] == [11, 12, 12]
    alone = [density(patch, grid.nodes[k:k + 1]) for k in range(len(grid))]
    assert np.array_equal(np.concatenate(chunked), np.concatenate(alone))

    frame = integrate.boundary_frame
    ball = load_catalog_scenario("ball3-constant")
    for scenario, orders, sizes in ((scenario, [35], [11, 12, 12]),
                                    (ball, [3, 7], [10, 11])):
        rim = scenario.boundaries[0]
        grid = gauss_grid(rim.box, orders)
        sections = (None, scenario.field_spec.components)
        frames = []
        monkeypatch.setattr(integrate, "boundary_frame",
                            lambda b, t, twist: frames.append(len(t)) or frame(b, t, twist))
        _, *chunked = integrate_phi_over_section(rim, sections, grid)
        assert frames[:len(sizes)] == sizes
        assert [a.shape for a in chunked] == [(2, len(grid))] * 3
        for k in range(len(grid)):
            _, *alone = integrate_phi_over_section(rim, sections, _one_node(grid, k))
            for a_chunked, a_alone in zip(chunked, alone):  # density, angle, v_dot_n
                assert np.array_equal(a_chunked[:, k:k + 1], a_alone)


def _opaque(fn):
    """``fn`` as a Python callable with its ``jets`` and no ``reads``: it reads
    every parameter, so a quadrature evaluates it at every node."""
    def call(env):
        return fn(env)

    call.jets = fn.jets
    return call


def _conformal_seed_1():
    """The seed-1 ``conformal-2d`` scenarios of the benchmark, by name."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    with mock.patch.object(sys, "path", [bench, *sys.path]):
        conformal = importlib.import_module("conformal")
    return {f"conformal-{base}": conformal.perturb(load_catalog_raw(base), 1)[0]
            for base in conformal.BASES}


def _sheared_ball():
    """``ball3-radial`` with an outward vector that reads the longitude b."""
    cfg = load_catalog_raw("ball3-radial")
    cfg["boundaries"][0]["outward"][1] = "0.25*sin(b)"
    return cfg


BEYOND_CATALOG = {**_conformal_seed_1(), "ball3-radial-sheared": _sheared_ball()}
# the boundaries whose Phi integrand reads fewer axes than their grids have:
# ball3-radial's sphere (the colatitude) and the rims that read no axis
SEPARABLE_RIMS = {"annulus-rotational", "ball3-radial", "cap-radial", "disk-radial",
                  "disk-rotational", "hemisphere-radial"}


@pytest.mark.parametrize("name", catalog_names() + sorted(BEYOND_CATALOG))
def test_separable_quadrature_matches_every_node(name, monkeypatch):
    """The integrals of Omega and of Phi over the normal and the field, the
    Euler densities and the Phi densities, angles and v_dot_n, evaluated only
    where the parameters their integrands read differ, equal, bit for bit,
    those of the inputs as Python callables, evaluated at every node.  All
    2-D catalog interiors and the rims of ``SEPARABLE_RIMS`` run on fewer
    nodes than their grids; the conformal metrics read both chart parameters,
    and a sheared outward vector the longitude."""
    scenario = (load_scenario(BEYOND_CATALOG[name]) if name in BEYOND_CATALOG
                else load_catalog_scenario(name))
    patch = scenario.patch
    full = RiemannianPatch(patch.n, patch.box, _opaque(patch.metric), name=patch.name)
    ran, frame = [], integrate.boundary_frame
    monkeypatch.setattr(integrate, "boundary_frame",
                        lambda b, t, twist: ran.append(len(t)) or frame(b, t, twist))

    def both_orders(box, k):
        return joined_grid([gauss_grid(box, k), gauss_grid(box, 2 * k)])

    grid = both_orders(patch.box, scenario.interior_order)
    if patch.n == 2:
        assert integrate_euler(patch, grid) == integrate_euler(full, grid)
        densities = [integrate._node_values(grid, lambda x: euler_form_density(p, x), reads)
                     for p, reads in ((patch, integrate._reads(patch.metric)), (full, None))]
        assert densities[0].tobytes() == densities[1].tobytes()
        assert (integrate._reads(patch.metric) == {0}) == (not name.startswith("conformal"))
    field = scenario.field_spec.components
    for rim in scenario.boundaries:
        grid = both_orders(rim.box, scenario.boundary_order)
        opaque = BoundaryPatch(full, rim.box, _opaque(rim.embed), _opaque(rim.outward))
        ran.clear()
        reduced = integrate_phi_over_section(rim, (None, field), grid)
        assert (sum(ran) < len(grid)) == (name in SEPARABLE_RIMS)
        ran.clear()
        every = integrate_phi_over_section(opaque, (None, _opaque(field)), grid)
        assert sum(ran) == len(grid)
        assert reduced[0] == every[0]
        for got, want in zip(reduced[1:], every[1:]):  # densities, angles, v_dot_n
            assert got.tobytes() == want.tobytes()


def test_a_vanishing_section_names_the_same_node_on_both_paths():
    """A field on ``ball3-radial`` that vanishes at one colatitude node of
    the sphere raises, when Phi runs on the colatitudes alone, the
    GenericityError that it raises when Phi runs at every node: the same
    first failing node, its longitude at the first node."""
    scenario = load_catalog_scenario("ball3-radial")
    rim = scenario.boundaries[0]
    grid = joined_grid([gauss_grid(rim.box, 8), gauss_grid(rim.box, 16)])
    colatitude = float(grid.axes[0][0][3])
    field = compile_vector([f"rho*(th - {colatitude!r})", "0", "0"], ["rho", "th", "ps"])
    errors = []
    for section, bpatch in ((field, rim), (_opaque(field), BoundaryPatch(
            rim.parent, rim.box, _opaque(rim.embed), _opaque(rim.outward)))):
        with pytest.raises(GenericityError) as err:
            integrate_phi_over_section(bpatch, (None, section), grid)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert errors[0] == ("section norm below 1e-9 at boundary point "
                         f"{[colatitude, float(grid.axes[0][1][0])]}")


def test_a_frame_twist_reads_every_axis(monkeypatch):
    """Phi under a compiled frame twist that turns with the longitude runs at
    every node of ``ball3-radial``'s sphere, though its inputs read the
    colatitude alone."""
    scenario = load_catalog_scenario("ball3-radial")
    rim, grid = scenario.boundaries[0], gauss_grid(scenario.boundaries[0].box, [6, 8])
    twist = compile_matrix([["1", "0", "0"], ["0", "cos(b)", "-sin(b)"],
                            ["0", "sin(b)", "cos(b)"]], ["a", "b"])
    ran, frame = [], integrate.boundary_frame
    monkeypatch.setattr(integrate, "boundary_frame",
                        lambda b, t, twist: ran.append(len(t)) or frame(b, t, twist))
    integrate_phi_over_section(rim, (None, scenario.field_spec.components), grid, twist)
    assert ran == [len(grid)]


@given(st.integers(1, 64), st.integers(0, 1000))
def test_node_chunks_split_evenly_under_the_cap(cap, count):
    """The slices cover range(count) once, in order, none longer than the
    cap, in the fewest slices, whose lengths differ by at most one; no nodes
    give no slices."""
    with mock.patch.object(geometry, "CHUNK_NODES", cap):
        chunks = geometry.node_chunks(count)
    assert [k for c in chunks for k in range(c.start, c.stop)] == list(range(count))
    lengths = [c.stop - c.start for c in chunks]
    assert len(chunks) == -(-count // cap) and all(0 < k <= cap for k in lengths)
    assert max(lengths, default=0) - min(lengths, default=0) <= 1


@pytest.mark.parametrize("name, orders, floats", [("ball3-radial", [32, 64], 66),
                                                  ("disk-saddle", [2048], 32),
                                                  ("ball3-constant", [32, 64], 66)])
def test_phi_chunk_live_set_per_node(name, orders, floats):
    """One chunk of CHUNK_NODES nodes through ``integrate_phi_over_section``
    (the normal and the field) allocates, beyond the arrays it returns, less
    than ``floats`` arrays of one float per node: the measured 45.6 and
    21.6, under bounds set at 59.6 and 28.6 with a margin of about 10 %,
    when the connection and curvature were still stacked node first.  The
    templates read the frame's maps as they are, and one section's bindings
    are alive at a time, so the cap costs no more memory than smaller
    chunks did.  ``ball3-radial``'s integrand reads the colatitude alone, so
    it runs on 32 of the nodes (about 6 floats per grid node); ``ball3-constant``
    runs the whole chunk (about 53)."""
    scenario = load_catalog_scenario(name)
    rim = scenario.boundaries[0]
    grid = gauss_grid(rim.box, orders)
    assert len(grid) == geometry.CHUNK_NODES
    sections = (None, scenario.field_spec.components)
    peak = _traced_beyond_result(lambda: integrate_phi_over_section(rim, sections, grid)[1:])
    assert peak < floats * 8 * len(grid)


@pytest.mark.parametrize("name", ["disk-saddle", "cap-tilted", "ball3-constant"])
def test_boundary_path_runs_no_jet_arithmetic(name, monkeypatch):
    """A scenario file's boundary path reads its embedding, outward vector
    and field from derivative programs: with Jet products, sums and
    variables refusing to run, Phi is integrated over the normal and the
    field, the boundary is swept for genericity and the tangential indices
    are taken.  The field values that ``bind`` reads are, bit for bit, the
    field's value program at the frame's points."""
    from lawcheck.fields import boundary_decompose, index_tangential

    scenario = load_catalog_scenario(name)
    components, calls = scenario.field_spec.components, []

    def recorded(env):
        return components(env)

    def refuse(*args, **kwargs):
        raise AssertionError("Jet arithmetic on the boundary path")

    recorded.jets = lambda x, order: calls.append((x, components.jets(x, order))) or calls[-1][1]
    for attr in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(geometry.Jet, attr, refuse)
    monkeypatch.setattr(geometry.Jet, "variables", staticmethod(refuse))
    indexed = 0
    for k, bpatch in enumerate(scenario.boundaries):
        grid = gauss_grid(bpatch.box, scenario.boundary_order)
        (integrals,), *_ = integrate_phi_over_section(bpatch, (None, recorded), grid)
        assert all(map(math.isfinite, integrals))
        split = boundary_decompose(scenario.field_spec, bpatch, k)
        for sing in split.minus + split.plus:
            index_tangential(scenario.field_spec, bpatch, sing, order=scenario.degree_order)
            indexed += 1
    assert indexed == len(scenario.field_spec.tangential)
    assert len(calls) >= len(scenario.boundaries)
    for x, (values, _, _) in calls:
        for k, want in enumerate(components(list(x.T))):
            assert (np.broadcast_to(values.get(k, 0.0), len(x)).tobytes()
                    == np.broadcast_to(want, len(x)).tobytes())


def test_section_norm_guard():
    rim = disk_rim()
    dying = OnJets(lambda x: [jet_cos(x[1]) - jet_cos(x[1]), 0.0])
    with pytest.raises(GenericityError):
        integrate_phi_over_section(rim, (dying,), gauss_grid(rim.box, [8]))
    with pytest.raises(GenericityError, match="section norm below 1e-9"):
        SectionPullback(OnJets(lambda x: [0.0, 0.0])).bind(
            [[0.3]], boundary_frame(rim, [[0.3]]))


def test_section_unit_residual():
    rim = disk_rim()
    pull = SectionPullback(CONSTANT_POLAR)
    for t in (0.3, 2.1, 5.5):
        u, *_ = pull.bind([[t]], boundary_frame(rim, [[t]]))
        assert abs(float(sum(v * v for v in u.values())[0]) - 1.0) < 1e-12


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-8])
def test_section_angle_near_the_normal_to_a_few_ulps(delta):
    """A section within ``delta`` rad of the outward normal d/dtheta of a
    cap rim, the metric diag(1, sin^2 theta), gets its angle within 4 ulps
    of a 40-digit mpmath reference from the section's float components."""
    theta_max = 1.2
    components = [math.cos(delta), math.sin(delta) / math.sin(theta_max)]
    rim = cap_rim(theta_max)
    t = np.linspace(0.1, 6.1, 7)[:, None]
    _u, _theta, angle, _v_dot_n = SectionPullback(OnJets(lambda x: components)).bind(
        t, boundary_frame(rim, t))
    with mpmath.workdps(40):
        want = float(mpmath.atan2(mpmath.sin(theta_max) * abs(mpmath.mpf(components[1])),
                                  components[0]))
    assert want == pytest.approx(delta, rel=1e-12)
    assert np.all(np.abs(angle - want) <= 4 * np.spacing(want))


def test_quadrature_convergence_on_doubling():
    rim = disk_rim()
    ((v64,),), *_ = integrate_phi_over_section(rim, (CONSTANT_POLAR,), gauss_grid(rim.box, [64]))
    ((v128,),), *_ = integrate_phi_over_section(rim, (CONSTANT_POLAR,),
                                                gauss_grid(rim.box, [128]))
    assert abs(v128 - v64) < 1e-8


def test_integral_is_parametrization_and_chart_invariant():
    # the induced orientation convention (outward-first, ambient chart twice)
    # makes the integral independent of the boundary parametrization and of
    # the ambient chart orientation -- as it must be, since it equals
    # chi - int Omega
    grid = gauss_grid([(0, 2 * math.pi)], [64])
    ((forward,),), *_ = integrate_phi_over_section(disk_rim(), (None,), grid)
    ((reparam,),), *_ = integrate_phi_over_section(disk_rim(reverse=True), (None,), grid)
    assert reparam == pytest.approx(forward, abs=1e-9)

    mirrored = RiemannianPatch(2, [(0, 2 * math.pi), (0, 1)],
                               OnJets(lambda x: [[x[1] * x[1], 0], [0, 1]]))
    rim = BoundaryPatch(mirrored, [(0, 2 * math.pi)],
                        embed=OnJets(lambda t: [t[0], 1.0 + 0 * t[0]]),
                        outward=OnJets(lambda t: [0.0, 1.0]))
    ((swapped,),), *_ = integrate_phi_over_section(rim, (None,), grid)
    assert swapped == pytest.approx(forward, abs=1e-9)


def _assert_same_integers(base, other):
    """Both reports pass, with the same indices, sums and law residual."""
    assert base.passed and other.passed, (base.failures, other.failures)
    assert other.sums == base.sums and other.residuals["law"] == base.residuals["law"]
    for kind, indices in base.indices.items():
        assert [i["value"] for i in other.indices[kind]] == [i["value"] for i in indices]


@pytest.mark.parametrize("name, shear", [
    ("disk-saddle", ["0.3 + 0.2*cos(t)"]),
    ("ball3-constant", ["-2", "0.5*sin(b)"]),
])
def test_outward_shear_moves_no_integer_and_no_integral(name, shear):
    """The outward vector need only point outward: adding tangent vectors
    c_i dx/dt_i to it leaves e_1 the unit normal, so every index stays the
    same and every integral moves by round-off only."""
    cfg = load_catalog_raw(name)
    (rim,) = cfg["boundaries"]
    assert rim["embed"][1:] == rim["params"]  # dx/dt_i is the (i + 1)-th chart axis
    base = run_scenario(load_scenario(cfg))
    for i, c in enumerate(shear):
        rim["outward"][i + 1] = f"({rim['outward'][i + 1]}) + ({c})"
    sheared = run_scenario(load_scenario(cfg))
    _assert_same_integers(base, sheared)
    for key, value in base.integrals.items():
        assert abs(sheared.integrals[key] - value) <= 1e-12, key


@pytest.mark.parametrize("name", ["disk-saddle", "cap-tilted", "ball3-radial"])
def test_field_rescaling_moves_no_integer_and_no_integral(name):
    """V -> e^h V keeps the direction of V: the sections alpha_V are unit
    vectors and every index is a degree of V/|V|, so no integer moves and
    every integral moves by round-off only."""
    cfg = load_catalog_raw(name)
    base = run_scenario(load_scenario(cfg))
    params = cfg["patch"]["params"]
    cfg["field"]["components"] = [f"({c})*exp(0.3*{params[0]} - 0.2*{params[-1]})"
                                  for c in cfg["field"]["components"]]
    for sing in cfg["interior_singularities"]:
        x0 = sing["chart_params"][0]
        sing["field"] = [f"({c})*exp(0.5*{x0} + 0.1)" for c in sing["field"]]
    scaled = run_scenario(load_scenario(cfg))
    _assert_same_integers(base, scaled)
    for key, value in base.integrals.items():
        assert abs(scaled.integrals[key] - value) <= 1e-12, key


def _conformal(cfg, f):
    """Scale the metric of the raw scenario ``cfg`` by e^(2f), ``f`` an expression."""
    cfg["patch"]["metric"] = [[e if e == "0" else f"exp(2*({f}))*({e})" for e in row]
                              for row in cfg["patch"]["metric"]]


def _ambient_quadratic(cfg):
    """A quadratic in the chart map's ambient coordinates: smooth wherever
    the chart degenerates."""
    X = [f"({x})" for x in cfg["patch"]["chart_map"]]
    return (f"0.1 + 0.12*{X[0]} - 0.08*{X[1]} + 0.06*{X[-1]} + 0.1*{X[0]}*{X[0]}"
            f" + 0.05*{X[0]}*{X[1]} - 0.07*{X[1]}*{X[-1]}")


def _normal_flux(cfg, f, order=64):
    """(1/2pi) times the boundary integral of the outward normal derivative
    of f, d_nu f ds, on a 2-D scenario with a diagonal metric and one
    boundary at a constant first chart coordinate, with outward d/dx_1, by a
    Gauss-Legendre rule in the boundary parameter."""
    (rim,) = cfg["boundaries"]
    assert rim["outward"] == ["1", "0"] and rim["embed"][1] == rim["params"][0]
    x = sp.symbols(cfg["patch"]["params"])
    names = dict(zip(cfg["patch"]["params"], x))
    (g11, g12), (g21, g22) = [[sp.sympify(e, locals=names) for e in row]
                              for row in cfg["patch"]["metric"]]
    assert g12 == g21 == 0
    flux = sp.diff(sp.sympify(f, locals=names), x[0]) * sp.sqrt(g22 / g11)
    density = sp.lambdify(x[1], flux.subs(x[0], sp.sympify(rim["embed"][0])), "numpy")
    lo, hi = (float(sp.sympify(b)) for b in rim["box"][0])
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = lo + (hi - lo) * (nodes + 1) / 2
    values = density(t) * np.ones_like(t)  # a constant flux lambdifies to a number
    return float(weights @ values) * (hi - lo) / 2 / (2 * math.pi)


@pytest.mark.parametrize("name", ["disk-saddle", "hemisphere-tilted"])
def test_conformal_change_moves_the_integrals_by_the_normal_flux(name):
    """g -> e^(2f) g, with every nonzero metric entry varying: no integer
    moves and every gate passes, while the integral of Phi(n) moves by
    (1/2pi) times the boundary integral of d_nu f ds and that of Omega by the
    opposite amount (Gauss-Bonnet), each within 1e-10."""
    cfg = load_catalog_raw(name)
    base = run_scenario(load_scenario(cfg))
    f = _ambient_quadratic(cfg)
    shift = _normal_flux(cfg, f)
    _conformal(cfg, f)
    changed = run_scenario(load_scenario(cfg))
    _assert_same_integers(base, changed)
    assert abs(shift) > 1e-2
    moved = {k: changed.integrals[k] - v for k, v in base.integrals.items()}
    assert abs(moved["phi_normal"] - shift) <= 1e-10, (moved, shift)
    assert abs(moved["omega_x"] + shift) <= 1e-10, (moved, shift)


def test_conformal_change_of_the_ball_moves_densities_not_integers():
    """At n = 3 the integral of Phi(n) is chi for every metric: under
    g -> e^(2f) g on ``ball3-radial`` no integer moves and every gate passes,
    while the profile (CSV) densities at the same nodes do move."""
    cfg = load_catalog_raw("ball3-radial")
    base = run_scenario(load_scenario(cfg))
    _conformal(cfg, _ambient_quadratic(cfg))
    changed = run_scenario(load_scenario(cfg))
    _assert_same_integers(base, changed)
    base_rows, changed_rows = base.profile_rows(), changed.profile_rows()
    assert [r["t"] for r in changed_rows] == [r["t"] for r in base_rows]
    for column in ("density_normal", "density_section"):
        moved = max(abs(a[column] - b[column]) for a, b in zip(base_rows, changed_rows))
        assert moved > 1e-3, column


def test_frame_rotation_invariance_n2():
    # rotating the whole frame by a smooth angle must not move the integral
    rim = disk_rim()
    grid = gauss_grid(rim.box, [64])

    @OnJets
    def twist(t_jets):
        gamma = (t_jets[0] * 2.0).sin() * 0.4
        c, s = gamma.cos(), gamma.sin()
        return [[c, -1.0 * s], [s, c]]

    for section in (None, CONSTANT_POLAR):
        ((base,),), *_ = integrate_phi_over_section(rim, (section,), grid)
        ((rotated,),), *_ = integrate_phi_over_section(rim, (section,), grid,
                                                       frame_twist=twist)
        assert abs(rotated - base) < 1e-8


def test_frame_rotation_invariance_n3():
    ball = RiemannianPatch(3, [(0, 1), (0, math.pi), (0, 2 * math.pi)],
                           OnJets(lambda x: [[1, 0, 0], [0, x[0] * x[0], 0],
                                             [0, 0, x[0] * x[0] * jet_sin(x[1]) * jet_sin(x[1])]]))
    sph = BoundaryPatch(ball, [(0, math.pi), (0, 2 * math.pi)],
                        embed=OnJets(lambda t: [1.0 + 0 * t[0], t[0], t[1]]),
                        outward=OnJets(lambda t: [1.0, 0.0, 0.0]))
    grid = gauss_grid(sph.box, [20, 20])

    @OnJets
    def twist(t_jets):
        gamma = t_jets[0].cos() * 0.5 + t_jets[1].sin() * 0.3
        c, s = gamma.cos(), gamma.sin()
        one = t_jets[0] * 0.0 + 1.0
        zero = t_jets[0] * 0.0
        return [[one, zero, zero], [zero, c, -1.0 * s], [zero, s, c]]

    ((base,),), *_ = integrate_phi_over_section(sph, (None,), grid)
    ((rotated,),), *_ = integrate_phi_over_section(sph, (None,), grid, frame_twist=twist)
    assert abs(rotated - base) < 1e-8


# -- degree integrals -------------------------------------------------------------

def _circle_map(k):
    """t -> (cos kt, sin kt) with its t-derivatives, degree k, on node
    arrays t (N,), as the node-last maps w[k] and dw[0, k]."""
    return lambda t: ({0: np.cos(k * t), 1: np.sin(k * t)},
                      {(0, 0): -k * np.sin(k * t), (0, 1): k * np.cos(k * t)})


def _sphere_map(k, sign=1.0):
    """(a, b) -> sign * (sin a cos kb, sin a sin kb, cos a) with gradients,
    degree sign * k, on node arrays (N, 2), as the node-last maps w[k] and
    dw[i, k], d(cos a)/db structurally zero."""
    def fn(nodes):
        a, b = nodes.T
        w = {0: np.sin(a) * np.cos(k * b), 1: np.sin(a) * np.sin(k * b), 2: np.cos(a)}
        dw = {(0, 0): np.cos(a) * np.cos(k * b), (1, 0): -k * np.sin(a) * np.sin(k * b),
              (0, 1): np.cos(a) * np.sin(k * b), (1, 1): k * np.sin(a) * np.cos(k * b),
              (0, 2): -np.sin(a)}
        return ({key: sign * v for key, v in w.items()},
                {key: sign * v for key, v in dw.items()})
    return fn


def test_degree_circle_examples():
    assert degree_integral_circle(_circle_map(1), order=256) == pytest.approx(1.0, abs=1e-12)
    assert degree_integral_circle(_circle_map(2), order=256) == pytest.approx(2.0, abs=1e-12)


def test_degree_sphere_examples():
    ident = _sphere_map(1)
    assert degree_integral_sphere(ident, order=24) == pytest.approx(1.0, abs=1e-9)
    anti = _sphere_map(1, sign=-1.0)
    assert degree_integral_sphere(anti, order=24) == pytest.approx(-1.0, abs=1e-9)


def test_degree_sphere_degree_two_map():
    assert degree_integral_sphere(_sphere_map(2), order=24) == \
        pytest.approx(2.0, abs=1e-9)


def test_degree_vanishing_map_raises():
    with pytest.raises(GenericityError):
        degree_integral_circle(lambda t: ({0: np.zeros(len(t))}, {}), order=16)
    with pytest.raises(GenericityError):
        degree_integral_sphere(lambda nodes: ({}, {}), order=4)


def test_phi_template_is_cached_and_top_degree():
    tpl = phi_template(3)
    assert tpl.slots == 2
    assert phi_template(3) is tpl


def _alternation_reference(form, slots, u, theta, curv):
    """Reference for ``evaluate_template``: each term of ``form`` summed over
    every signed permutation of the slots, a 2-form read as the full array
    curv[:, a, b, s, t], so that each slot pair counts twice."""
    total = 0.0
    for (evens, odds), coeff in form.terms.items():
        factors = [(k, a - 1, b - 1, DEGREE[k]) for k, a, b in evens + odds if k != K_U]
        if not factors or sum(f[3] for f in factors) != slots:
            continue
        alternated = 0.0
        for perm, sign in signed_permutations(slots):
            value, at = sign, 0
            for kind, a, b, deg in factors:
                value = value * (theta[:, a, perm[at]] if deg == 1
                                 else curv[:, a, b, perm[at], perm[at + 1]])
                at += deg
            alternated = alternated + value
        scalar = math.prod((u[:, a - 1] for k, a, _ in evens if k == K_U), start=coeff.to_float())
        total = total + scalar * alternated / 2 ** sum(f[3] == 2 for f in factors)
    return total


def unpack_pairs(values, n, m):
    """The array (N, n, n, m, m), antisymmetric in each index pair, whose
    entries on the index pairs of ``pairs`` are ``values`` (N, P, Q)."""
    out = np.zeros((len(values), n, n, m, m))
    for I, (a, b) in enumerate(pairs(n)):
        for J, (i, j) in enumerate(pairs(m)):
            v = values[:, I, J]
            out[:, a, b, i, j], out[:, b, a, i, j] = v, -v
            out[:, a, b, j, i], out[:, b, a, j, i] = -v, v
    return out


def node_first(entries, shape):
    """The array of ``shape``, node axis first, holding the node-last
    ``entries`` {index (an int or a tuple): (N,) or plain number} and zeros
    elsewhere: the reference layout of the node-first comparisons."""
    out = np.zeros(shape)
    for index, values in entries.items():
        out[(slice(None), *index) if isinstance(index, tuple) else (slice(None), index)] = values
    return out


def entries(array):
    """The node-last map {index: (N,)} of every entry of a node-first array
    (N, ...): a dense input for the node-last frame functions."""
    return {index: np.ascontiguousarray(array[(slice(None), *index)])
            for index in np.ndindex(array.shape[1:])}


TEMPLATE_CASES = [("phi", 2), ("phi", 3), ("phi", 4), ("phi", 5), ("euler", 2), ("euler", 4)]


def _node_maps(u, theta, packed):
    """The node-last maps u[A], theta[A, slot] and curv[I, J] of node-first
    bindings."""
    return {A: v for (A,), v in entries(u).items()}, entries(theta), entries(packed)


def _template_case(which, n, rng, nodes=16):
    """The form, its slot count, its template and random node-first
    bindings: u (N, n), theta (N, n, slots) and the curvature on index pairs
    (N, P, Q), whose full array ``unpack_pairs`` gives."""
    form, slots = ((build_phi(n).phi, n - 1) if which == "phi" else (build_phi(n).euler, n))
    tpl = phi_template(n) if which == "phi" else euler_template(n)
    return form, slots, tpl, [rng.normal(size=(nodes, n)), rng.normal(size=(nodes, n, slots)),
                              rng.normal(size=(nodes, len(pairs(n)), len(pairs(slots))))]


@pytest.mark.parametrize("which, n", TEMPLATE_CASES)
def test_templates_on_pairs_match_the_full_alternation(which, n):
    """A template bound to the node-last maps of u, theta and the curvature
    on index pairs gives the sum over all signed slot permutations of the
    full antisymmetric curvature."""
    form, slots, tpl, (u, theta, packed) = _template_case(which, n, np.random.default_rng(n))
    want = _alternation_reference(form, slots, u, theta, unpack_pairs(packed, n, slots))
    got = evaluate_template(tpl, *_node_maps(u, theta, packed), len(u))
    assert np.max(np.abs(want)) > 1e-2
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("which, n", TEMPLATE_CASES)
def test_templates_skip_absent_keys_and_read_plain_numbers(which, n):
    """Maps with absent keys (structural zeros) and the plain numbers 0.0
    and 1.0 as entries give the alternation of node-first arrays holding
    zeros and ones there; maps of plain numbers only, and empty maps, still
    give an (N,) array."""
    rng = np.random.default_rng(20 + n)
    form, slots, tpl, arrays = _template_case(which, n, rng)
    kinds = []
    for array in arrays:  # per entry: absent, plain 0.0, plain 1.0 or a node array
        kinds.append(kind := rng.choice(4, size=array.shape[1:], p=[0.2, 0.1, 0.2, 0.5]))
        array[:, kind < 2], array[:, kind == 2] = 0.0, 1.0
    maps = [{key: (0.0, 1.0, v)[k - 1] for key, v in X.items() if (k := kind[np.index_exp[key]])}
            for X, kind in zip(_node_maps(*arrays), kinds)]
    u, theta, packed = arrays
    want = _alternation_reference(form, slots, u, theta, unpack_pairs(packed, n, slots))
    got = evaluate_template(tpl, *maps, len(u))
    assert np.max(np.abs(want)) > 1e-2
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    ones = [np.ones_like(a) for a in arrays]
    want = _alternation_reference(form, slots, *ones[:2], unpack_pairs(ones[2], n, slots))
    got = evaluate_template(tpl, *[{key: 1.0 for key in X} for X in _node_maps(*ones)], len(u))
    assert got.shape == (len(u),)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    got = evaluate_template(tpl, {}, {}, {}, len(u))
    assert got.shape == (len(u),) and not got.any()


def test_templates_refuse_formal_angles_and_the_connection():
    """A numeric template binds u, theta and the curvature only."""
    with pytest.raises(ValueError, match="formal angles"):
        compile_template(Form.dphi(3) * Form.theta(3, 1), 2)
    with pytest.raises(ValueError, match="connection"):
        compile_template(Form.omega(3, 1, 2) * Form.theta(3, 1), 2)


@pytest.mark.parametrize("n, curved", [(2, False), (3, True), (4, True)])
def test_phi_reads_the_curvature_from_n_3(n, curved):
    """The compiled flag that ``boundary_frame`` reads: Phi has a 2-form
    factor from n = 3 on, and only then does a frame carry curvature."""
    assert phi_template(n).curved is curved


def test_numeric_transgression_n2():
    """The closed-form degree-0 transgression drives the two-dimensional
    boundary difference numerically.

    On a rim interval where the tangential projection keeps one sign, the
    difference of the section and normal pullbacks of the secondary form
    integrates to the bracket of sigma * (transgression at the section
    angle), sigma the sign of the projection against the oriented tangent.
    The n = 2 case carries this extra sign because the two-coordinate
    adapted frame cannot always be oriented; in higher dimensions the
    middle frame vectors absorb it.
    """
    from lawcheck.chern import boundary_family

    rim = disk_rim()
    gamma_form = boundary_family(2).gamma
    gamma_coeff = gamma_form.terms.get(((), ()), TrigScalar.zero())

    a, b = 0.4, 2.7  # inside (0, pi): projection sign is -1 throughout
    grid = gauss_grid([(a, b)], [48])
    ((section, normal),), *_ = integrate_phi_over_section(rim, (CONSTANT_POLAR, None), grid)
    lhs = section - normal

    pull = SectionPullback(CONSTANT_POLAR)
    angles = {}
    signs = {}
    for t in (a, b):
        u, _theta, angle, _v_dot_n = pull.bind([[t]], boundary_frame(rim, [[t]]))
        angles[t] = float(angle[0])
        signs[t] = math.copysign(1.0, u[1][0])
    assert signs[a] == signs[b] == -1.0
    rhs = (signs[b] * trig_values(gamma_coeff, {1: angles[b]})
           - signs[a] * trig_values(gamma_coeff, {1: angles[a]}))
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert lhs == pytest.approx(-(b - a) / (2 * math.pi), abs=1e-9)
