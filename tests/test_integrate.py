"""Quadrature and form-pullback integrals."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy as sp

from lawcheck.algebra import DEGREE, K_U
from lawcheck.chern import build_phi, signed_permutations
from lawcheck import geometry, integrate
from lawcheck.geometry import (
    BoundaryPatch,
    GenericityError,
    RiemannianPatch,
    boundary_frame,
    jet_cos,
    jet_sin,
)
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
from lawcheck.scenarios import load_catalog_raw, load_catalog_scenario, load_scenario
from lawcheck.templates import euler_template, evaluate_template, pairs, trig_values
from lawcheck.trig import sphere_volume


# -- shared patches -----------------------------------------------------------

def disk_patch():
    return RiemannianPatch(2, [(0, 1), (0, 2 * math.pi)],
                           lambda x: [[1, 0], [0, x[0] * x[0]]],
                           chart_map=lambda x: [x[0] * jet_cos(x[1]),
                                                x[0] * jet_sin(x[1])])


def disk_rim(reverse=False):
    patch = disk_patch()
    if reverse:
        embed = lambda t: [1.0 + 0 * t[0], 2 * math.pi - t[0]]
    else:
        embed = lambda t: [1.0 + 0 * t[0], t[0]]
    return BoundaryPatch(patch, [(0, 2 * math.pi)], embed=embed,
                         outward=lambda t: [1.0, 0.0])


def cap_patch(theta_max):
    return RiemannianPatch(2, [(0, theta_max), (0, 2 * math.pi)],
                           lambda x: [[1, 0],
                                      [0, jet_sin(x[0]) * jet_sin(x[0])]])


def cap_rim(theta_max):
    patch = cap_patch(theta_max)
    return BoundaryPatch(patch, [(0, 2 * math.pi)],
                         embed=lambda t: [theta_max + 0 * t[0], t[0]],
                         outward=lambda t: [1.0, 0.0])


# -- grids and summation ---------------------------------------------------------

def test_grid_weights_positive_and_sum_to_volume():
    grid = gauss_grid([(0, 2), (-1, 3)], [12, 7])
    assert np.all(grid.weights > 0)
    assert math.fsum(grid.weights) == pytest.approx(8.0, abs=1e-12)


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
    const = lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]]
    ((section,),), *_ = integrate_phi_over_section(rim, (const,), grid)
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
                           lambda x: [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert integrate_euler(ball, gauss_grid(ball.box, 4)) == (0.0,)


def test_euler_grid_dimension_mismatch():
    with pytest.raises(ValueError):
        integrate_euler(disk_patch(), gauss_grid([(0, 1)], [8]))


def test_section_tuple_shares_frames_and_matches_single_calls():
    rim = cap_rim(1.2)
    grid = gauss_grid(rim.box, [24])
    field = lambda x: [jet_cos(x[1]) + 0.3, jet_sin(x[1] * 2.0)]
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


def _one_node(grid, k):
    return QuadratureGrid(nodes=grid.nodes[k:k + 1], weights=grid.weights[k:k + 1],
                          orders=grid.orders)


def test_chunk_seams_do_not_change_densities(monkeypatch):
    """With chunks of 16 nodes at n = 2 and 7 at n = 3, on grids whose node
    count is no multiple of the chunk (the last chunk is short), every Euler
    density, and every Phi density, angle and v_dot_n, of the chunked path
    equals, bit for bit, the value at the same node evaluated alone."""
    monkeypatch.setattr(geometry, "CHUNK_ENTRIES", 64)
    scenario = load_catalog_scenario("hemisphere-tilted")
    patch = scenario.patch
    grid = gauss_grid(patch.box, [33, 1])
    chunked = []
    density = integrate.euler_form_density
    monkeypatch.setattr(integrate, "euler_form_density",
                        lambda p, x: chunked.append(density(p, x)) or chunked[-1])
    integrate_euler(patch, grid)
    assert [len(d) for d in chunked] == [16, 16, 1]
    alone = [density(patch, grid.nodes[k:k + 1]) for k in range(len(grid))]
    assert np.array_equal(np.concatenate(chunked), np.concatenate(alone))

    frame = integrate.boundary_frame
    ball = load_catalog_scenario("ball3-radial")
    for scenario, orders, sizes in ((scenario, [33], [16, 16, 1]),
                                    (ball, [2, 5], [7, 3])):
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
    for x, jets in calls:
        for (value, _, _), want in zip(jets, components(list(x.T))):
            assert np.broadcast_to(value, len(x)).tobytes() == np.broadcast_to(want, len(x)).tobytes()


def test_section_norm_guard():
    rim = disk_rim()
    dying = lambda x: [jet_cos(x[1]) - jet_cos(x[1]), 0.0]
    with pytest.raises(GenericityError):
        integrate_phi_over_section(rim, (dying,), gauss_grid(rim.box, [8]))
    with pytest.raises(GenericityError, match="section norm below 1e-9"):
        SectionPullback(lambda x: [0.0, 0.0]).bind(
            [[0.3]], boundary_frame(rim, [[0.3]]))


def test_section_unit_residual():
    rim = disk_rim()
    pull = SectionPullback(lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]])
    for t in (0.3, 2.1, 5.5):
        u, theta, omega, curv, angle, v_dot_n = pull.bind([[t]], boundary_frame(rim, [[t]]))
        assert abs(float(np.dot(u[0], u[0])) - 1.0) < 1e-12


def test_quadrature_convergence_on_doubling():
    rim = disk_rim()
    const = lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]]
    ((v64,),), *_ = integrate_phi_over_section(rim, (const,), gauss_grid(rim.box, [64]))
    ((v128,),), *_ = integrate_phi_over_section(rim, (const,), gauss_grid(rim.box, [128]))
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
                               lambda x: [[x[1] * x[1], 0], [0, 1]])
    rim = BoundaryPatch(mirrored, [(0, 2 * math.pi)],
                        embed=lambda t: [t[0], 1.0 + 0 * t[0]],
                        outward=lambda t: [0.0, 1.0])
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
    assert [r["t"] for r in changed.profile] == [r["t"] for r in base.profile]
    for column in ("density_normal", "density_section"):
        moved = max(abs(a[column] - b[column]) for a, b in zip(base.profile, changed.profile))
        assert moved > 1e-3, column


def test_frame_rotation_invariance_n2():
    # rotating the whole frame by a smooth angle must not move the integral
    rim = disk_rim()
    grid = gauss_grid(rim.box, [64])
    const = lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]]

    def twist(t_jets):
        gamma = (t_jets[0] * 2.0).sin() * 0.4
        c, s = gamma.cos(), gamma.sin()
        return [[c, -1.0 * s], [s, c]]

    for section in (None, const):
        ((base,),), *_ = integrate_phi_over_section(rim, (section,), grid)
        ((rotated,),), *_ = integrate_phi_over_section(rim, (section,), grid,
                                                       frame_twist=twist)
        assert abs(rotated - base) < 1e-8


def test_frame_rotation_invariance_n3():
    ball = RiemannianPatch(3, [(0, 1), (0, math.pi), (0, 2 * math.pi)],
                           lambda x: [[1, 0, 0], [0, x[0] * x[0], 0],
                                      [0, 0, x[0] * x[0] * jet_sin(x[1]) * jet_sin(x[1])]])
    sph = BoundaryPatch(ball, [(0, math.pi), (0, 2 * math.pi)],
                        embed=lambda t: [1.0 + 0 * t[0], t[0], t[1]],
                        outward=lambda t: [1.0, 0.0, 0.0])
    grid = gauss_grid(sph.box, [20, 20])

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
    arrays t (N,)."""
    return lambda t: (np.stack([np.cos(k * t), np.sin(k * t)], axis=1),
                      np.stack([-k * np.sin(k * t), k * np.cos(k * t)], axis=1)[:, None, :])


def _sphere_map(k, sign=1.0):
    """(a, b) -> sign * (sin a cos kb, sin a sin kb, cos a) with gradients,
    degree sign * k, on node arrays (N, 2)."""
    def fn(nodes):
        a, b = nodes.T
        w = np.stack([np.sin(a) * np.cos(k * b), np.sin(a) * np.sin(k * b),
                      np.cos(a)], axis=1)
        dw = np.stack([np.stack([np.cos(a) * np.cos(k * b), -k * np.sin(a) * np.sin(k * b)], axis=1),
                       np.stack([np.cos(a) * np.sin(k * b), k * np.sin(a) * np.cos(k * b)], axis=1),
                       np.stack([-np.sin(a), 0.0 * a], axis=1)], axis=2)
        return sign * w, sign * dw
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
        degree_integral_circle(lambda t: (np.zeros((len(t), 2)), np.zeros((len(t), 1, 2))),
                               order=16)


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


@pytest.mark.parametrize("which, n", [("phi", 3), ("phi", 4), ("phi", 5),
                                      ("euler", 2), ("euler", 4)])
def test_templates_on_pairs_match_the_full_alternation(which, n):
    """A template bound to curvature on index pairs gives the sum over all
    signed slot permutations of the full antisymmetric curvature."""
    form, slots = ((build_phi(n).phi, n - 1) if which == "phi" else (build_phi(n).euler, n))
    tpl = phi_template(n) if which == "phi" else euler_template(n)
    rng = np.random.default_rng(n)
    u, theta = rng.normal(size=(16, n)), rng.normal(size=(16, n, slots))
    curv = rng.normal(size=(16, n, n, slots, slots))
    curv = curv - curv.swapaxes(1, 2)
    curv = curv - curv.swapaxes(3, 4)
    packed = np.array([[curv[:, a, b, s, t] for s, t in pairs(slots)]
                       for a, b in pairs(n)]).transpose(2, 0, 1)
    want = _alternation_reference(form, slots, u, theta, curv)
    got = evaluate_template(tpl, u, theta, None, packed)
    assert np.max(np.abs(want)) > 1e-2
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    const = lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]]
    gamma_form = boundary_family(2).gamma
    gamma_coeff = gamma_form.coefficient_of(((), ()))

    a, b = 0.4, 2.7  # inside (0, pi): projection sign is -1 throughout
    grid = gauss_grid([(a, b)], [48])
    ((section, normal),), *_ = integrate_phi_over_section(rim, (const, None), grid)
    lhs = section - normal

    pull = SectionPullback(const)
    angles = {}
    signs = {}
    for t in (a, b):
        u, _theta, _w, _W, angle, _v_dot_n = pull.bind([[t]], boundary_frame(rim, [[t]]))
        angles[t] = float(angle[0])
        signs[t] = math.copysign(1.0, u[0, 1])
    assert signs[a] == signs[b] == -1.0
    rhs = (signs[b] * trig_values(gamma_coeff, {1: angles[b]})
           - signs[a] * trig_values(gamma_coeff, {1: angles[a]}))
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert lhs == pytest.approx(-(b - a) / (2 * math.pi), abs=1e-9)
