"""Quadrature and form-pullback integrals."""

import math
import tracemalloc

import numpy as np
import pytest

from lawcheck.chern import build_phi
from lawcheck import integrate
from lawcheck.geometry import (
    CHUNK,
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
    phi_template,
)
from lawcheck.runner import run_scenario
from lawcheck.scenarios import load_catalog_scenario
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
    (normal,) = integrate_phi_over_section(rim, (None,), grid)
    assert normal == pytest.approx(1.0, abs=1e-6)


def test_disk_constant_field_section():
    rim = disk_rim()
    grid = gauss_grid(rim.box, [64])
    const = lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]]
    (section,) = integrate_phi_over_section(rim, (const,), grid)
    assert section == pytest.approx(0.0, abs=1e-6)


def test_hemisphere_normal_section_and_euler():
    hemi = cap_patch(math.pi / 2)
    rim = cap_rim(math.pi / 2)
    assert integrate_euler(hemi, gauss_grid(hemi.box, 48)) == \
        pytest.approx(1.0, abs=1e-6)
    (normal,) = integrate_phi_over_section(rim, (None,),
                                           gauss_grid(rim.box, [64]))
    assert normal == pytest.approx(0.0, abs=1e-6)


def test_euler_odd_dimension_short_circuit():
    ball = RiemannianPatch(3, [(0, 1)] * 3,
                           lambda x: [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert integrate_euler(ball, gauss_grid(ball.box, 4)) == 0.0


def test_euler_grid_dimension_mismatch():
    with pytest.raises(ValueError):
        integrate_euler(disk_patch(), gauss_grid([(0, 1)], [8]))


def test_section_tuple_shares_frames_and_matches_single_calls():
    rim = cap_rim(1.2)
    grid = gauss_grid(rim.box, [24])
    field = lambda x: [jet_cos(x[1]) + 0.3, jet_sin(x[1] * 2.0)]
    rows_n, rows_f, rows = [], [], []
    normal = integrate_phi_over_section(rim, (None,), grid, collect=rows_n)
    section = integrate_phi_over_section(rim, (field,), grid, collect=rows_f)
    both = integrate_phi_over_section(rim, (None, field), grid, collect=rows)
    assert both == normal + section
    assert len(rows) == len(grid)
    for row, rn, rf in zip(rows, rows_n, rows_f):
        assert row["t"] == rn["t"] == rf["t"]
        assert row["weight"] == rn["weight"]
        for key in ("density", "angle", "v_dot_n"):
            assert row[key] == rn[key] + rf[key]


def _permuted(grid, seed):
    order = np.random.default_rng(seed).permutation(len(grid))
    return QuadratureGrid(nodes=grid.nodes[order], weights=grid.weights[order],
                          box=grid.box, orders=grid.orders)


def test_node_order_does_not_change_integrals():
    saddle = load_catalog_scenario("disk-saddle")
    grid = gauss_grid(saddle.patch.box, 24)
    assert (integrate_euler(saddle.patch, _permuted(grid, 1))
            == integrate_euler(saddle.patch, grid))
    rim = saddle.boundaries[0]
    grid = gauss_grid(rim.box, 64)
    sections = (None, saddle.field_spec.components)
    assert (integrate_phi_over_section(rim, sections, _permuted(grid, 2))
            == integrate_phi_over_section(rim, sections, grid))


def _one_node(grid, k):
    return QuadratureGrid(nodes=grid.nodes[k:k + 1], weights=grid.weights[k:k + 1],
                          box=grid.box, orders=grid.orders)


def test_chunk_seams_do_not_change_densities(monkeypatch):
    """On grids of 2 CHUNK + 1 nodes (three chunks, the last of one node)
    every Euler and Phi density of the chunked path equals, bit for bit, the
    density of the same node evaluated alone."""
    scenario = load_catalog_scenario("hemisphere-tilted")
    patch, rim = scenario.patch, scenario.boundaries[0]
    grid = gauss_grid(patch.box, [2 * CHUNK + 1, 1])
    chunked = []
    density = integrate.euler_form_density
    monkeypatch.setattr(integrate, "euler_form_density",
                        lambda p, x: chunked.append(density(p, x)) or chunked[-1])
    integrate_euler(patch, grid)
    assert [len(d) for d in chunked] == [CHUNK, CHUNK, 1]
    alone = [density(patch, grid.nodes[k:k + 1]) for k in range(len(grid))]
    assert np.array_equal(np.concatenate(chunked), np.concatenate(alone))

    grid = gauss_grid(rim.box, [2 * CHUNK + 1])
    sections = (None, scenario.field_spec.components)
    rows = []
    integrate_phi_over_section(rim, sections, grid, collect=rows)
    for k, row in enumerate(rows):
        one = []
        integrate_phi_over_section(rim, sections, _one_node(grid, k), collect=one)
        assert one[0] == row


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
        u, theta, omega, curv, extras = pull.bind([[t]], boundary_frame(rim, [[t]]))
        assert abs(float(np.dot(u[0], u[0])) - 1.0) < 1e-12


def test_quadrature_convergence_on_doubling():
    rim = disk_rim()
    const = lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]]
    (v64,) = integrate_phi_over_section(rim, (const,), gauss_grid(rim.box, [64]))
    (v128,) = integrate_phi_over_section(rim, (const,), gauss_grid(rim.box, [128]))
    assert abs(v128 - v64) < 1e-8


def test_integral_is_parametrization_and_chart_invariant():
    # the induced orientation convention (outward-first, ambient chart twice)
    # makes the integral independent of the boundary parametrization and of
    # the ambient chart orientation -- as it must be, since it equals
    # chi - int Omega
    grid = gauss_grid([(0, 2 * math.pi)], [64])
    (forward,) = integrate_phi_over_section(disk_rim(), (None,), grid)
    (reparam,) = integrate_phi_over_section(disk_rim(reverse=True), (None,), grid)
    assert reparam == pytest.approx(forward, abs=1e-9)

    mirrored = RiemannianPatch(2, [(0, 2 * math.pi), (0, 1)],
                               lambda x: [[x[1] * x[1], 0], [0, 1]])
    rim = BoundaryPatch(mirrored, [(0, 2 * math.pi)],
                        embed=lambda t: [t[0], 1.0 + 0 * t[0]],
                        outward=lambda t: [0.0, 1.0])
    (swapped,) = integrate_phi_over_section(rim, (None,), grid)
    assert swapped == pytest.approx(forward, abs=1e-9)


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
        (base,) = integrate_phi_over_section(rim, (section,), grid)
        (rotated,) = integrate_phi_over_section(rim, (section,), grid,
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

    (base,) = integrate_phi_over_section(sph, (None,), grid)
    (rotated,) = integrate_phi_over_section(sph, (None,), grid, frame_twist=twist)
    assert abs(rotated - base) < 1e-8


# -- degree integrals -------------------------------------------------------------

def _circle_map(k):
    """t -> (cos kt, sin kt) with its t-derivatives, degree k, on node
    arrays t (N,)."""
    return lambda t: (np.stack([np.cos(k * t), np.sin(k * t)], axis=1),
                      np.stack([-k * np.sin(k * t), k * np.cos(k * t)], axis=1)[:, :, None])


def _sphere_map(k, sign=1.0):
    """(a, b) -> sign * (sin a cos kb, sin a sin kb, cos a) with gradients,
    degree sign * k, on node arrays (N, 2)."""
    def fn(nodes):
        a, b = nodes.T
        w = np.stack([np.sin(a) * np.cos(k * b), np.sin(a) * np.sin(k * b),
                      np.cos(a)], axis=1)
        dw = np.stack([np.stack([np.cos(a) * np.cos(k * b), -k * np.sin(a) * np.sin(k * b)], axis=1),
                       np.stack([np.cos(a) * np.sin(k * b), k * np.sin(a) * np.cos(k * b)], axis=1),
                       np.stack([-np.sin(a), 0.0 * a], axis=1)], axis=1)
        return sign * w, sign * dw
    return fn


def test_degree_circle_examples():
    assert degree_integral_circle(_circle_map(1)) == pytest.approx(1.0, abs=1e-12)
    assert degree_integral_circle(_circle_map(2)) == pytest.approx(2.0, abs=1e-12)


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
        degree_integral_circle(lambda t: (np.zeros((len(t), 2)), np.zeros((len(t), 2, 1))),
                               order=16)


def test_phi_template_is_cached_and_top_degree():
    tpl = phi_template(3)
    assert tpl.slots == 2
    assert phi_template(3) is tpl


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
    section, normal = integrate_phi_over_section(rim, (const, None), grid)
    lhs = section - normal

    pull = SectionPullback(const)
    angles = {}
    signs = {}
    for t in (a, b):
        u, _theta, _w, _W, extras = pull.bind([[t]], boundary_frame(rim, [[t]]))
        angles[t] = float(extras["angle"][0])
        signs[t] = math.copysign(1.0, u[0, 1])
    assert signs[a] == signs[b] == -1.0
    rhs = (signs[b] * gamma_coeff.to_float({1: angles[b]})
           - signs[a] * gamma_coeff.to_float({1: angles[a]}))
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert lhs == pytest.approx(-(b - a) / (2 * math.pi), abs=1e-9)
