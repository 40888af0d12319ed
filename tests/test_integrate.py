"""Quadrature and form-pullback integrals."""

import math

import numpy as np
import pytest

from lawcheck.chern import build_phi
from lawcheck.geometry import BoundaryPatch, RiemannianPatch, jet_cos, jet_sin
from lawcheck.integrate import (
    SectionPullback,
    c_volume,
    degree_integral_circle,
    degree_integral_sphere,
    fiber_grid,
    gauss_grid,
    grid_with_rings,
    integrate_euler,
    integrate_fiber_form,
    integrate_fiber_volume,
    integrate_phi_over_section,
    pairwise_sum,
    phi_template,
)


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
                         outward=lambda t, x: [1.0, 0.0])


def cap_patch(theta_max):
    return RiemannianPatch(2, [(0, theta_max), (0, 2 * math.pi)],
                           lambda x: [[1, 0],
                                      [0, jet_sin(x[0]) * jet_sin(x[0])]])


def cap_rim(theta_max):
    patch = cap_patch(theta_max)
    return BoundaryPatch(patch, [(0, 2 * math.pi)],
                         embed=lambda t: [theta_max + 0 * t[0], t[0]],
                         outward=lambda t, x: [1.0, 0.0])


# -- grids and summation ---------------------------------------------------------

def test_pairwise_sum_matches_fsum():
    vals = [((-1) ** k) / (k + 1.0) for k in range(1000)]
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), abs=1e-14)
    assert pairwise_sum([]) == 0.0


def test_grid_weights_positive_and_sum_to_volume():
    grid = gauss_grid([(0, 2), (-1, 3)], [12, 7])
    assert np.all(grid.weights > 0)
    assert grid.total_weight == pytest.approx(8.0, abs=1e-12)


def test_grid_polynomial_exactness():
    grid = gauss_grid([(0, 1)], [6])
    val = pairwise_sum(w * x ** 11 for (x,), w in zip(grid.nodes, grid.weights))
    assert val == pytest.approx(1 / 12, abs=1e-15)


def test_ring_grid_weights_and_smooth_correctness():
    center = (0.1, -0.2)
    half = 0.4 * 0.5 ** 6
    grid = grid_with_rings([(-1, 1), (-1, 1)], 16, center=center,
                           radius=0.4, levels=6)
    assert np.all(grid.weights > 0)
    assert grid.total_weight == pytest.approx(4.0 - (2 * half) ** 2, abs=1e-10)
    # smooth integrand: box integral minus the punctured center cell
    f = lambda x, y: math.cos(x) * math.exp(0.3 * y)
    ring_val = pairwise_sum(w * f(*xy) for xy, w in zip(grid.nodes, grid.weights))
    plain = gauss_grid([(-1, 1), (-1, 1)], 40)
    plain_val = pairwise_sum(w * f(*xy) for xy, w in zip(plain.nodes, plain.weights))
    hole = gauss_grid([(center[0] - half, center[0] + half),
                       (center[1] - half, center[1] + half)], 6)
    hole_val = pairwise_sum(w * f(*xy) for xy, w in zip(hole.nodes, hole.weights))
    assert ring_val == pytest.approx(plain_val - hole_val, abs=1e-9)


def test_ring_grid_handles_point_singularity_better():
    center = (0.0, 0.0)
    f = lambda x, y: ((x - center[0]) ** 2 + (y - center[1]) ** 2) ** -0.25
    box = [(-1, 1), (-1, 1)]
    reference = pairwise_sum(
        w * f(*xy) for xy, w in zip(
            grid_with_rings(box, 24, center, 0.5, levels=24, ring_order=16).nodes,
            grid_with_rings(box, 24, center, 0.5, levels=24, ring_order=16).weights))
    ring = grid_with_rings(box, 24, center, 0.5, levels=6, ring_order=16)
    ring_val = pairwise_sum(w * f(*xy) for xy, w in zip(ring.nodes, ring.weights))
    plain = gauss_grid(box, 48)
    plain_val = pairwise_sum(w * f(*xy) for xy, w in zip(plain.nodes, plain.weights))
    assert abs(ring_val - reference) < abs(plain_val - reference)


def test_ring_grid_requires_interior_center():
    with pytest.raises(ValueError):
        grid_with_rings([(0, 1)], 8, center=(2.0,), radius=0.1)


# -- sphere volumes ----------------------------------------------------------------

def test_c_volume_values():
    assert c_volume(1) == pytest.approx(2 * math.pi, abs=1e-14)
    assert c_volume(2) == pytest.approx(4 * math.pi, abs=1e-14)
    with pytest.raises(ValueError):
        c_volume(0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sphere_volume_reduction_identity(n):
    # c_{n-1} = c_{n-2} * integral of sin^(n-2) over [0, pi]
    grid = gauss_grid([(0.0, math.pi)], [40])
    integral = pairwise_sum(w * math.sin(x) ** (n - 2)
                            for (x,), w in zip(grid.nodes, grid.weights))
    assert c_volume(n - 1) == pytest.approx(c_volume(n - 2) * integral,
                                            abs=1e-10)


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
    assert integrate_phi_over_section(rim, None, grid) == \
        pytest.approx(1.0, abs=1e-6)


def test_disk_constant_field_section():
    rim = disk_rim()
    grid = gauss_grid(rim.box, [64])
    const = lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]]
    assert integrate_phi_over_section(rim, const, grid) == \
        pytest.approx(0.0, abs=1e-6)


def test_hemisphere_normal_section_and_euler():
    hemi = cap_patch(math.pi / 2)
    rim = cap_rim(math.pi / 2)
    assert integrate_euler(hemi, gauss_grid(hemi.box, 48)) == \
        pytest.approx(1.0, abs=1e-6)
    assert integrate_phi_over_section(rim, None, gauss_grid(rim.box, [64])) == \
        pytest.approx(0.0, abs=1e-6)


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
    normal = integrate_phi_over_section(rim, None, grid, collect=rows_n)
    section = integrate_phi_over_section(rim, field, grid, collect=rows_f)
    both = integrate_phi_over_section(rim, (None, field), grid, collect=rows)
    assert both == (normal, section)
    assert len(rows) == len(grid)
    for row, rn, rf in zip(rows, rows_n, rows_f):
        assert row["t"] == rn["t"] == rf["t"]
        assert row["weight"] == rn["weight"]
        for key in ("density", "angle", "v_dot_n"):
            assert row[key] == (rn[key], rf[key])


def test_section_norm_guard():
    rim = disk_rim()
    dying = lambda x: [jet_cos(x[1]) - jet_cos(x[1]), 0.0]
    with pytest.raises(ValueError):
        integrate_phi_over_section(rim, dying, gauss_grid(rim.box, [8]))


def test_section_unit_residual():
    rim = disk_rim()
    pull = SectionPullback(rim, lambda x: [jet_cos(x[1]),
                                           -1.0 * jet_sin(x[1]) / x[0]])
    for t in (0.3, 2.1, 5.5):
        u, theta, omega, curv, extras = pull.bind([t])
        assert extras["unit_residual"] < 1e-12
        assert abs(float(np.dot(u, u)) - 1.0) < 1e-12


def test_quadrature_convergence_on_doubling():
    rim = disk_rim()
    const = lambda x: [jet_cos(x[1]), -1.0 * jet_sin(x[1]) / x[0]]
    v64 = integrate_phi_over_section(rim, const, gauss_grid(rim.box, [64]))
    v128 = integrate_phi_over_section(rim, const, gauss_grid(rim.box, [128]))
    assert abs(v128 - v64) < 1e-8


def test_orientation_reversal_negates_integral():
    grid = gauss_grid([(0, 2 * math.pi)], [64])
    forward = integrate_phi_over_section(disk_rim(), None, grid)
    backward = integrate_phi_over_section(disk_rim(), None, grid,
                                          orientation=-1)
    assert forward == pytest.approx(1.0, abs=1e-9)
    assert backward == pytest.approx(-1.0, abs=1e-9)


def test_integral_is_parametrization_and_chart_invariant():
    # the induced orientation convention (outward-first, ambient chart twice)
    # makes the integral independent of the boundary parametrization and of
    # the ambient chart orientation -- as it must be, since it equals
    # chi - int Omega
    grid = gauss_grid([(0, 2 * math.pi)], [64])
    forward = integrate_phi_over_section(disk_rim(), None, grid)
    reparam = integrate_phi_over_section(disk_rim(reverse=True), None, grid)
    assert reparam == pytest.approx(forward, abs=1e-9)

    mirrored = RiemannianPatch(2, [(0, 2 * math.pi), (0, 1)],
                               lambda x: [[x[1] * x[1], 0], [0, 1]])
    rim = BoundaryPatch(mirrored, [(0, 2 * math.pi)],
                        embed=lambda t: [t[0], 1.0 + 0 * t[0]],
                        outward=lambda t, x: [0.0, 1.0])
    swapped = integrate_phi_over_section(rim, None, grid)
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
        base = integrate_phi_over_section(rim, section, grid)
        rotated = integrate_phi_over_section(rim, section, grid,
                                             frame_twist=twist)
        assert abs(rotated - base) < 1e-8


def test_frame_rotation_invariance_n3():
    ball = RiemannianPatch(3, [(0, 1), (0, math.pi), (0, 2 * math.pi)],
                           lambda x: [[1, 0, 0], [0, x[0] * x[0], 0],
                                      [0, 0, x[0] * x[0] * jet_sin(x[1]) * jet_sin(x[1])]])
    sph = BoundaryPatch(ball, [(0, math.pi), (0, 2 * math.pi)],
                        embed=lambda t: [1.0 + 0 * t[0], t[0], t[1]],
                        outward=lambda t, x: [1.0, 0.0, 0.0])
    grid = gauss_grid(sph.box, [20, 20])

    def twist(t_jets):
        gamma = t_jets[0].cos() * 0.5 + t_jets[1].sin() * 0.3
        c, s = gamma.cos(), gamma.sin()
        one = t_jets[0] * 0.0 + 1.0
        zero = t_jets[0] * 0.0
        return [[one, zero, zero], [zero, c, -1.0 * s], [zero, s, c]]

    base = integrate_phi_over_section(sph, None, grid)
    rotated = integrate_phi_over_section(sph, None, grid, frame_twist=twist)
    assert abs(rotated - base) < 1e-8


# -- degree integrals -------------------------------------------------------------

def test_degree_circle_examples():
    assert degree_integral_circle(
        lambda t: [t.cos(), t.sin()]) == pytest.approx(1.0, abs=1e-12)
    two = lambda t: [(t * 2.0).cos(), (t * 2.0).sin()]
    assert degree_integral_circle(two) == pytest.approx(2.0, abs=1e-12)


def test_degree_sphere_examples():
    ident = lambda ab: [ab[0].sin() * ab[1].cos(), ab[0].sin() * ab[1].sin(),
                        ab[0].cos()]
    assert degree_integral_sphere(ident, order=24) == pytest.approx(1.0, abs=1e-9)
    anti = lambda ab: [-1.0 * c for c in ident(ab)]
    assert degree_integral_sphere(anti, order=24) == pytest.approx(-1.0, abs=1e-9)


def test_degree_vanishing_map_raises():
    with pytest.raises(ValueError):
        degree_integral_circle(lambda t: [t * 0.0, t * 0.0], order=16)


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
    lhs = (integrate_phi_over_section(rim, const, grid)
           - integrate_phi_over_section(rim, None, grid))

    pull = SectionPullback(rim, const)
    angles = {}
    signs = {}
    for t in (a, b):
        u, _theta, _w, _W, extras = pull.bind([t])
        angles[t] = extras["angle"]
        signs[t] = math.copysign(1.0, u[1])
    assert signs[a] == signs[b] == -1.0
    rhs = (signs[b] * gamma_coeff.to_float({1: angles[b]})
           - signs[a] * gamma_coeff.to_float({1: angles[a]}))
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert lhs == pytest.approx(-(b - a) / (2 * math.pi), abs=1e-9)
