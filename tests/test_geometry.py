"""Numeric geometry: jets, frames, connection, curvature, Euler density."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from lawcheck.geometry import (
    BoundaryPatch,
    ConfigError,
    Jet,
    RiemannianPatch,
    _frame_connection,
    _GeometryCore,
    boundary_frame,
    connection_curvature,
    euler_form_density,
    jet_cos,
    jet_sin,
)


# -- fixtures ----------------------------------------------------------------

def flat_patch(n=2):
    return RiemannianPatch(n, [(-1, 1)] * n,
                           lambda x: [[float(i == j) for j in range(n)]
                                      for i in range(n)])


def sphere_patch():
    return RiemannianPatch(2, [(0.01, math.pi - 0.01), (0.0, 2 * math.pi)],
                           lambda x: [[1, 0], [0, jet_sin(x[0]) * jet_sin(x[0])]])


def bumpy_patch(seed=0):
    """Analytic perturbation of the flat metric, SPD on the box."""
    rng = random.Random(seed)
    a, b, c = (rng.uniform(-0.2, 0.2) for _ in range(3))

    def metric(x):
        f = a * jet_sin(x[0]) * jet_cos(x[1])
        g = b * jet_cos(x[0] * x[1])
        h = c * jet_sin(x[0] + x[1])
        return [[1.0 + f * f + 0.3 * g, 0.2 * h], [0.2 * h, 1.0 + 0.25 * g * g - 0.1 * g]]

    return RiemannianPatch(2, [(-1, 1), (-1, 1)], metric)


# -- jets --------------------------------------------------------------------

def test_jet_arithmetic_against_finite_differences():
    def fn(x, y):
        return (x * y + x.sin() * y.exp()) / (1.0 + x * x)

    x0, y0 = 0.7, -0.3
    jx, jy = Jet.variables([x0, y0])
    jet = fn(jx, jy)

    def scalar(x, y):
        return (x * y + math.sin(x) * math.exp(y)) / (1 + x * x)

    h = 1e-5
    gx = (scalar(x0 + h, y0) - scalar(x0 - h, y0)) / (2 * h)
    gy = (scalar(x0, y0 + h) - scalar(x0, y0 - h)) / (2 * h)
    hxx = (scalar(x0 + h, y0) - 2 * scalar(x0, y0) + scalar(x0 - h, y0)) / h ** 2
    hxy = (scalar(x0 + h, y0 + h) - scalar(x0 + h, y0 - h)
           - scalar(x0 - h, y0 + h) + scalar(x0 - h, y0 - h)) / (4 * h ** 2)
    assert jet.v == pytest.approx(scalar(x0, y0), abs=1e-14)
    assert jet.g[0] == pytest.approx(gx, abs=1e-8)
    assert jet.g[1] == pytest.approx(gy, abs=1e-8)
    assert jet.h[0][0] == pytest.approx(hxx, abs=1e-5)
    assert jet.h[0][1] == pytest.approx(hxy, abs=1e-5)
    assert jet.h[0][1] == pytest.approx(jet.h[1][0], abs=1e-12)


def test_jet_powers():
    (x,) = Jet.variables([1.5])
    p = x ** 3
    assert p.v == pytest.approx(3.375)
    assert p.g[0] == pytest.approx(3 * 1.5 ** 2)
    assert p.h[0][0] == pytest.approx(6 * 1.5)
    inv = x ** -1
    assert inv.v == pytest.approx(1 / 1.5)


# -- frames ------------------------------------------------------------------

def test_frame_euclidean_identity():
    fd = connection_curvature(flat_patch(), [0.2, 0.4])
    assert np.allclose(fd.frame, np.eye(2))


def test_frame_diagonal_rescaling():
    patch = RiemannianPatch(2, [(-1, 1), (-1, 1)], lambda x: [[4, 0], [0, 1]])
    fd = connection_curvature(patch, [0, 0])
    assert np.allclose(fd.frame, [[0.5, 0], [0, 1]])


def test_frame_round_sphere():
    fd = connection_curvature(sphere_patch(), [0.8, 1.1])
    # direct normalization oracle: (d_theta, d_psi / sin theta)
    assert np.allclose(fd.frame, [[1, 0], [0, 1 / math.sin(0.8)]])


@pytest.mark.parametrize("point", [[0.3, 0.9], [1.4, 3.0], [2.0, 5.5]])
def test_frame_orthonormality_residual(point):
    fd = connection_curvature(sphere_patch(), point)
    assert fd.orthonormality_residual < 1e-12


def test_frame_rejects_degenerate_metric():
    bad = RiemannianPatch(2, [(-1, 1), (-1, 1)], lambda x: [[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        _GeometryCore(bad, [[0, 0]])
    with pytest.raises(ValueError):
        connection_curvature(bad, [0, 0])



def test_metric_symmetry_allows_round_off_only():
    """Entries written differently may differ by round-off; a larger
    asymmetry, which Cholesky would not see, names its first chart point."""
    x = np.array([[0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    written = lambda d: RiemannianPatch(
        2, [(0, 1), (0, 1)], lambda y: [[1 + y[0] * y[1], y[0] * y[1] * 0.1],
                                        [0.1 * y[1] * y[0] + d * y[0], 2.0 + 0 * y[0]]])
    assert _GeometryCore(written(0.0), x).G.shape == (3, 2, 2)
    assert written(0.0).metric_values(x).shape == (3, 2, 2)
    for make in (lambda p: _GeometryCore(p, x), lambda p: p.metric_values(x)):
        with pytest.raises(ConfigError, match=r"not symmetric at chart point \[0\.3, 0\.4\]"):
            make(written(1e-3))

def test_frame_orientation_positive():
    for patch in (flat_patch(), sphere_patch(), bumpy_patch(3)):
        pt = [0.5, 0.7]
        fd = connection_curvature(patch, pt)
        assert np.linalg.det(fd.frame) > 0


# -- connection and curvature ---------------------------------------------------

def test_flat_connection_and_curvature_vanish():
    fd = connection_curvature(flat_patch(), [0.1, -0.7])
    assert np.max(np.abs(fd.omega)) == 0.0
    assert np.max(np.abs(fd.curvature)) == 0.0
    assert euler_form_density(flat_patch(), [[0.1, -0.7]]).tolist() == [0.0]


def _fd_christoffels(patch, x, h=1e-4):
    """Independent finite-difference oracle for the Christoffel symbols."""
    n = patch.n
    x = np.asarray(x, dtype=float)
    dG = np.zeros((n, n, n))
    for l in range(n):
        xp, xm = x.copy(), x.copy()
        xp[l] += h
        xm[l] -= h
        dG[:, :, l] = (patch.metric_values([xp])[0] - patch.metric_values([xm])[0]) / (2 * h)
    Ginv = np.linalg.inv(patch.metric_values([x])[0])
    Gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                Gamma[k, i, j] = 0.5 * sum(
                    Ginv[k, l] * (dG[j, l, i] + dG[i, l, j] - dG[i, j, l])
                    for l in range(n))
    return Gamma


def _fd_riemann(patch, x, h=1e-4):
    """Curvature oracle: difference the finite-difference Christoffels."""
    n = patch.n
    x = np.asarray(x, dtype=float)
    G = patch.metric_values([x])[0]
    Gamma = _fd_christoffels(patch, x)
    dGamma = np.zeros((n, n, n, n))
    for l in range(n):
        xp, xm = x.copy(), x.copy()
        xp[l] += h
        xm[l] -= h
        dGamma[:, :, :, l] = (_fd_christoffels(patch, xp)
                              - _fd_christoffels(patch, xm)) / (2 * h)
    Rup = np.zeros((n, n, n, n))
    for p in range(n):
        for i in range(n):
            for j in range(n):
                for mm in range(n):
                    Rup[p, i, j, mm] = (dGamma[p, j, mm, i] - dGamma[p, i, mm, j]
                                        + sum(Gamma[p, i, q] * Gamma[q, j, mm]
                                              - Gamma[p, j, q] * Gamma[q, i, mm]
                                              for q in range(n)))
    return np.einsum("pq,qijm->ijmp", G, Rup)


@pytest.mark.parametrize("point", [[0.6, 0.5], [1.1, 2.0], [1.9, 4.2],
                                   [2.4, 1.0], [0.9, 5.9]])
def test_sphere_curvature_against_fd_oracle(point):
    patch = sphere_patch()
    fd = connection_curvature(patch, point)
    e1, e2 = fd.frame
    value = float(np.einsum("i,j,ij->", e1, e2, fd.curvature[0, 1]))
    # def-O conventions give -K on the orthonormal bivector for the unit sphere
    assert value == pytest.approx(-1.0, abs=1e-6)
    oracle = _fd_riemann(patch, point)
    oracle_value = float(np.einsum("i,j,m,p,ijmp->", e1, e2, e1, e2, oracle))
    assert value == pytest.approx(oracle_value, abs=5e-4)


def test_christoffels_match_fd_on_random_metric():
    patch = bumpy_patch(11)
    for pt in ([0.2, 0.3], [-0.5, 0.6]):
        Gamma = _GeometryCore(patch, [pt]).Gamma[0]
        assert np.max(np.abs(Gamma - _fd_christoffels(patch, pt))) < 1e-7


def test_omega_antisymmetry_and_curvature_antisymmetry():
    patch = bumpy_patch(5)
    fd = connection_curvature(patch, [0.4, -0.2])
    assert np.max(np.abs(fd.omega + fd.omega.transpose(1, 0, 2))) < 1e-15
    assert np.max(np.abs(fd.curvature + fd.curvature.transpose(1, 0, 2, 3))) < 1e-10
    assert np.max(np.abs(fd.curvature + fd.curvature.transpose(0, 1, 3, 2))) < 1e-10


def test_structure_equation_residual_central_differences():
    """d omega - omega wedge omega must reproduce the curvature values."""
    patch = bumpy_patch(7)
    x = np.array([0.25, -0.4])
    h = 1e-3

    def omega_field(pt):
        return connection_curvature(patch, pt).omega

    domega = np.zeros((2, 2, 2, 2))  # [A,B,i,j] = d_i omega_AB(d_j)
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        domega[:, :, i, :] = (omega_field(xp) - omega_field(xm)) / (2 * h)
    fd = connection_curvature(patch, x)
    n = 2
    for A in range(n):
        for B in range(n):
            lhs = domega[A, B, 0, 1] - domega[A, B, 1, 0]
            wedge = sum(fd.omega[A, C, 0] * fd.omega[C, B, 1]
                        - fd.omega[A, C, 1] * fd.omega[C, B, 0] for C in range(n))
            assert abs(lhs - wedge - fd.curvature[A, B, 0, 1]) < 1e-5


def test_second_bianchi_numeric_spot_check():
    """Cyclic derivative of the curvature matches the symbolic rewrite rule."""
    patch = RiemannianPatch(3, [(-1, 1)] * 3, lambda x: [
        [1.0 + 0.1 * jet_sin(x[1]) * jet_sin(x[1]), 0.05 * jet_sin(x[2]), 0.0],
        [0.05 * jet_sin(x[2]), 1.0 + 0.1 * jet_cos(x[0]) * jet_cos(x[0]), 0.0],
        [0.0, 0.0, 1.0 + 0.05 * jet_sin(x[0] + x[1])],
    ])
    x = np.array([0.2, -0.3, 0.5])
    h = 1e-3
    n = 3

    def curv_field(pt):
        return connection_curvature(patch, pt).curvature

    dcurv = np.zeros((n, n, n, n, n))  # [A,B,k,i,j] = d_k curv[A,B,i,j]
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        dcurv[:, :, k] = (curv_field(xp) - curv_field(xm)) / (2 * h)
    fd = connection_curvature(patch, x)
    dirs = [(0, 1, 2)]
    for (i, j, k) in dirs:
        for A in range(n):
            for B in range(n):
                lhs = (dcurv[A, B, i, j, k] - dcurv[A, B, j, i, k]
                       + dcurv[A, B, k, i, j])
                rhs = 0.0
                for C in range(n):
                    # (omega_AC ^ Omega_CB - Omega_AC ^ omega_CB)(d_i,d_j,d_k)
                    for (p, q, r, s) in (((i, j, k, 1)), ((j, k, i, 1)), ((k, i, j, 1))):
                        rhs += (fd.omega[A, C, p] * fd.curvature[C, B, q, r]
                                - fd.curvature[A, C, q, r] * fd.omega[C, B, p])
                assert abs(lhs - rhs) < 1e-4


def test_riemann_symmetries_random_metric():
    patch = bumpy_patch(23)
    R = _GeometryCore(patch, [[0.1, 0.2]]).riemann[0]
    assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) < 1e-12
    assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) < 1e-12
    assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) < 1e-12


def wavy_patch(n, seed):
    """Analytic perturbation of the flat n-metric, SPD on the box: diagonal
    entries within 0.2 of 1, off-diagonal ones within 0.1 of 0."""
    rng = random.Random(seed)
    terms = {(i, j): (rng.uniform(-0.2, 0.2) if i == j else rng.uniform(-0.1, 0.1),
                      rng.randrange(n), rng.randrange(n))
             for i in range(n) for j in range(i, n)}

    def metric(x):
        def entry(i, j):
            a, k, l = terms[min(i, j), max(i, j)]
            return float(i == j) + a * jet_sin(x[k] + 0.3) * jet_cos(x[l] * x[k])
        return [[entry(i, j) for j in range(n)] for i in range(n)]

    return RiemannianPatch(n, [(-1, 1)] * n, metric)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contractions_match_einsum_transcription(n):
    """Christoffels, Riemann tensor, connection and curvature of a batch of
    nodes equal an einsum transcription of their index formulas, for a
    non-orthonormal frame with non-zero derivatives along a non-square map."""
    rng = np.random.default_rng(n)
    points = rng.uniform(-0.9, 0.9, size=(5, n))
    patch = wavy_patch(n, seed=n)
    core = _GeometryCore(patch, points)
    G, dG, d2G = patch.metric_jets(points)
    low = 0.5 * (np.einsum("...jli->...lij", dG) + np.einsum("...ilj->...lij", dG)
                 - np.einsum("...ijl->...lij", dG))
    Gamma = np.einsum("...kl,...lij->...kij", np.linalg.inv(G), low)
    quadratic = (np.einsum("...qjp,...qim->...ijmp", low, Gamma)
                 - np.einsum("...qip,...qjm->...ijmp", low, Gamma))
    R = quadratic + 0.5 * (np.einsum("...pjmi->...ijmp", d2G) - np.einsum("...jmpi->...ijmp", d2G)
                           - np.einsum("...pimj->...ijmp", d2G)
                           + np.einsum("...impj->...ijmp", d2G))
    assert np.max(np.abs(quadratic)) > 1e-3
    assert np.max(np.abs(core.Gamma - Gamma)) < 1e-13
    assert np.max(np.abs(core.riemann - R)) < 1e-13

    m = n + 1  # a map with m = 1 would have no curvature to compare
    E = np.eye(n) + 0.3 * rng.standard_normal((5, n, n))
    dE = rng.standard_normal((5, n, n, m))
    dx = rng.standard_normal((5, n, m))
    omega, curv = _frame_connection(core, E, dE, dx)
    nabla = (np.einsum("...Aki->...Aik", dE)
             + np.einsum("...klm,...li,...Am->...Aik", Gamma, dx, E))
    want = np.einsum("...Aik,...kl,...Bl->...ABi", nabla, G, E)
    want = 0.5 * (want - want.swapaxes(-3, -2))
    assert np.max(np.abs(omega - want)) < 1e-13
    want = np.einsum("...lrmp,...Am,...Bp,...li,...rj->...ABij", R, E, E, dx, dx)
    assert np.max(np.abs(want)) > 1e-3
    assert np.max(np.abs(curv - want)) < 1e-13


# -- Euler density ----------------------------------------------------------------

def test_euler_density_odd_dimension_zero():
    patch = RiemannianPatch(3, [(-1, 1)] * 3,
                            lambda x: [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert euler_form_density(patch, [[0.1, 0.2, 0.3]]).tolist() == [0.0]


@pytest.mark.parametrize("point", [[0.2, 0.3], [0.7, -0.8], [0.9, 0.9]])
def test_euler_density_matches_fd_gauss_curvature(point):
    """Omega = K sqrt(det g) / (2 pi), K from the finite-difference oracle."""
    patch = bumpy_patch(17)
    G = patch.metric_values([point])[0]
    det = float(np.linalg.det(G))
    K = -_fd_riemann(patch, point)[0, 1, 0, 1] / det
    oracle = K * math.sqrt(det) / (2 * math.pi)
    assert abs(oracle) > 1e-3
    assert euler_form_density(patch, [point])[0] == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("point", [[0.4, 1.0, 2.2, 3.0], [1.3, 5.0, 0.7, 0.2]])
def test_euler_density_product_of_spheres(point):
    """On S^2 x S^2 the n = 4 Pfaffian (three terms) gives
    sin(theta_1) sin(theta_3) / (2 pi)^2, which integrates to chi = 4."""
    patch = RiemannianPatch(4, [(0.01, math.pi - 0.01), (0.0, 2 * math.pi)] * 2,
                            lambda x: [[1, 0, 0, 0],
                                       [0, jet_sin(x[0]) * jet_sin(x[0]), 0, 0],
                                       [0, 0, 1, 0],
                                       [0, 0, 0, jet_sin(x[2]) * jet_sin(x[2])]])
    oracle = math.sin(point[0]) * math.sin(point[2]) / (2 * math.pi) ** 2
    assert euler_form_density(patch, [point])[0] == pytest.approx(oracle, abs=1e-14)


def test_euler_density_sphere_formula():
    patch = sphere_patch()
    for pt in ([0.7, 0.3], [1.9, 2.2]):
        assert euler_form_density(patch, [pt])[0] == \
            pytest.approx(math.sin(pt[0]) / (2 * math.pi), abs=1e-12)


# -- boundary frames ----------------------------------------------------------------

def disk_boundary():
    disk = RiemannianPatch(2, [(0, 1), (0, 2 * math.pi)],
                           lambda x: [[1, 0], [0, x[0] * x[0]]],
                           chart_map=lambda x: [x[0] * jet_cos(x[1]),
                                                x[0] * jet_sin(x[1])])
    return BoundaryPatch(disk, [(0, 2 * math.pi)],
                         embed=lambda t: [1.0 + 0 * t[0], t[0]],
                         outward=lambda t: [1.0, 0.0])


def frame_at(bpatch, t, frame_twist=None):
    """The boundary frame at one node t, with the node axis dropped."""
    bf = boundary_frame(bpatch, [t], frame_twist)
    return SimpleNamespace(**{key: value[0] for key, value in vars(bf).items()
                              if key != "x_jets"})


def test_boundary_frame_outward_normal_first():
    bf = frame_at(disk_boundary(), [1.2])
    assert np.allclose(bf.frame[0], [1.0, 0.0])
    assert abs(bf.frame @ bf.metric @ bf.frame.T - np.eye(2)).max() < 1e-12
    assert bf.orientation == 1.0
    # geodesic curvature of the unit circle in the adapted frame
    assert bf.omega[0, 1, 0] == pytest.approx(1.0, abs=1e-12)


def test_boundary_frame_normal_is_unit_and_orthogonal():
    ball = RiemannianPatch(3, [(0, 1), (0, math.pi), (0, 2 * math.pi)],
                           lambda x: [[1, 0, 0], [0, x[0] * x[0], 0],
                                      [0, 0, x[0] * x[0] * jet_sin(x[1]) * jet_sin(x[1])]])
    sph = BoundaryPatch(ball, [(0, math.pi), (0, 2 * math.pi)],
                        embed=lambda t: [1.0 + 0 * t[0], t[0], t[1]],
                        outward=lambda t: [1.0, 0.0, 0.0])
    bf = frame_at(sph, [1.1, 0.7])
    G = bf.metric
    assert bf.frame[0] @ G @ bf.frame[0] == pytest.approx(1.0, abs=1e-12)
    for s in (1, 2):
        assert bf.frame[0] @ G @ bf.frame[s] == pytest.approx(0.0, abs=1e-12)


# wavy rims, so that the frame and the metric really vary along the boundary

def wavy_disk_rim():
    disk = RiemannianPatch(2, [(0, 1.5), (0, 2 * math.pi)],
                           lambda x: [[1, 0], [0, x[0] * x[0]]])
    return BoundaryPatch(disk, [(0, 2 * math.pi)],
                         embed=lambda t: [1.0 + 0.2 * jet_cos(t[0]), t[0]],
                         outward=lambda t: [1.0, 0.0])


def wavy_cap_rim():
    cap = RiemannianPatch(2, [(0, 1.5), (0, 2 * math.pi)],
                          lambda x: [[1, 0], [0, jet_sin(x[0]) * jet_sin(x[0])]])
    return BoundaryPatch(cap, [(0, 2 * math.pi)],
                         embed=lambda t: [1.0 + 0.1 * jet_sin(t[0] * 2.0), t[0]],
                         outward=lambda t: [1.0, 0.1 * jet_cos(t[0])])


def wavy_ball3_sphere():
    ball = RiemannianPatch(3, [(0, 1.5), (0, math.pi), (0, 2 * math.pi)],
                           lambda x: [[1, 0, 0], [0, x[0] * x[0], 0],
                                      [0, 0, x[0] * x[0] * jet_sin(x[1]) * jet_sin(x[1])]])
    return BoundaryPatch(ball, [(0, math.pi), (0, 2 * math.pi)],
                         embed=lambda t: [1.0 + 0.1 * jet_sin(t[0]) * jet_cos(t[1]),
                                          t[0], t[1]],
                         outward=lambda t: [1.0, 0.0, 0.0])


def sphere_twist(t_jets):
    gamma = t_jets[0].cos() * 0.5 + t_jets[1].sin() * 0.3
    c, s = gamma.cos(), gamma.sin()
    return [[1.0, 0.0, 0.0], [0.0, c, -1.0 * s], [0.0, s, c]]


@pytest.mark.parametrize("oriented", [True, False])
@pytest.mark.parametrize("rim, t, twist", [
    (wavy_disk_rim, [1.2], None),
    (wavy_disk_rim, [4.0], None),
    (wavy_cap_rim, [2.5], None),
    (wavy_ball3_sphere, [1.1, 0.7], None),
    (wavy_ball3_sphere, [1.1, 0.7], sphere_twist),
], ids=["disk", "disk-back", "cap", "ball3", "ball3-twisted"])
def test_boundary_frame_derivatives_match_central_differences(rim, t, twist,
                                                              oriented):
    """With ``oriented`` False the last frame vector is multiplied by the
    orientation, giving the parameter-aligned frame the tangential indices
    read (see ``fields._field_frame_components``)."""
    def frame(tt):
        bf = frame_at(bpatch, tt, frame_twist=twist)
        if not oriented:
            bf.frame[-1] *= bf.orientation
            bf.dframe[-1] *= bf.orientation
        return bf

    bpatch = rim()
    bf = frame(t)
    assert abs(bf.frame @ bf.metric @ bf.frame.T - np.eye(len(t) + 1)).max() < 1e-12
    h = 1e-5
    for i in range(bpatch.m):
        step = h * np.eye(bpatch.m)[i]
        plus = frame(t + step)
        minus = frame(t - step)
        for name in ("frame", "metric", "normal"):
            fd = (getattr(plus, name) - getattr(minus, name)) / (2 * h)
            exact = getattr(bf, "d" + name)[..., i]
            assert np.max(np.abs(fd - exact)) <= 1e-6, name
    assert np.max(np.abs(bf.dframe)) > 0.01
    assert np.max(np.abs(bf.dmetric)) > 0.01


def test_boundary_frame_twist_rotates_frame_but_not_normal():
    bpatch = wavy_ball3_sphere()
    plain = frame_at(bpatch, [1.1, 0.7])
    twisted = frame_at(bpatch, [1.1, 0.7], frame_twist=sphere_twist)
    assert np.array_equal(twisted.normal, plain.normal)
    assert twisted.orientation == plain.orientation
    assert abs(twisted.frame @ twisted.metric @ twisted.frame.T
               - np.eye(3)).max() < 1e-12
    assert np.max(np.abs(twisted.frame[1:] - plain.frame[1:])) > 0.1
