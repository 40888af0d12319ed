"""Numeric geometry: jets, frames, connection, curvature, Euler density."""

import math
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lawcheck import geometry
from lawcheck.expressions import compile_matrix, compile_vector
from lawcheck.geometry import (
    BoundaryPatch,
    ConfigError,
    Jet,
    RiemannianPatch,
    _cholesky_inverse,
    _frame_connection,
    _frame_curvature,
    _orthonormal_rows,
    boundary_frame,
    christoffel_symbols,
    euler_form_density,
    jet_cos,
    jet_exp,
    jet_sin,
    node_first,
    pair_curvature,
    stack_jets,
)
from lawcheck.integrate import SectionPullback, gauss_grid, integrate_phi_over_section
from lawcheck.scenarios import catalog_names, load_catalog_scenario, load_scenario
from lawcheck.templates import pairs

from test_integrate import disk_rim


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


def entries(array):
    """The node-last map {index: (N,)} of every entry of a node-first array
    (N, ...): a dense input for the node-last frame functions."""
    return {index: np.ascontiguousarray(array[(slice(None), *index)])
            for index in np.ndindex(array.shape[1:])}


def pair_core(patch, points):
    """Christoffel symbols Gamma[:, k, i, j] = Gamma^k_ij and the lowered
    Riemann tensor riemann[:, i, j, m, p], unpacked from the pair curvature,
    at ``points``: the layout of ``reference_core``."""
    _, dG, hess, Linv, _ = patch.metric_jets(points)
    low, Gamma = christoffel_symbols(dG, Linv)
    N, n = len(points), patch.n
    R = np.moveaxis(pair_curvature(low, Gamma, hess, n, N), -1, 0)
    return SimpleNamespace(Gamma=node_first(Gamma, (N, n, n, n)).transpose(0, 3, 1, 2),
                           riemann=unpack_pairs(R, n, n))


def dense_hessians(hess, N, n):
    """The whole d2G[:, i, j, k, l] = d_i d_j g_kl, node first, from the
    Hessians of ``metric_jets``: zero where they have none."""
    return node_first(hess, (N, n, n, n, n))


def reference_core(jets, N):
    """Reference for the pair curvature: Christoffel symbols
    Gamma[:, k, i, j] and the whole lowered Riemann tensor R[:, i, j, m, p],
    n^4 entries per node, built by stacked matmuls and two antisymmetrization
    passes over all index pairs, from ``RiemannianPatch.metric_jets`` at N
    nodes with every entry of dG and L^-1 filled in."""
    G, dG, hess, Linv, _ = jets
    n = 1 + max(k for k, _ in G)
    dG, Linv = node_first(dG, (N, n, n, n)), node_first(Linv, (N, n, n))
    d2G = dense_hessians(hess, N, n)  # d2G[:, i, j, k, l] = d_i d_j g_kl
    # first kind, lowered index last: low[i,j,l] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    low = 0.5 * (dG + dG.swapaxes(1, 2) - dG.transpose(0, 2, 3, 1)).reshape(N, n * n, n)
    Gamma = low @ (np.ascontiguousarray(Linv.swapaxes(-1, -2)) @ Linv)
    # K[i,m,j,p] = R[i,j,m,p] = Alt_ij (Alt_mp d2G / 2 + P), P[im,jp] = Gamma[im,q] low[jp,q]
    U = (Gamma @ np.ascontiguousarray(low.swapaxes(-1, -2))).reshape(d2G.shape) + d2G
    U = (U - U.swapaxes(2, 4)).reshape(N, n * n, n * n)
    K = (0.5 * (U + U.swapaxes(1, 2))).reshape(d2G.shape)
    return SimpleNamespace(Gamma=Gamma.reshape(N, n, n, n).transpose(0, 3, 1, 2),
                           riemann=K.swapaxes(2, 3))


def reference_frame_curvature(riemann, E, dx):
    """Reference for ``_frame_curvature``: curv[:, A, B, i, j] = e_A^q e_B^p
    R[l,r,q,p] dx^l_i dx^r_j as one n^2 x n^2 sandwich per node,
    curv[Ai,Bj] = F[Ai,lq] K[lq,rp] F[Bj,rp] with F = E (x) dx, K[l,q,r,p] = R[l,r,q,p]."""
    N, m, n = dx.shape
    F = (E[:, :, None, None, :] * dx[:, None, :, :, None]).reshape(N, n * m, n * n)
    K = np.ascontiguousarray(riemann.swapaxes(2, 3)).reshape(N, n * n, n * n)
    curv = F @ K @ np.ascontiguousarray(F.swapaxes(-1, -2))
    return curv.reshape(N, n, m, n, m).transpose(0, 1, 3, 2, 4)


def connection_curvature(patch, point):
    """Frame, metric, connection values and curvature values at one chart
    point, by the formula the boundary frames use: the frame is Gram-Schmidt
    on the coordinate basis, omega[A,B,i] its connection form on the i-th
    coordinate direction and curvature[A,B,i,j] the curvature form on the
    coordinate bivector (i, j)."""
    n = patch.n
    G, dG, hess, Linv, _ = patch.metric_jets([point])
    low, Gamma = christoffel_symbols(dG, Linv)
    eye = {(k, k): 1.0 for k in range(n)}
    E, dE = _orthonormal_rows(G, dG, eye, {}, [point], n)
    omega = _frame_connection(G, Gamma, E, dE, eye, n)
    P = n * (n - 1) // 2
    curv = _frame_curvature(pair_curvature(low, Gamma, hess, n, 1), E, eye, n)
    return SimpleNamespace(frame=node_first(E, (1, n, n))[0], metric=node_first(G, (1, n, n))[0],
                           omega=node_first(omega, (1, n, n, n))[0],
                           curvature=unpack_pairs(node_first(curv, (1, P, P)), n, n)[0])


# -- jets --------------------------------------------------------------------

JET_CASES = [  # (jet function, float function): together + - * / ** (k < 0) sin cos exp
    (lambda x, y: (x * y + x.sin() * y.exp()) / (1.0 + x * x),
     lambda x, y: (x * y + math.sin(x) * math.exp(y)) / (1 + x * x)),
    (lambda x, y: 2.0 - x.cos() * y ** 3 - y / 3.0 + 1.0 / (x - y),
     lambda x, y: 2.0 - math.cos(x) * y ** 3 - y / 3.0 + 1.0 / (x - y)),
    (lambda x, y: (x ** -2 - y) * -x + (1.5 + y) ** -1,
     lambda x, y: (x ** -2 - y) * -x + (1.5 + y) ** -1),
]


def test_jet_arithmetic_against_finite_differences():
    """Second-order jets match central differences; first-order jets carry
    no Hessians, and their values and gradients equal the second-order ones
    bit for bit."""
    x0, y0 = 0.7, -0.3
    h = 1e-5
    nodes = np.array([[x0, y0]])
    for fn, scalar in JET_CASES:
        jet = fn(*Jet.variables([x0, y0], 2))
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

        first = fn(*Jet.variables([x0, y0], 1))
        assert first.h is None
        assert first.v.tobytes() == jet.v.tobytes()
        assert first.g.tobytes() == jet.g.tobytes()
        with pytest.raises(ValueError, match="first-order jet"):
            stack_jets([first], nodes, 2)


def test_jet_powers(monkeypatch):
    """x^k has value x^k, gradient k x^(k-1) and Hessian k(k-1) x^(k-2)
    along x and none along y, at first and second order, from at most one
    Jet product whatever k (the reciprocal's, for k < 0); x^0 is the number
    1 and x^1 is x itself."""
    products = []
    monkeypatch.setattr(Jet, "__mul__", lambda a, b, mul=Jet.__mul__:
                        products.append(1) or mul(a, b))
    for k in (-3, -1, 0, 1, 2, 7, 10 ** 5):
        base = [0.99999, 1.000004, 1.00001] if k == 10 ** 5 else [0.7, 1.3, -1.6]
        nodes = np.array([[b, 0.25] for b in base])
        products.clear()
        for order in (1, 2):
            x, _ = Jet.variables(nodes, order)
            p = x ** k
            if k in (0, 1):
                assert p is x if k else (p == 1.0 and type(p) is float)
                continue
            want = np.array([[math.pow(b, k) for b in base],
                             [k * math.pow(b, k - 1) for b in base],
                             [k * (k - 1) * math.pow(b, k - 2) for b in base]])
            np.testing.assert_allclose(p.v, want[0], rtol=1e-13)
            np.testing.assert_allclose(p.g, [want[1], [0.0] * 3], rtol=1e-13)
            if order == 1:
                assert p.h is None
            else:
                np.testing.assert_allclose(p.h, [[want[2], [0.0] * 3], [[0.0] * 3] * 2],
                                           rtol=1e-13)
        assert len(products) <= 2, k


def _node(jet, k):
    """The value, gradient and Hessian of node k of a batched jet."""
    return (jet.v[k], jet.g[..., k], None if jet.h is None else jet.h[..., k])


def _assert_same_bits(batched, points, k):
    """Node k of the batched jet equals the point jet, bit for bit."""
    for a, b in zip(_node(batched, k), (points.v, points.g, points.h)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_jet_variables_layout():
    """Parameter axes first, the node axis last; one point has no node axis."""
    x, y = Jet.variables([0.5, -1.5], 2)
    assert (x.v.shape, x.g.shape, x.h.shape) == ((), (2,), (2, 2))
    assert x.g.tolist() == [1.0, 0.0] and y.g.tolist() == [0.0, 1.0]
    nodes = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    for order in (1, 2):
        a, b, c = Jet.variables(np.hstack([nodes, nodes[:, :1]]), order)
        assert (a.v.shape, a.g.shape) == ((3,), (3, 3))
        assert a.h is None if order == 1 else a.h.shape == (3, 3, 3)
        assert b.v.tolist() == [0.2, 0.4, 0.6]
        assert b.g.tolist() == [[0.0] * 3, [1.0] * 3, [0.0] * 3]  # g[i, node]


@pytest.mark.parametrize("count", [2, 3])
def test_jet_times_a_node_array_scales_each_node(count):
    """A node array (N,) acts as a constant per node in *, +, / and _chain:
    each node's value, gradient and Hessian is the point jet's at that node
    combined with the array's entry there (with N = m = 2, ``x * [10, 100]``
    once scaled the gradient by parameter instead of by node)."""
    nodes = np.array([[0.7, -0.3], [1.1, 0.4], [-0.6, 2.0]])[:count]
    a = np.array([10.0, 100.0, -3.5])[:count]
    x, y = Jet.variables(nodes, 2)
    f = x * y + x.sin()
    ops = [lambda f, a: f * a, lambda f, a: a * f, lambda f, a: f + a,
           lambda f, a: a - f, lambda f, a: f / a, lambda f, a: a / f,
           lambda f, a: f._chain(a * f.v, a, a * a)]
    scaled = x * a
    assert scaled.g.tolist()[0] == a.tolist() and scaled.g.tolist()[1] == [0.0] * count
    for op in ops:
        batched = op(f, a)
        for k in range(count):
            px, py = Jet.variables(nodes[k], 2)
            _assert_same_bits(batched, op(px * py + px.sin(), a[k]), k)


_LAYOUT_TEXTS = ["x * y - y", "(x + 2) / (y * y + 1)", "x^3 * y^-2", "(x - y)^2 / x",
                 "sin(x * y) + cos(x)^2", "exp(sin(y) * cos(x)) / (1 + x^2)",
                 "cos(exp(x - y)) * sin(y)^-1"]


@pytest.mark.parametrize("order", [1, 2])
def test_batched_jets_equal_point_jets(order):
    """Jets of compiled expressions on a node batch give, at each node and
    bit for bit, the jet that the same expressions give at that node alone;
    stack_jets keeps its node-first shapes and puts each node's parts in
    place."""
    fn = compile_vector(_LAYOUT_TEXTS, ["x", "y"])
    nodes = np.array([[0.7, -0.3], [1.1, 0.4], [-0.6, 2.0], [0.25, 1.5]])
    batched = fn(Jet.variables(nodes, order))
    stacked = stack_jets(batched, nodes, order)
    assert [s.shape for s in stacked] == [(4,) + (2,) * d + (len(_LAYOUT_TEXTS),)
                                          for d in range(order + 1)]
    for k, point in enumerate(nodes):
        single = fn(Jet.variables(point, order))
        for entry, (b, p) in enumerate(zip(batched, single)):
            _assert_same_bits(b, p, k)
            for part, stack in zip((p.v, p.g, p.h), stacked):
                assert stack[k, ..., entry].tobytes() == np.asarray(part).tobytes()


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
    assert abs(fd.frame @ fd.metric @ fd.frame.T - np.eye(2)).max() < 1e-12


def test_frame_rejects_degenerate_metric():
    bad = RiemannianPatch(2, [(-1, 1), (-1, 1)], lambda x: [[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        bad.metric_jets([[0, 0]])
    with pytest.raises(ValueError):
        connection_curvature(bad, [0, 0])



def test_metric_symmetry_allows_round_off_only():
    """Entries written differently may differ by round-off; a larger
    asymmetry, which Cholesky would not see, names its first chart point."""
    x = np.array([[0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    written = lambda d: RiemannianPatch(
        2, [(0, 1), (0, 1)], lambda y: [[1 + y[0] * y[1], y[0] * y[1] * 0.1],
                                        [0.1 * y[1] * y[0] + d * y[0], 2.0 + 0 * y[0]]])
    assert all(g.shape == (3,) for g in written(0.0).metric_jets(x)[0].values())
    assert written(0.0).metric_values(x).shape == (3, 2, 2)
    # a structural zero in one triangle only: Cholesky would read 0 or 0.5
    one_triangle = [RiemannianPatch(2, [(0, 1), (0, 1)], compile_matrix(rows, ["s", "r"]))
                    for rows in ([["1", "0.5"], ["0", "r*r"]], [["1", "0"], ["0.5", "r*r"]])]
    for make in (lambda p: p.metric_jets(x), lambda p: p.metric_values(x)):
        for patch in (written(1e-3), *one_triangle):
            with pytest.raises(ConfigError, match=r"not symmetric at chart point \[0\.3, 0\.4\]"):
                make(patch)

_OVERFLOWING = {  # entry: (as a callable, an r where its value is finite and d_r overflows)
    "exp(705*r)": (lambda s, r: jet_exp(705 * r), 1.0),
    "1e300/r": (lambda s, r: 1e300 / r, 1e-5),  # d(a/b) = -a db/b^2
}


@pytest.mark.parametrize("entry", sorted(_OVERFLOWING))
def test_overflowing_metric_derivative_names_its_entry(entry):
    """A metric entry whose value is finite but whose derivative overflows
    raises the ConfigError that names the entry and the first node where a
    derivative is not finite, at either order, whether the metric is
    compiled or a Python callable on Jets."""
    function, r = _OVERFLOWING[entry]
    points = np.array([[0.1, 0.5], [0.2, r], [0.3, r]])
    compiled = compile_matrix([["1", "0"], ["0", entry]], ["s", "r"])
    written = lambda x: [[1.0, 0.0], [0.0, function(*x)]]
    fault = (r"metric entry \(1, 1\) has a derivative that is not finite "
             rf"at chart point \[0\.2, {re.escape(repr(r))}\]")
    for metric in (compiled, written):
        patch = RiemannianPatch(2, [(0, 1), (0, 1)], metric)
        assert np.isfinite(patch.metric_values(points)).all()
        assert all(np.isfinite(d).all() for d in patch.metric_jets(points[:1])[1].values())
        for order in (1, 2):
            with pytest.raises(ConfigError, match=fault):
                patch.metric_jets(points, order)


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
        Gamma = pair_core(patch, [pt]).Gamma[0]
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
    R = pair_core(patch, [[0.1, 0.2]]).riemann[0]
    assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) < 1e-12
    assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) < 1e-12
    assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) < 1e-12


def wavy_patch(n, seed, frozen=()):
    """Analytic perturbation of the flat n-metric, SPD on the box: diagonal
    entries within 0.2 of 1, off-diagonal ones within 0.1 of 0.  The entries
    (i, j), i <= j, in ``frozen`` and their mirrors are plain numbers."""
    rng = random.Random(seed)
    terms = {(i, j): (rng.uniform(-0.2, 0.2) if i == j else rng.uniform(-0.1, 0.1),
                      rng.randrange(n), rng.randrange(n))
             for i in range(n) for j in range(i, n)}

    def metric(x):
        def entry(i, j):
            a, k, l = terms[min(i, j), max(i, j)]
            if (min(i, j), max(i, j)) in frozen:
                return float(i == j) + 0.5 * a
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
    core = pair_core(patch, points)
    src_G, dG, hess, Linv = patch.metric_jets(points)[:4]
    src_low, src_Gamma = christoffel_symbols(dG, Linv)
    R_pairs = pair_curvature(src_low, src_Gamma, hess, n, len(points))
    G = node_first(src_G, (len(points), n, n))
    dG = node_first(dG, (len(points), n, n, n))
    d2G = dense_hessians(hess, len(points), n)  # d2G[:, i, j, k, l] = d_i d_j g_kl
    low = 0.5 * (np.einsum("...ijl->...lij", dG) + np.einsum("...jil->...lij", dG)
                 - np.einsum("...lij->...lij", dG))
    Gamma = np.einsum("...kl,...lij->...kij", np.linalg.inv(G), low)
    quadratic = (np.einsum("...qjp,...qim->...ijmp", low, Gamma)
                 - np.einsum("...qip,...qjm->...ijmp", low, Gamma))
    R = quadratic + 0.5 * (np.einsum("...mipj->...ijmp", d2G) - np.einsum("...pijm->...ijmp", d2G)
                           - np.einsum("...mjpi->...ijmp", d2G)
                           + np.einsum("...pjim->...ijmp", d2G))
    assert np.max(np.abs(quadratic)) > 1e-3
    assert np.max(np.abs(core.Gamma - Gamma)) < 1e-13
    assert np.max(np.abs(core.riemann - R)) < 1e-13

    m = n + 1  # a map with m = 1 would have no curvature to compare
    E = np.eye(n) + 0.3 * rng.standard_normal((5, n, n))
    dE = rng.standard_normal((5, m, n, n))
    dx = rng.standard_normal((5, m, n))
    omega = node_first(_frame_connection(src_G, src_Gamma, entries(E), entries(dE), entries(dx), m),
                       (5, n, n, m))
    curv = unpack_pairs(node_first(_frame_curvature(R_pairs, entries(E), entries(dx), m),
                                   (5, n * (n - 1) // 2, m * (m - 1) // 2)), n, m)
    nabla = (np.einsum("...iAk->...Aik", dE)
             + np.einsum("...klm,...il,...Am->...Aik", Gamma, dx, E))
    want = np.einsum("...Aik,...kl,...Bl->...ABi", nabla, G, E)
    want = 0.5 * (want - want.swapaxes(-3, -2))
    assert np.max(np.abs(omega - want)) < 1e-13
    want = np.einsum("...lrmp,...Am,...Bp,...il,...jr->...ABij", R, E, E, dx, dx)
    assert np.max(np.abs(want)) > 1e-3
    assert np.max(np.abs(curv - want)) < 1e-13


@pytest.mark.parametrize("n, patch", [(2, bumpy_patch(4)), (2, wavy_patch(2, 5)),
                                      (3, wavy_patch(3, 6)), (4, wavy_patch(4, 7))])
def test_pair_curvature_matches_reference(n, patch):
    """The Christoffel symbols and the pair curvature, unpacked, equal the
    whole n^4 Riemann tensor of the reference on random metrics, and the
    pair curvature is symmetric on index pairs, bit for bit."""
    points = np.random.default_rng(n).uniform(-0.9, 0.9, size=(9, n))
    want, got = reference_core(patch.metric_jets(points), len(points)), pair_core(patch, points)
    assert np.max(np.abs(want.riemann)) > 1e-3
    assert np.max(np.abs(got.Gamma - want.Gamma)) < 1e-15
    assert np.max(np.abs(got.riemann - want.riemann)) < 1e-15
    G, dG, hess, Linv, _ = patch.metric_jets(points)
    R = pair_curvature(*christoffel_symbols(dG, Linv), hess, n, len(points))
    assert R.shape == (n * (n - 1) // 2,) * 2 + (len(points),)
    assert np.array_equal(R, R.swapaxes(0, 1))


def test_metric_jets_build_hessians_for_varying_entries_only():
    """ball3-radial's metric diag(1, rho^2, rho^2 sin^2 th) has two varying
    entries of nine: ``metric_jets`` builds Hessians for exactly those two, at
    order 2 only, and its flat curvature from them equals the reference's."""
    patch = load_catalog_scenario("ball3-radial").patch
    rng = np.random.default_rng(3)
    points = np.stack([rng.uniform(0.5, 1, 9), rng.uniform(0.4, 2.7, 9),
                       rng.uniform(0, 2 * math.pi, 9)], axis=1)
    jets = patch.metric_jets(points)
    assert sorted({key[2:] for key in jets[2]}) == [(1, 1), (2, 2)]
    assert all(h.shape == (9,) for h in jets[2].values())
    assert patch.metric_jets(points, order=1)[2] is None
    want, got = reference_core(jets, len(points)), pair_core(patch, points)
    assert np.max(np.abs(got.Gamma - want.Gamma)) < 1e-15
    assert np.max(np.abs(got.riemann - want.riemann)) < 1e-15


@pytest.mark.parametrize("n, frozen", [(2, {(0, 0)}), (2, {(0, 1)}),
                                       (3, {(0, 0), (0, 1), (1, 2)}),
                                       (4, {(0, 0), (1, 1), (0, 2), (1, 3), (2, 3)})])
def test_sparse_hessians_give_the_reference_curvature(n, frozen):
    """On metrics that mix constant and varying entries, the Hessians are
    those of the varying entries, and the pair curvature from them equals the
    reference's, from the whole d2G, within 1e-15."""
    patch = wavy_patch(n, 40 + n, frozen)
    points = np.random.default_rng(n).uniform(-0.9, 0.9, size=(9, n))
    jets = patch.metric_jets(points)
    assert {key[2:] for key in jets[2]} == {(i, j) for i in range(n) for j in range(n)
                                            if (min(i, j), max(i, j)) not in frozen}
    want, got = reference_core(jets, len(points)), pair_core(patch, points)
    assert np.max(np.abs(want.riemann)) > 1e-3
    assert np.max(np.abs(got.Gamma - want.Gamma)) < 1e-15
    assert np.max(np.abs(got.riemann - want.riemann)) < 1e-15


def literal_zero_patch(n, block, seed):
    """A compiled n-metric whose off-diagonal entries are the literal 0, but
    for g_01 = g_10 when ``block``: diagonal entries within 0.2 of 1 and g_01
    within 0.1 of 0, each a product of a sine and a cosine of the parameters
    x0, ..., x{n-1}."""
    rng = random.Random(seed)

    def wave(scale):
        k, l = rng.randrange(n), rng.randrange(n)
        return f"{rng.uniform(-scale, scale)!r}*sin(x{k} + 0.3)*cos(x{l}*x{k})"

    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = f"1 + {wave(0.2)}"
    if block:
        rows[0][1] = rows[1][0] = wave(0.1)
    return RiemannianPatch(n, [(-1, 1)] * n, compile_matrix(rows, [f"x{i}" for i in range(n)]))


@pytest.mark.parametrize("n, block", [(2, False), (3, False), (4, False), (3, True), (4, True)])
def test_literal_zero_entries_give_the_reference_curvature(n, block):
    """On diagonal and block-diagonal metrics written with literal 0 entries,
    the metric jets hold no derivative and no L^-1 entry outside the blocks,
    and the Christoffel symbols and the Riemann tensor built from the entries
    present equal the dense reference's within 1e-15."""
    patch = literal_zero_patch(n, block, 50 + n)
    points = np.random.default_rng(n).uniform(-0.9, 0.9, size=(9, n))
    jets = patch.metric_jets(points)
    _, dG, hess, Linv, _ = jets
    blocks = {(i, i) for i in range(n)} | ({(0, 1), (1, 0)} if block else set())
    assert {key[-2:] for key in [*dG, *hess]} <= blocks
    assert set(Linv) == {(i, j) for i, j in blocks if i >= j}
    want, got = reference_core(jets, len(points)), pair_core(patch, points)
    assert np.max(np.abs(want.riemann)) > 1e-3
    assert np.max(np.abs(got.Gamma - want.Gamma)) < 1e-15
    assert np.max(np.abs(got.riemann - want.riemann)) < 1e-15


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


def test_curvature_builds_no_n4_or_gathered_product_temporaries():
    """At n = 4 on 2048 nodes the Christoffel symbols allocate less than one
    n^4 node array beyond their outputs, and the pair curvature less than one
    (4, E, n) array of gathered products, E its P(P + 1)/2 entries."""
    n, N = 4, 2048
    points = np.random.default_rng(4).uniform(-0.9, 0.9, size=(N, n))
    _, dG, hess, Linv, _ = wavy_patch(n, 4).metric_jets(points)
    low, Gamma = christoffel_symbols(dG, Linv)
    P = n * (n - 1) // 2
    node_array = 8 * N
    assert _traced_beyond_result(lambda: christoffel_symbols(dG, Linv)) < n ** 4 * node_array
    assert (_traced_beyond_result(lambda: (pair_curvature(low, Gamma, hess, n, N),))
            < 4 * P * (P + 1) // 2 * n * node_array)


@pytest.mark.parametrize("n", [3, 4])
def test_frame_curvature_matches_reference_sandwich(n):
    """Alt E R Alt dx^T on index pairs equals the reference's n^2 x n^2
    sandwich F K F^T for non-orthonormal frames along non-square maps."""
    rng = np.random.default_rng(20 + n)
    points = rng.uniform(-0.9, 0.9, size=(5, n))
    core = reference_core(wavy_patch(n, seed=n).metric_jets(points), len(points))
    R = np.moveaxis(np.array([[core.riemann[:, i, j, m, p] for m, p in pairs(n)]
                              for i, j in pairs(n)]), 2, -1)
    for m in (2, n - 1, n + 1):
        E = np.eye(n) + 0.3 * rng.standard_normal((5, n, n))
        dx = rng.standard_normal((5, m, n))
        want = reference_frame_curvature(core.riemann, E, dx)
        got = node_first(_frame_curvature(R, entries(E), entries(dx), m),
                         (5, n * (n - 1) // 2, m * (m - 1) // 2))
        assert np.max(np.abs(want)) > 1e-2
        assert np.max(np.abs(unpack_pairs(got, n, m) - want)) <= 1e-14 * np.max(np.abs(want))


def _refuse(*args, **kwargs):
    raise AssertionError("curvature built where no form reads it")


def test_two_dimensional_boundary_frame_builds_no_curvature(monkeypatch):
    """Phi at n = 2 reads theta only: the boundary frame builds the
    connection from first-order metric jets, and no curvature."""
    monkeypatch.setattr(geometry, "pair_curvature", _refuse)
    orders, metric_jets = [], RiemannianPatch.metric_jets
    monkeypatch.setattr(RiemannianPatch, "metric_jets", lambda self, x, order=2:
                        orders.append(order) or metric_jets(self, x, order))
    bf = boundary_frame(disk_rim(), [[0.3], [1.2]])
    assert bf.curvature is None and set(bf.omega) == {(0, 1, 0), (1, 0, 0)}
    assert orders == [1]


def test_odd_euler_density_builds_no_curvature(monkeypatch):
    """At odd n the Euler form is zero: no metric jet, Christoffel symbol or
    curvature is computed."""
    for name in ("pair_curvature", "christoffel_symbols"):
        monkeypatch.setattr(geometry, name, _refuse)
    monkeypatch.setattr(RiemannianPatch, "metric_jets", _refuse)
    points = np.array([[0.1, 0.2, 0.3], [0.4, -0.5, 0.6]])
    assert euler_form_density(wavy_patch(3, seed=1), points).tolist() == [0.0, 0.0]


def _row_gram_schmidt(G, dG, vectors, dvectors):
    """Oracle: Gram-Schmidt one row at a time, to first order, in the layout
    with the derivative axis last (dG[..., k, l, i], dvectors[..., r, k, i])."""
    def inner(a, da, b, db):  # <a, b> and its gradient, a one vector or rows
        Gb = G @ b[..., None]
        dGb = (b[..., None, None, :] @ dG)[..., 0, :] + G @ db
        if a.ndim > b.ndim:
            return (a @ Gb)[..., 0], (Gb[:, None].swapaxes(-1, -2) @ da)[..., 0, :] + a @ dGb
        return (a[:, None] @ Gb)[:, 0, 0], (Gb.swapaxes(-1, -2) @ da + a[:, None] @ dGb)[:, 0]

    rows, drows = [], []
    for w, dw in zip(np.moveaxis(vectors, -2, 0), np.moveaxis(dvectors, -3, 0)):
        for e, de in zip(rows, drows):
            c, dc = inner(w, dw, e, de)
            w = w - c[..., None] * e
            dw = dw - c[..., None, None] * de - e[..., :, None] * dc[..., None, :]
        norm2, dnorm2 = inner(w, dw, w, dw)
        inv = 1.0 / np.sqrt(norm2)
        rows.append(w * inv[..., None])
        drows.append(dw * inv[..., None, None]
                     - (w[..., :, None] * dnorm2[..., None, :]) * (0.5 * inv ** 3)[..., None, None])
    return np.stack(rows, axis=-2), np.stack(drows, axis=-3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cholesky_frame_matches_row_by_row_gram_schmidt(n):
    """The frame as one Cholesky factorization, with its first-order
    derivative, equals Gram-Schmidt row by row, for non-orthonormal rows, a
    random metric and a random symmetric metric derivative."""
    rng = np.random.default_rng(10 + n)
    N, m = 7, n - 1 if n > 2 else 2
    A = rng.standard_normal((N, n, n))
    G = A @ A.swapaxes(1, 2) + n * np.eye(n)
    dG = rng.standard_normal((N, m, n, n))
    dG = dG + dG.swapaxes(-1, -2)
    V = np.eye(n) + 0.4 * rng.standard_normal((N, n, n))
    dV = rng.standard_normal((N, m, n, n))
    E, dE = _orthonormal_rows(entries(G), entries(dG), entries(V), entries(dV),
                              np.zeros((N, m)), m)
    E, dE = node_first(E, (N, n, n)), node_first(dE, (N, m, n, n))
    want, dwant = _row_gram_schmidt(G, np.moveaxis(dG, 1, -1), V, np.moveaxis(dV, 1, -1))
    assert np.max(np.abs(E - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(dE - np.moveaxis(dwant, -1, 1))) <= 1e-13 * np.max(np.abs(dwant))
    assert abs(E @ G @ E.swapaxes(1, 2) - np.eye(n)).max() < 1e-12


def test_degenerate_frame_names_the_first_dependent_node():
    V = np.tile(np.eye(2), (4, 1, 1))
    V[2, 1] = V[2, 0]  # dependent rows at node 2 only
    points = np.arange(4.0)[:, None]
    with pytest.raises(ConfigError, match=r"linearly dependent at point \[2.0\]"):
        _orthonormal_rows(entries(np.tile(np.eye(2), (4, 1, 1))), {}, entries(V), {}, points, 1)


@st.composite
def _cholesky_batches(draw):
    """A batch of symmetric r x r matrices A A^T + I (r = 2..4), some nodes
    made indefinite (a negated diagonal entry), singular (a zero row and
    column), NaN or +-inf (a symmetric pair of entries), and a pivot floor."""
    r, count = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    A = draw(arrays(np.float64, (count, r, r), elements=st.floats(-2, 2)))
    M = A @ A.swapaxes(1, 2) + np.eye(r)
    kinds = ["good", "indefinite", "singular", "nan", "inf", "-inf"]
    for k in range(count):
        kind = draw(st.sampled_from(kinds))
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        if kind == "indefinite":
            M[k, i, i] *= -1.0
        elif kind == "singular":
            M[k, i, :] = M[k, :, i] = 0.0
        elif kind != "good":
            M[k, i, j] = M[k, j, i] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return M, draw(st.sampled_from([0.0, 1e-14]))


def _lapack_rejects(M, floor):
    """Oracle: LAPACK's Cholesky fails on M, or a pivot L_jj^2 of its factor
    is not finite or is <= floor."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return True
    pivots = np.diagonal(L) ** 2
    return not (np.isfinite(pivots).all() and (pivots > floor).all())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cholesky_batches())
def test_cholesky_inverse_matches_lapack(batch):
    """L^-1 and diag(L) equal LAPACK's on the nodes it accepts, and a batch
    raises at the first node that LAPACK rejects or whose pivot is at or
    below the floor."""
    M, floor = batch
    r = M.shape[1]
    lower = lambda A: {(i, j): A[:, i, j] for i in range(r) for j in range(i + 1)}
    points = np.arange(len(M), dtype=float)[:, None]
    with np.errstate(all="ignore"):  # LAPACK's oracle on inf and NaN nodes
        rejected = np.array([_lapack_rejects(m, floor) for m in M])
    good = M[~rejected]
    inv, diag = _cholesky_inverse(lower(good), r, points[~rejected], floor, "bad at")
    inv, diag = node_first(inv, good.shape), np.stack(diag, axis=1)
    for k, m in enumerate(good):
        L = np.linalg.cholesky(m)
        want = np.linalg.inv(L)
        assert np.max(np.abs(inv[k] - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(diag[k] - np.diagonal(L))) <= 1e-13 * np.max(np.abs(L))
    if rejected.any():
        first = int(np.argmax(rejected))
        with pytest.raises(ConfigError, match=rf"^bad at \[{first}\.0\]$"):
            _cholesky_inverse(lower(M), r, points, floor, "bad at")


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


def dense_frame(bf, N, n, m):
    """The node-first arrays (N, ...) of the node-last maps of a
    BoundaryFrame, zeros where an entry is structurally zero; the curvature
    is None where the frame has none."""
    P, Q = n * (n - 1) // 2, m * (m - 1) // 2
    shapes = {"pushforward": (m, n), "metric": (n, n), "dmetric": (m, n, n), "normal": (n,),
              "dnormal": (m, n), "frame": (n, n), "dframe": (m, n, n), "omega": (n, n, m),
              "curvature": (P, Q)}
    return SimpleNamespace(points=bf.points, **{
        key: None if getattr(bf, key) is None else node_first(getattr(bf, key), (N, *shape))
        for key, shape in shapes.items()})


def frame_at(bpatch, t, frame_twist=None):
    """The boundary frame at one node t, node-first with the node axis dropped."""
    bf = dense_frame(boundary_frame(bpatch, [t], frame_twist), 1, bpatch.parent.n, bpatch.m)
    return SimpleNamespace(**{key: value[0] for key, value in vars(bf).items()
                              if value is not None})


def test_boundary_frame_outward_normal_first():
    bf = frame_at(disk_boundary(), [1.2])
    assert np.allclose(bf.frame[0], [1.0, 0.0])
    assert abs(bf.frame @ bf.metric @ bf.frame.T - np.eye(2)).max() < 1e-12
    assert np.linalg.det(frame_at(disk_rim(), [1.2]).frame) > 0
    assert np.linalg.det(frame_at(disk_rim(reverse=True), [1.2]).frame) < 0
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


def reversed_rim(bpatch):
    """``bpatch`` traversed backwards along its first parameter."""
    (lo, hi), *rest = bpatch.box
    back = lambda t: [-t[0], *t[1:]]
    return BoundaryPatch(bpatch.parent, [(-hi, -lo), *rest],
                         embed=lambda t: bpatch.embed(back(t)),
                         outward=lambda t: bpatch.outward(back(t)))


@pytest.mark.parametrize("reverse", [True, False])
@pytest.mark.parametrize("rim, t, twist", [
    (wavy_disk_rim, [1.2], None),
    (wavy_disk_rim, [4.0], None),
    (wavy_cap_rim, [2.5], None),
    (wavy_ball3_sphere, [1.1, 0.7], None),
    (wavy_ball3_sphere, [1.1, 0.7], sphere_twist),
], ids=["disk", "disk-back", "cap", "ball3", "ball3-twisted"])
def test_boundary_frame_derivatives_match_central_differences(rim, t, twist,
                                                              reverse):
    """With ``reverse`` the rim runs backwards, so its frames have det < 0,
    as on the inner circle of an annulus; no sign is applied to them."""
    def frame(tt):
        return frame_at(bpatch, tt, frame_twist=twist)

    bpatch = reversed_rim(rim()) if reverse else rim()
    t = np.array([-t[0], *t[1:]] if reverse else t)
    bf = frame(t)
    assert abs(bf.frame @ bf.metric @ bf.frame.T - np.eye(len(t) + 1)).max() < 1e-12
    assert np.sign(np.linalg.det(bf.frame)) == (-1 if reverse else 1)
    h = 1e-5
    for i in range(bpatch.m):
        step = h * np.eye(bpatch.m)[i]
        plus = frame(t + step)
        minus = frame(t - step)
        for name in ("frame", "metric", "normal"):
            fd = (getattr(plus, name) - getattr(minus, name)) / (2 * h)
            exact = getattr(bf, "d" + name)[i]
            assert np.max(np.abs(fd - exact)) <= 1e-6, name
    assert np.max(np.abs(bf.dframe)) > 0.01
    assert np.max(np.abs(bf.dmetric)) > 0.01


def test_boundary_frame_twist_rotates_frame_but_not_normal():
    bpatch = wavy_ball3_sphere()
    plain = frame_at(bpatch, [1.1, 0.7])
    twisted = frame_at(bpatch, [1.1, 0.7], frame_twist=sphere_twist)
    assert np.array_equal(twisted.normal, plain.normal)
    assert abs(twisted.frame @ twisted.metric @ twisted.frame.T
               - np.eye(3)).max() < 1e-12
    assert np.max(np.abs(twisted.frame[1:] - plain.frame[1:])) > 0.1


# -- the node-first reference of the frame layer -------------------------------------
# The frame layer as it was before it became node-last: stacked matmuls on
# node-first arrays, fed by Jets of the embedding, the outward vector, the
# twist and the section.  It serves the node-last frames as ``reference_core``
# serves the metric layer.

def _transposed(a):
    """``a`` with its last two axes swapped, as a contiguous array."""
    return np.ascontiguousarray(a.swapaxes(-1, -2))


def reference_metric_inner(G, dG, a, da, b, db):
    """<a_A, b> for node-first rows a (N, r, n), da[:, i, A, k], b (N, n) and
    db[:, i, k] under G (N, n, n) with dG[:, i, k, l]: values (N, r) and
    gradients (N, m, r)."""
    N, m, n = db.shape
    Gb = G @ b[..., None]                                    # Gb[k] = G[k,l] b[l], a column
    # dGb[i,k] = dG[i,k,l] b[l] + db[i,l] G[l,k]
    dGb = (dG.reshape(N, m * n, n) @ b[..., None]).reshape(N, m, n) + db @ G
    # <a_A, b> = a[A,k] Gb[k] and d<a_A, b>[i] = da[i,A,k] Gb[k] + dGb[i,k] a[A,k]
    return ((a @ Gb)[..., 0],
            (da.reshape(N, -1, n) @ Gb).reshape(da.shape[:3]) + dGb @ _transposed(a))


def reference_orthonormal_rows(G, dG, V, dV, points):
    """Gram-Schmidt on the rows of V (N, r, n) against G, with dG[:, i, k, l]
    and dV[:, i, A, k], as the Cholesky factorization V G V^T = L L^T, and
    Murray's dE_i = (K_i - Phi(S_i)) E, by stacked matmuls."""
    N, m, r, n = dV.shape
    M = V @ G @ _transposed(V)
    inv, _ = _cholesky_inverse({(i, j): M[:, i, j] for i in range(r) for j in range(i + 1)}, r,
                               points, 1e-14, "degenerate frame at")
    Linv = node_first(inv, M.shape)
    E = Linv @ V
    Et = _transposed(E)
    # U[i,A,B] = (L^-1 dV_i)[A,k] (G E^T)[k,B] for A < B; S[i,A,B] = E[A,k] dG[i,k,l] E[B,l]
    U = np.triu(((Linv[:, None] @ dV).reshape(N, m * r, n) @ (G @ Et)).reshape(N, m, r, r), 1)
    S = E[:, None] @ (dG.reshape(N, m * n, n) @ Et).reshape(N, m, n, r)
    return E, (U - U.swapaxes(-1, -2) - np.tril(S, -1) - 0.5 * np.eye(r) * S) @ E[:, None]


def reference_frame_connection(G, Gamma, E, dE, dx):
    """omega[:, A, B, i] of node-first frame rows E with dE[:, i, A, k] along
    the pushforward dx[:, i, k], from Gamma[:, i, j, k] = Gamma^k_ij."""
    N, m, n, _ = dE.shape
    # Y[i,q,k] = dx[i,l] Gamma^k_{lq}; nabla[i,A,k] = dE[i,A,k] + e_A^q Y[i,q,k]
    Y = dx @ Gamma.reshape(N, n, n * n)
    nabla = dE + E[:, None] @ Y.reshape(N, m, n, n)
    # omega[i,A,B] = nabla[i,A,k] G[k,l] e_B^l, its roundoff asymmetry killed
    omega = (nabla.reshape(N, m * n, n) @ (G @ _transposed(E))).reshape(dE.shape)
    return (0.5 * (omega - omega.swapaxes(-1, -2))).transpose(0, 2, 3, 1)


def reference_boundary_frame(bpatch, t, frame_twist=None):
    """The boundary frame at the nodes t (N, m), node first, from Jets of the
    embedding, ``outward`` and the twist: Gram-Schmidt on (dx/dt, outward),
    the normal rolled to the front, then the twist, the connection and, at
    n = 3, the curvature [:, A, B, i, j] from the whole Riemann tensor of
    ``reference_core``.  ``x_jets`` holds the embedding's first-order Jets,
    on which the section pullbacks evaluate their fields."""
    t = np.asarray(t, dtype=float)
    N, m = t.shape
    n = m + 1
    x_jets = bpatch.embed(Jet.variables(t, 2))
    x, dx, d2x = stack_jets(x_jets, t, 2)
    jets = bpatch.parent.metric_jets(x)
    G = node_first(jets[0], (N, n, n))
    dG = (dx @ node_first(jets[1], (N, n, n, n)).reshape(N, n, -1)).reshape(N, m, n, n)
    outward, doutward = stack_jets(bpatch.outward(Jet.variables(t, 1)), t, 1)
    E, dE = reference_orthonormal_rows(G, dG, np.concatenate([dx, outward[:, None]], axis=1),
                                       np.concatenate([d2x, doutward[:, :, None]], axis=2), t)
    E, dE = np.roll(E, 1, axis=1), np.roll(dE, 1, axis=2)
    normal, dnormal = E[:, 0], dE[:, :, 0]
    if frame_twist is not None:
        R, dR = stack_jets([e for row in frame_twist(Jet.variables(t, 1)) for e in row], t, 1)
        R, dR = R.reshape(E.shape), dR.reshape(dE.shape)
        E, dE = R @ E, dR @ E[:, None] + R[:, None] @ dE
    core = reference_core(jets, N)
    return SimpleNamespace(
        points=x, pushforward=dx, metric=G, dmetric=dG, normal=normal, dnormal=dnormal,
        frame=E, dframe=dE,
        omega=reference_frame_connection(G, core.Gamma.transpose(0, 2, 3, 1), E, dE, dx),
        curvature=reference_frame_curvature(core.riemann, E, dx) if n == 3 else None,
        x_jets=[Jet(e.v, e.g, None) if isinstance(e, Jet) else e for e in x_jets])


def reference_bind(section, t, frame):
    """u (N, n), theta (N, n, m), the angle to the normal and <W, n> of the
    section (None for the normal) through a ``reference_boundary_frame``."""
    if section is None:
        W, dW = frame.normal, frame.dnormal
    else:
        W, dW = stack_jets(section(frame.x_jets), np.asarray(t, dtype=float), 1)
    s, ds = reference_metric_inner(frame.metric, frame.dmetric,
                                   np.concatenate([frame.frame, W[:, None]], axis=1),
                                   np.concatenate([frame.dframe, dW[:, :, None]], axis=2), W, dW)
    s, ds, norm2, dnorm2 = s[:, :-1], ds[..., :-1], s[:, -1], ds[..., -1]
    inv_norm = 1.0 / np.sqrt(norm2)
    u = s * inv_norm[:, None]
    du = (ds * inv_norm[:, None, None]
          - (dnorm2[:, :, None] * s[:, None, :]) * (0.5 * inv_norm ** 3)[:, None, None])
    du = du.swapaxes(1, 2)  # theta[A,i] = du[i,A] + u[B] omega[B,A,i]
    theta = du + (u[:, None] @ frame.omega.reshape(u.shape + (-1,))).reshape(du.shape)
    u0 = u[:, 0]
    angle = np.arctan2(np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, u0 ** 2))), u0)
    return u, theta, angle, (W[:, None] @ frame.metric @ frame.normal[..., None])[:, 0, 0]


def _assert_close(got, want, what, rel=1e-13):
    """|got - want| <= rel * max(1, |want|), over all entries."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want), initial=0.0) <= rel * max(
        1.0, np.max(np.abs(want), initial=0.0)), what


def rim_twist(t_jets):
    """A smooth rotation of the frame of a boundary curve."""
    gamma = (t_jets[0] * 2.0).sin() * 0.4
    c, s = gamma.cos(), gamma.sin()
    return [[c, -1.0 * s], [s, c]]


def rim_field(x):
    return [jet_cos(x[1]) + 0.3, jet_sin(x[1] * 2.0)]


def sphere_field(x):
    return [x[0] * jet_cos(x[1]) + 0.2, jet_sin(x[2]) + 0.1 * x[1], jet_cos(x[1] * x[2])]


def _oracle_cases():
    """(id, boundary patch, field) for the wavy rims and sphere, whose frames
    have no structural zero (the cap's ``outward`` is not normal), and for
    every boundary of the catalog, with its field."""
    cases = [("wavy-disk", wavy_disk_rim(), rim_field), ("wavy-cap", wavy_cap_rim(), rim_field),
             ("wavy-ball3", wavy_ball3_sphere(), sphere_field)]
    for name in catalog_names():
        scenario = load_catalog_scenario(name)
        cases += [(f"{name}-{k}", bpatch, scenario.field_spec.components)
                  for k, bpatch in enumerate(scenario.boundaries)]
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_node_last_frames_match_the_node_first_reference(case, twisted):
    """The boundary frame, its connection and curvature, both section
    pullbacks (the normal and the field) and the field's frame components of
    ``fields`` equal the node-first reference within 1e-13, with and without
    a frame twist (``sphere_twist`` at n = 3)."""
    from lawcheck.fields import _field_frame_components

    _, bpatch, field = case
    n, m = bpatch.parent.n, bpatch.m
    twist = (sphere_twist if n == 3 else rim_twist) if twisted else None
    rng = np.random.default_rng(7)
    t = np.stack([rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 7)
                  for lo, hi in bpatch.box], axis=1)
    want = reference_boundary_frame(bpatch, t, twist)
    bf = boundary_frame(bpatch, t, twist)
    got = dense_frame(bf, len(t), n, m)
    for key in ("points", "pushforward", "metric", "dmetric", "normal", "dnormal", "frame",
                "dframe", "omega"):
        _assert_close(getattr(got, key), getattr(want, key), key)
    if n == 3:
        _assert_close(unpack_pairs(got.curvature, n, m), want.curvature, "curvature")
    for section in (None, field):
        u, theta, omega, curv, angle, v_dot_n = SectionPullback(section).bind(t, bf)
        for value, reference, what in zip((u, theta, angle, v_dot_n),
                                          reference_bind(section, t, want),
                                          ("u", "theta", "angle", "v_dot_n")):
            _assert_close(value, reference, what)
        assert np.array_equal(omega, got.omega)
        assert (curv is None) == (n == 2) and (curv is None or np.array_equal(curv, got.curvature))
    plain = want if twist is None else reference_boundary_frame(bpatch, t)
    V, dV = stack_jets(field(plain.x_jets), t, 1)
    for value, reference, what in zip(_field_frame_components(bpatch, field, t),
                                      reference_metric_inner(plain.metric, plain.dmetric,
                                                             plain.frame, plain.dframe, V, dV),
                                      ("components", "gradients")):
        _assert_close(value, reference, what)


# the compiled twins of ``wavy_cap_rim`` and ``wavy_ball3_sphere``, with the
# fields ``rim_field`` and ``sphere_field``
COMPILED_TWINS = {
    "wavy-cap": ({"params": ["th", "ps"], "box": [[0, 1.5], [0, "2*pi"]],
                  "metric": [["1", "0"], ["0", "sin(th)*sin(th)"]]},
                 {"params": ["t"], "box": [[0, "2*pi"]], "embed": ["1 + 0.1*sin(t*2)", "t"],
                  "outward": ["1", "0.1*cos(t)"]},
                 ["cos(ps) + 0.3", "sin(ps*2)"], wavy_cap_rim, rim_field, [64]),
    "wavy-ball3": ({"params": ["rho", "th", "ps"], "box": [[0, 1.5], [0, "pi"], [0, "2*pi"]],
                    "metric": [["1", "0", "0"], ["0", "rho*rho", "0"],
                               ["0", "0", "rho*rho*sin(th)*sin(th)"]]},
                   {"params": ["a", "b"], "box": [[0, "pi"], [0, "2*pi"]],
                    "embed": ["1 + 0.1*sin(a)*cos(b)", "a", "b"], "outward": ["1", "0", "0"]},
                   ["rho*cos(th) + 0.2", "sin(ps) + 0.1*th", "cos(th*ps)"],
                   wavy_ball3_sphere, sphere_field, [12, 24]),
}


@pytest.mark.parametrize("name", sorted(COMPILED_TWINS))
def test_compiled_dense_boundaries_match_their_callables(name):
    """A scenario file's boundary, read through derivative programs, gives
    the frame, connection and curvature of the same boundary written as
    Python callables on Jets, and the same integrals of Phi over the normal
    and over the field, within 1e-12: no catalog boundary has frame rows that
    vary in (nearly) every entry."""
    patch, boundary, field, rim, callable_field, orders = COMPILED_TWINS[name]
    n = len(patch["params"])
    scenario = load_scenario({"name": name, "dimension": n, "chi": 1, "patch": patch,
                              "boundaries": [boundary], "field": {"components": field},
                              "expected": {"ind_v": 0, "ind_dminus": 0}})
    compiled, written = scenario.boundaries[0], rim()
    grid = gauss_grid(written.box, orders)
    t = grid.nodes[::7]
    got, want = (dense_frame(boundary_frame(b, t), len(t), n, n - 1) for b in (compiled, written))
    for key, value in vars(want).items():
        if value is not None:
            _assert_close(getattr(got, key), value, key, rel=1e-12)
    assert np.max(np.abs(got.dframe)) > 0.01 and np.max(np.abs(got.omega)) > 0.01
    ((normal, section),), *_ = integrate_phi_over_section(
        compiled, (None, scenario.field_spec.components), grid)
    ((normal_want, section_want),), *_ = integrate_phi_over_section(
        written, (None, callable_field), grid)
    assert abs(normal - normal_want) <= 1e-12 and abs(section - section_want) <= 1e-12
    assert abs(normal_want) > 0.1
