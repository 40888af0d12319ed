"""Numerical differential geometry on parametrized patches, batched over nodes.

Every layer takes N chart (or boundary) points as an (N, dim) array and
returns arrays with a leading node axis; quadratures pass their grids in
chunks of CHUNK nodes, which bounds every array.  Differentiation is forward
mode, truncated to second order: a Jet carries values (N,), gradients (N, m)
and Hessians (N, m, m), so Christoffel symbols and curvature come out exact
to roundoff.  Curvature is computed once, in coordinates, from the second
metric derivatives.  The Euler density needs no frame; boundary frames carry
values and first derivatives only, as nothing reads second ones.  Batched
contractions are stacked matmuls (``@``), each with its index formula in a
comment; einsum only transposes.  Finite differences appear only in tests,
as independent oracles.

Frames follow the convention that e_1 is the outward unit normal on boundary
patches; curvature uses nabla e_A = sum_B omega(A,B) e_B and
Omega(A,B) = d omega(A,B) - sum_C omega(A,C) omega(C,B), under which the
round 2-sphere has Omega(1,2)(e_1, e_2) = -1 and the Euler density still
integrates to chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chern import euler_template, evaluate_template

CHUNK = 256  # nodes per batched evaluation


def node_chunks(count):
    """Slices of at most CHUNK consecutive nodes that cover range(count)."""
    return [slice(k, k + CHUNK) for k in range(0, count, CHUNK)]


class Jet:
    """Values v (N,), gradients g (N, m) and Hessians h (N, m, m) of N nodes
    with respect to m chart parameters, or v (), g (m,), h (m, m) at one
    point.  Built by ``variables``; plain numbers act as constants."""

    __slots__ = ("v", "g", "h")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    @staticmethod
    def variables(values):
        """One Jet per parameter of the points ``values`` (..., m)."""
        x = np.asarray(values, dtype=float)
        m = x.shape[-1]
        eye = np.eye(m)
        hess = np.zeros(x.shape + (m,))
        return [Jet(x[..., i].copy(),
                    np.broadcast_to(eye[i], x.shape), hess) for i in range(m)]

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.g + other.g, self.h + other.h)
        return Jet(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.g, -self.h)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            v1, v2 = self.v[..., None], other.v[..., None]
            g1, g2 = self.g, other.g
            outer = g1[..., :, None] * g2[..., None, :]
            return Jet(self.v * other.v, g1 * v2 + g2 * v1,
                       self.h * v2[..., None] + other.h * v1[..., None]
                       + outer + outer.swapaxes(-1, -2))
        return Jet(self.v * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    def _reciprocal(self):
        x = self.v
        return self._chain(1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3)

    def __truediv__(self, other):
        return self * (other._reciprocal() if isinstance(other, Jet) else 1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, k):
        if k < 0:
            return 1.0 / self ** (-k)
        out = 1.0
        for _ in range(k):
            out = out * self
        return out

    def _chain(self, fv, d1, d2):
        """f(self) from the values of f, f' and f'' at self.v."""
        d1 = d1[..., None]
        return Jet(fv, d1 * self.g,
                   d1[..., None] * self.h
                   + (d2[..., None] * self.g)[..., :, None] * self.g[..., None, :])

    def sin(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self._chain(c, -s, -c)

    def exp(self):
        e = np.exp(self.v)
        return self._chain(e, e, e)


def _dispatch(jet_fn, array_fn, float_fn):
    return lambda x: (jet_fn if isinstance(x, Jet) else
                      array_fn if isinstance(x, np.ndarray) else float_fn)(x)


jet_sin = _dispatch(Jet.sin, np.sin, math.sin)
jet_cos = _dispatch(Jet.cos, np.cos, math.cos)
jet_exp = _dispatch(Jet.exp, np.exp, math.exp)


def stack_jets(entries, nodes, order):
    """Stack k jets (or plain numbers, or value arrays) evaluated at the
    nodes (N, m): values (N, k) and, up to ``order``, gradients (N, k, m) and
    Hessians (N, k, m, m), returned as a tuple of ``order + 1`` arrays."""
    count, m = nodes.shape
    out = [np.zeros((count, len(entries)) + (m,) * d) for d in range(order + 1)]
    for i, e in enumerate(entries):
        if isinstance(e, Jet):
            for arr, part in zip(out, (e.v, e.g, e.h)):
                arr[:, i] = part
        else:
            out[0][:, i] = e
    return tuple(out)


# -- patches ---------------------------------------------------------------------

class ConfigError(ValueError):
    """Malformed scenario configuration, such as a metric that is not
    positive definite somewhere on its chart."""


class GenericityError(RuntimeError):
    """The field violates the generic-position assumptions of the law."""


def _positive_definite(G, points):
    """Cholesky factors of the metric matrices G (N, n, n) at the chart
    points (N, n); the first node whose matrix is asymmetric beyond round-off
    (Cholesky reads only the lower triangle), or whose factorization fails,
    raises ConfigError."""
    GT = G.swapaxes(-1, -2)
    if not (G == GT).all():  # entries written differently may differ by round-off
        flat = len(G), -1
        skew = np.abs(G - GT).reshape(flat).max(axis=1)
        bad = np.flatnonzero(skew > 1e-12 * np.abs(G).reshape(flat).max(axis=1))
        if bad.size:
            raise ConfigError("metric not symmetric at chart point "
                              f"{[float(v) for v in points[bad[0]]]}")
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        for k, point in enumerate(points):  # locate the first bad node
            try:
                np.linalg.cholesky(G[k])
            except np.linalg.LinAlgError:
                raise ConfigError("metric not positive definite at chart point "
                                  f"{[float(v) for v in point]}") from None
        raise


class RiemannianPatch:
    """Chart of an n-manifold: box domain, metric callable, optional embedding.

    ``metric`` maps a list of n parameters (floats, node arrays or Jets) to an
    n x n nested list; ``chart_map`` maps parameters to ambient coordinates
    and is used for locating singular points, not for geometry.  Every method
    takes chart points as an (N, n) node array.
    """

    def __init__(self, dim, box, metric, chart_map=None, name=""):
        self.n = dim
        self.box = [tuple(map(float, b)) for b in box]
        if len(self.box) != dim:
            raise ValueError("box must have one interval per dimension")
        self._metric = metric
        self._chart_map = chart_map
        self.name = name

    def metric_jets(self, x):
        """Metric G (N, n, n) with its derivatives dG[..., k, l, i] and
        d2G[..., k, l, i, j] along the chart parameters, at the nodes x."""
        x = np.asarray(x, dtype=float)
        n = self.n
        raw = self._metric(Jet.variables(x))
        G, dG, d2G = stack_jets([e for row in raw for e in row], x, 2)
        return (G.reshape(-1, n, n), dG.reshape(-1, n, n, n),
                d2G.reshape(-1, n, n, n, n))

    def metric_values(self, x):
        x = np.asarray(x, dtype=float)
        raw = self._metric(list(x.T))
        (G,) = stack_jets([e for row in raw for e in row], x, 0)
        G = G.reshape(-1, self.n, self.n)
        _positive_definite(G, x)
        return G

    def ambient(self, x):
        x = np.asarray(x, dtype=float)
        if self._chart_map is None:
            return x
        return stack_jets(self._chart_map(list(x.T)), x, 0)[0]


class BoundaryPatch:
    """Chart of a boundary component inside a parent patch.

    ``embed`` maps the n-1 boundary parameters into the parent chart and
    ``outward`` gives an outward-pointing vector there (parent-chart
    components); the adapted frame normalizes it into e_1.  Both map the
    parameter Jets of N boundary nodes to Jets or plain numbers.
    """

    def __init__(self, parent, box, embed, outward, name=""):
        self.parent = parent
        self.m = parent.n - 1
        self.box = [tuple(map(float, b)) for b in box]
        if len(self.box) != self.m:
            raise ValueError("boundary box must have n-1 intervals")
        self._embed = embed
        self._outward = outward
        self.name = name

    def embed_jets(self, t):
        return self._embed(Jet.variables(t))

    def outward_jets(self, t):
        return self._outward(Jet.variables(t))


# -- frames ---------------------------------------------------------------------

@dataclass
class FrameData:
    frame: np.ndarray                      # rows are the frame vectors e_A
    metric: np.ndarray
    omega: np.ndarray                      # omega[A,B,i] on coordinate directions
    curvature: np.ndarray                  # curvature[A,B,i,j] on coordinate bivectors

    @property
    def orthonormality_residual(self):
        return float(np.max(np.abs(self.frame @ self.metric @ self.frame.T
                                   - np.eye(len(self.frame)))))


def metric_inner(G, dG, a, da, b, db):
    """<a, b> under the metric G and its parameter gradient, to first order.

    G is (N, n, n) with dG[..., k, l, i] its derivative along parameter i; b
    is (N, n) with db (N, n, m); a is (N, n) with da (N, n, m), or a stack of
    rows (N, r, n) with da (N, r, n, m), which pairs every row with b.
    """
    Gb = G @ b[..., None]                                   # Gb[k] = G[k,l] b[l], a column
    dGb = (b[..., None, None, :] @ dG)[..., 0, :] + G @ db  # dG[k,l,i] b[l] + G[k,l] db[l,i]
    # <a, b> = a[k] Gb[k] and d<a, b>[i] = Gb[k] da[k,i] + a[k] dGb[k,i]
    if a.ndim > b.ndim:
        return (a @ Gb)[..., 0], (Gb[:, None].swapaxes(-1, -2) @ da)[..., 0, :] + a @ dGb
    return (a[:, None] @ Gb)[:, 0, 0], (Gb.swapaxes(-1, -2) @ da + a[:, None] @ dGb)[:, 0]


def _gram_schmidt(G, dG, vectors, dvectors, points):
    """Orthonormalize the rows of ``vectors`` (N, r, n) against G, to first
    order, at the nodes ``points`` (N, m).

    dG[..., k, l, i] and dvectors[..., r, k, i] are the derivatives of G and
    of the rows along parameter i; the frame comes back with
    dframe[..., A, k, i].  The first node whose rows are linearly dependent
    raises ConfigError.
    """
    rows, drows = [], []
    for w, dw in zip(np.moveaxis(vectors, -2, 0), np.moveaxis(dvectors, -3, 0)):
        for e, de in zip(rows, drows):
            c, dc = metric_inner(G, dG, w, dw, e, de)
            w = w - c[..., None] * e
            dw = dw - c[..., None, None] * de - e[..., :, None] * dc[..., None, :]
        norm2, dnorm2 = metric_inner(G, dG, w, dw, w, dw)
        if np.any(norm2 <= 1e-14):
            for k in range(len(points)) if len(points) > 1 else ():  # locate the first bad node
                _gram_schmidt(*(arr[k:k + 1] for arr in (G, dG, vectors, dvectors, points)))
            raise ConfigError("degenerate frame: outward vector and tangents linearly dependent "
                              f"at point {[float(v) for v in points[np.argmax(norm2 <= 1e-14)]]}")
        inv = 1.0 / np.sqrt(norm2)
        rows.append(w * inv[..., None])
        drows.append(dw * inv[..., None, None]
                     - (w[..., :, None] * dnorm2[..., None, :])
                     * (0.5 * inv ** 3)[..., None, None])
    return np.stack(rows, axis=-2), np.stack(drows, axis=-3)


class _GeometryCore:
    """Metric, Christoffel symbols and the lowered Riemann tensor at a batch
    of chart points (N, n), from one evaluation of the metric jets."""

    __slots__ = ("G", "dG", "sqrt_det", "Gamma", "riemann")

    def __init__(self, patch, points):
        points = np.asarray(points, dtype=float)
        G, dG, d2G = patch.metric_jets(points)
        L = _positive_definite(G, points)
        # first kind: low[l,i,j] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
        low = 0.5 * (np.einsum("...jli->...lij", dG) + np.einsum("...ilj->...lij", dG)
                     - np.einsum("...ijl->...lij", dG))
        low2 = low.reshape(len(G), patch.n, -1)                   # low2[l,ij] = low[l,i,j]
        Gamma = (np.linalg.inv(G) @ low2).reshape(low.shape)      # Ginv[k,l] low[l,i,j]
        # R[i,j,m,p] = <R(d_i, d_j) d_m, d_p>
        R = 0.5 * (np.einsum("...pjmi->...ijmp", d2G) - np.einsum("...jmpi->...ijmp", d2G)
                   - np.einsum("...pimj->...ijmp", d2G) + np.einsum("...impj->...ijmp", d2G))
        # P[im,jp] = Gamma[q,im] low[q,jp]; R[i,j,m,p] += P[i,m,j,p] - P[j,m,i,p]
        P = (Gamma.reshape(low2.shape).swapaxes(1, 2) @ low2).reshape(R.shape)
        R += P.transpose(0, 1, 3, 2, 4) - P.transpose(0, 3, 1, 2, 4)
        self.G = G
        self.dG = dG
        self.sqrt_det = np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1)
        self.Gamma = Gamma
        self.riemann = R


def _frame_connection(core, E, dE, dx):
    """Connection and curvature values of the frame rows E along a map into
    the chart with pushforward dx[..., k, i] = d x^k / d t_i.

    dE[..., A, k, i] is the derivative of e_A^k along t_i; omega[..., A, B, i]
    and curvature[..., A, B, i, j] come back on the t coordinate directions.
    """
    N, n, _, m = dE.shape
    GE = core.Gamma.reshape(N, n * n, n) @ E.swapaxes(1, 2)  # GE[k,l,A] = Gamma^k_{lm} e_A^m
    # nabla[A,k,i] along direction i: d_i e_A^k + GE[k,l,A] dx^l_i
    nabla = dE + (GE.swapaxes(1, 2).reshape(N, n * n, n) @ dx).reshape(dE.shape)
    # omega[A,B,i] = nabla[A,k,i] G[k,l] e_B^l
    omega = (nabla.swapaxes(2, 3) @ (core.G @ E.swapaxes(1, 2))[:, None]).swapaxes(2, 3)
    omega = 0.5 * (omega - omega.swapaxes(-3, -2))  # kill roundoff asymmetry
    # curv[A,B,i,j] = e_A^m e_B^p R[l,r,m,p] dx^l_i dx^r_j: on index pairs,
    # curv[AB,ij] = EE[AB,mp] R[lr,mp] DX[lr,ij] with EE = E (x) E, DX = dx (x) dx
    EE = (E[:, :, None, :, None] * E[:, None, :, None, :]).reshape(N, n * n, n * n)
    DX = (dx[:, :, None, :, None] * dx[:, None, :, None, :]).reshape(N, n * n, m * m)
    curv = EE @ core.riemann.reshape(N, n * n, n * n).swapaxes(1, 2) @ DX
    return omega, curv.reshape(N, n, n, m, m)


def connection_curvature(patch, point):
    """Frame, connection values and curvature values at one chart point.

    The frame is Gram-Schmidt on the coordinate basis; omega[A,B,i] is its
    connection form on the i-th coordinate direction and curvature[A,B,i,j]
    the curvature form on the coordinate bivector (i, j), by the formula the
    boundary frames use.
    """
    n = patch.n
    core = _GeometryCore(patch, [point])
    eye = np.eye(n)
    E, dE = _gram_schmidt(core.G, core.dG, eye[None], np.zeros((1, n, n, n)), [point])
    omega, curv = _frame_connection(core, E, dE, eye[None])
    fd = FrameData(frame=E[0], metric=core.G[0], omega=omega[0],
                   curvature=curv[0])
    if fd.orthonormality_residual > 1e-9:
        raise ValueError("frame failed orthonormality check")
    return fd


def euler_form_density(patch, points):
    """Euler curvature density against the chart coordinates at the nodes
    points (N, n), as an (N,) array (zeros for odd n).

    chern's Euler form is alternating in the frame indices, so on the frame
    curvature R(E, E) it picks up det E = 1/sqrt(det g) against the
    coordinate curvature: no frame is built.
    """
    n = patch.n
    if n % 2:
        return np.zeros(len(points))
    core = _GeometryCore(patch, points)
    curv = core.riemann.transpose(0, 3, 4, 1, 2)  # curv[m,p,i,j] = R[i,j,m,p]
    return evaluate_template(euler_template(n), None, None, None, curv) / core.sqrt_det


# -- boundary-adapted frames ------------------------------------------------------

@dataclass
class BoundaryFrame:
    """Everything a section pullback needs at a batch of boundary nodes; every
    array has a leading node axis.

    Frame and metric carry values and first t-derivatives only: section
    pullbacks need the derivatives of their frame components for theta and
    of the frame for omega, and nothing reads second derivatives.
    """
    x_jets: list                   # embedding as second-order jets in t
    metric: np.ndarray
    dmetric: np.ndarray            # dmetric[k,l,i] = d g_kl / d t_i
    normal: np.ndarray             # untwisted outward unit normal
    dnormal: np.ndarray            # dnormal[k,i]
    frame: np.ndarray              # adapted frame rows e_A
    dframe: np.ndarray             # dframe[A,k,i] = d e_A^k / d t_i
    omega: np.ndarray              # omega[A,B,i] on boundary coordinate directions
    curvature: np.ndarray          # curvature[A,B,i,j] on boundary bivectors
    orientation: np.ndarray        # sign of det[e_1 | dx/dt_1 | ...]


def boundary_frame(bpatch, t, frame_twist=None):
    """Adapted orthonormal frames at the boundary nodes t (N, m), outward
    normal first.

    The frame comes with values and first t-derivatives only, from a
    first-order Gram-Schmidt on the outward vector and the tangents: omega
    and the section pullbacks read no second derivatives.  The metric
    derivative along the boundary follows by the chain rule from the parent
    metric jets at x.  Gram-Schmidt keeps the sign of det[outward | dx], so
    flipping the last tangential vector where ``orientation`` is -1 makes the
    frame positively oriented in the ambient chart (the secondary-form
    template presumes oriented frames).  ``frame_twist`` maps t-jets to an
    n x n rotation R and replaces the frame E by R E; ``normal`` stays the
    untwisted e_1.
    """
    t = np.asarray(t, dtype=float)
    n = bpatch.parent.n
    x_jets = bpatch.embed_jets(t)
    x, dx, d2x = stack_jets(x_jets, t, 2)         # dx[k,i], d2x[k,i,j]
    core = _GeometryCore(bpatch.parent, x)
    G = core.G
    dG = core.dG @ dx[:, None]                    # dG[k,l,a] dx[a,i]

    outward, doutward = stack_jets(bpatch.outward_jets(t), t, 1)
    E, dE = _gram_schmidt(G, dG,
                          np.concatenate([outward[:, None], dx.swapaxes(1, 2)], axis=1),
                          np.concatenate([doutward[:, None], d2x.swapaxes(1, 2)], axis=1), t)
    normal, dnormal = E[:, 0].copy(), dE[:, 0].copy()
    det = np.linalg.det(np.concatenate([normal[:, :, None], dx], axis=2))
    orientation = np.where(det > 0, 1.0, -1.0)
    E[:, -1] *= orientation[:, None]
    dE[:, -1] *= orientation[:, None, None]
    if frame_twist is not None:
        rows = frame_twist(Jet.variables(t))
        R, dR = stack_jets([e for row in rows for e in row], t, 1)
        R, dR = R.reshape(-1, n, n), dR.reshape(-1, n, n, t.shape[1])
        # d(R E)[a,k,i] = dR[a,b,i] E[b,k] + R[a,b] dE[b,k,i]
        E, dE = (R @ E, (dR.swapaxes(2, 3) @ E[:, None]).swapaxes(2, 3)
                 + (R @ dE.reshape(dE.shape[0], n, -1)).reshape(dE.shape))
    omega, curv = _frame_connection(core, E, dE, dx)
    return BoundaryFrame(x_jets=x_jets, metric=G, dmetric=dG, normal=normal,
                         dnormal=dnormal, frame=E, dframe=dE, omega=omega,
                         curvature=curv, orientation=orientation)
