"""Numerical differential geometry on parametrized patches.

Differentiation is forward mode, truncated to the order that is consumed.  A
Jet carries a value, a gradient and a Hessian with respect to the chart
parameters, so Christoffel symbols (first metric derivatives) and curvature
(second derivatives) come out exact to roundoff.  Curvature is computed once,
in coordinates: the lowered Riemann tensor comes straight from the second
metric derivatives and the Christoffel symbols of the first kind.  The Euler
density needs no frame; frames are built only where they are read (boundary
frames and ``connection_curvature``) and carry values and first derivatives
only, as small arrays: the connection form needs the first derivatives of
the frame and nothing reads its second ones.  Finite differences appear only
in tests, as independent oracles.

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


class Jet:
    """Value + gradient + Hessian with respect to m chart parameters, built
    by ``constant`` and ``variables`` and closed under the arithmetic below.

    Gradient and Hessian are plain Python lists; chart dimensions are tiny
    (m <= 3) and list arithmetic beats array allocation by a wide margin.
    """

    __slots__ = ("v", "g", "h")

    @staticmethod
    def constant(value, m):
        j = Jet.__new__(Jet)
        j.v = float(value)
        j.g = [0.0] * m
        j.h = [[0.0] * m for _ in range(m)]
        return j

    @staticmethod
    def variables(values):
        m = len(values)
        out = []
        for i, v in enumerate(values):
            j = Jet.constant(v, m)
            j.g[i] = 1.0
            out.append(j)
        return out

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet.constant(float(other), len(self.g))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        j = Jet.__new__(Jet)
        j.v = self.v + o.v
        j.g = [a + b for a, b in zip(self.g, o.g)]
        j.h = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.h, o.h)]
        return j

    __radd__ = __add__

    def __neg__(self):
        j = Jet.__new__(Jet)
        j.v = -self.v
        j.g = [-a for a in self.g]
        j.h = [[-a for a in row] for row in self.h]
        return j

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        j = Jet.__new__(Jet)
        j.v = self.v - o.v
        j.g = [a - b for a, b in zip(self.g, o.g)]
        j.h = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.h, o.h)]
        return j

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        j = Jet.__new__(Jet)
        v1, v2, g1, g2 = self.v, o.v, self.g, o.g
        j.v = v1 * v2
        j.g = [a * v2 + b * v1 for a, b in zip(g1, g2)]
        j.h = [[h1 * v2 + h2 * v1 + g1[i] * g2[k] + g2[i] * g1[k]
                for k, (h1, h2) in enumerate(zip(r1, r2))]
               for i, (r1, r2) in enumerate(zip(self.h, o.h))]
        return j

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o._chain(lambda x: 1.0 / x,
                               lambda x: -1.0 / x ** 2,
                               lambda x: 2.0 / x ** 3)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return 1.0 / self ** (-k)
        out = Jet.constant(1.0, len(self.g))
        for _ in range(k):
            out = out * self
        return out

    def _chain(self, f, df, d2f):
        fv, d1, d2 = f(self.v), df(self.v), d2f(self.v)
        j = Jet.__new__(Jet)
        j.v = fv
        j.g = [d1 * a for a in self.g]
        j.h = [[d1 * h + d2 * self.g[i] * self.g[k]
                for k, h in enumerate(row)]
               for i, row in enumerate(self.h)]
        return j

    def sin(self):
        return self._chain(math.sin, math.cos, lambda x: -math.sin(x))

    def cos(self):
        return self._chain(math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x))

    def exp(self):
        return self._chain(math.exp, math.exp, math.exp)

    def __repr__(self):
        return f"Jet({self.v!r})"


def as_jet(x, m):
    return x if isinstance(x, Jet) else Jet.constant(x, m)


def jet_sin(x):
    return x.sin() if isinstance(x, Jet) else math.sin(x)


def jet_cos(x):
    return x.cos() if isinstance(x, Jet) else math.cos(x)


def jet_exp(x):
    return x.exp() if isinstance(x, Jet) else math.exp(x)


# -- patches ---------------------------------------------------------------------

class ConfigError(ValueError):
    """Malformed scenario configuration, such as a metric that is not
    positive definite somewhere on its chart."""


class GenericityError(RuntimeError):
    """The field violates the generic-position assumptions of the law."""


def _positive_definite(G, point):
    """Cholesky factor of the metric matrix G at the chart point; raise
    ConfigError when the factorization fails."""
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise ConfigError("metric not positive definite at chart point "
                          f"{[float(v) for v in point]}") from None


class RiemannianPatch:
    """Chart of an n-manifold: box domain, metric callable, optional embedding.

    ``metric`` maps a list of n parameters (floats or Jets) to an n x n
    nested list; ``chart_map`` maps parameters to ambient coordinates and is
    used for locating singular points, not for geometry.
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
        jx = Jet.variables(list(x))
        raw = self._metric(jx)
        return [[as_jet(entry, self.n) for entry in row] for row in raw]

    def metric_values(self, x):
        G = np.array(self._metric(list(map(float, x))), dtype=float)
        _positive_definite(G, x)
        return G

    def ambient(self, x):
        if self._chart_map is None:
            return np.asarray(x, dtype=float)
        return np.array(self._chart_map(list(map(float, x))), dtype=float)


class BoundaryPatch:
    """Chart of a boundary component inside a parent patch.

    ``embed`` maps the n-1 boundary parameters into the parent chart and
    ``outward`` gives an outward-pointing vector there (parent-chart
    components); the adapted frame normalizes it into e_1.
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
        jt = Jet.variables(list(t))
        return [as_jet(v, self.m) for v in self._embed(jt)]

    def outward_jets(self, t):
        jt = Jet.variables(list(t))
        return [as_jet(v, self.m) for v in self._outward(jt)]


# -- frames ---------------------------------------------------------------------

@dataclass
class FrameData:
    point: np.ndarray
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

    G is (n, n) with dG[k, l, i] its derivative along parameter i; b is (n,)
    with db[k, i]; a is (n,) with da (n, m), or a stack of rows (r, n) with
    da (r, n, m), which pairs every row with b.
    """
    Gb = G @ b
    dGb = dG.transpose(0, 2, 1) @ b + G @ db
    return a @ Gb, Gb @ da + a @ dGb


def _gram_schmidt(G, dG, vectors, dvectors):
    """Orthonormalize the rows of ``vectors`` against G, to first order.

    dG[k, l, i] and dvectors[r, k, i] are the derivatives of G and of the
    rows along parameter i; the frame comes back with dframe[A, k, i].
    """
    rows, drows = [], []
    for w, dw in zip(vectors, dvectors):
        for e, de in zip(rows, drows):
            c, dc = metric_inner(G, dG, w, dw, e, de)
            w = w - c * e
            dw = dw - c * de - np.outer(e, dc)
        norm2, dnorm2 = metric_inner(G, dG, w, dw, w, dw)
        if norm2 <= 1e-14:
            raise ValueError("degenerate frame candidate in Gram-Schmidt")
        inv = 1.0 / math.sqrt(norm2)
        rows.append(w * inv)
        drows.append(dw * inv - np.outer(w, dnorm2) * (0.5 * inv ** 3))
    return np.array(rows), np.array(drows)


class _GeometryCore:
    """Metric, Christoffel symbols and the lowered Riemann tensor at a chart
    point, from one evaluation of the metric jets."""

    __slots__ = ("G", "dG", "sqrt_det", "Gamma", "riemann")

    def __init__(self, patch, point):
        n = patch.n
        Gj = patch.metric_jets(point)
        G = np.array([[Gj[i][j].v for j in range(n)] for i in range(n)])
        L = _positive_definite(G, point)
        dG = np.array([[Gj[i][j].g for j in range(n)] for i in range(n)])
        d2G = np.array([[Gj[i][j].h for j in range(n)] for i in range(n)])
        # first kind: low[l,i,j] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
        low = 0.5 * (np.einsum("jli->lij", dG) + np.einsum("ilj->lij", dG)
                     - np.einsum("ijl->lij", dG))
        Gamma = np.einsum("kl,lij->kij", np.linalg.inv(G), low)
        # R[i,j,m,p] = <R(d_i, d_j) d_m, d_p>
        R = 0.5 * (np.einsum("pjmi->ijmp", d2G) - np.einsum("jmpi->ijmp", d2G)
                   - np.einsum("pimj->ijmp", d2G) + np.einsum("impj->ijmp", d2G))
        R += (np.einsum("qjp,qim->ijmp", low, Gamma)
              - np.einsum("qip,qjm->ijmp", low, Gamma))
        self.G = G
        self.dG = dG
        self.sqrt_det = float(np.prod(np.diag(L)))
        self.Gamma = Gamma
        self.riemann = R


def _frame_connection(core, E, dE, dx):
    """Connection and curvature values of the frame rows E along a map into
    the chart with pushforward dx[k,i] = d x^k / d t_i.

    dE[A,k,i] is the derivative of e_A^k along t_i; omega[A,B,i] and
    curvature[A,B,i,j] come back on the t coordinate directions.
    """
    # nabla along direction i: d_i e_A^k + Gamma^k_{lm} dx^l_i e_A^m
    nabla = (np.einsum("Aki->Aik", dE)
             + np.einsum("klm,li,Am->Aik", core.Gamma, dx, E))
    omega = np.einsum("Aik,kl,Bl->ABi", nabla, core.G, E)
    omega = 0.5 * (omega - omega.transpose(1, 0, 2))  # kill roundoff asymmetry
    curv = np.einsum("lrmp,li,rj,Am,Bp->ABij", core.riemann, dx, dx, E, E)
    return omega, curv


def connection_curvature(patch, point):
    """Frame, connection values and curvature values at a point.

    The frame is Gram-Schmidt on the coordinate basis; omega[A,B,i] is its
    connection form on the i-th coordinate direction and curvature[A,B,i,j]
    the curvature form on the coordinate bivector (i, j), by the formula the
    boundary frames use.
    """
    n = patch.n
    core = _GeometryCore(patch, point)
    eye = np.eye(n)
    E, dE = _gram_schmidt(core.G, core.dG, eye, np.zeros((n, n, n)))
    omega, curv = _frame_connection(core, E, dE, eye)
    fd = FrameData(point=np.asarray(point, dtype=float), frame=E,
                   metric=core.G, omega=omega, curvature=curv)
    if fd.orthonormality_residual > 1e-9:
        raise ValueError("frame failed orthonormality check")
    return fd


def euler_form_density(patch, point):
    """Euler curvature density against the chart coordinates (0 for odd n).

    chern's Euler form is alternating in the frame indices, so on the frame
    curvature R(E, E) it picks up det E = 1/sqrt(det g) against the
    coordinate curvature: no frame is built.
    """
    n = patch.n
    if n % 2:
        return 0.0
    core = _GeometryCore(patch, point)
    curv = core.riemann.transpose(2, 3, 0, 1)  # curv[m,p,i,j] = R[i,j,m,p]
    return float(evaluate_template(euler_template(n), None, None, None, curv)
                 / core.sqrt_det)


# -- boundary-adapted frames ------------------------------------------------------

@dataclass
class BoundaryFrame:
    """Everything a section pullback needs at one boundary parameter point.

    Frame and metric carry values and first t-derivatives only: section
    pullbacks need the derivatives of their frame components for theta and
    of the frame for omega, and nothing reads second derivatives.
    """
    t: np.ndarray
    x: np.ndarray
    x_jets: list                   # embedding as second-order jets in t
    dx: np.ndarray                 # dx[k,i] = d x^k / d t_i
    metric: np.ndarray
    dmetric: np.ndarray            # dmetric[k,l,i] = d g_kl / d t_i
    normal: np.ndarray             # untwisted outward unit normal
    dnormal: np.ndarray            # dnormal[k,i]
    frame: np.ndarray              # adapted frame rows e_A
    dframe: np.ndarray             # dframe[A,k,i] = d e_A^k / d t_i
    omega: np.ndarray              # omega[A,B,i] on boundary coordinate directions
    curvature: np.ndarray          # curvature[A,B,i,j] on boundary bivectors
    orientation: float             # sign of det[e_1 | dx/dt_1 | ...]


def jet_first_order(values, m):
    """Values and gradients of a list of jets (or floats) in m parameters."""
    jets = [as_jet(v, m) for v in values]
    return (np.array([j.v for j in jets]),
            np.array([j.g for j in jets]).reshape(len(jets), m))


def boundary_frame(bpatch, t, frame_twist=None):
    """Adapted orthonormal frame along the boundary, outward normal first.

    The frame comes with values and first t-derivatives only, from a
    first-order Gram-Schmidt on the outward vector and the tangents: omega
    and the section pullbacks read no second derivatives.  The metric
    derivative along the boundary follows by the chain rule from the parent
    metric jets at x.  Gram-Schmidt keeps the sign of det[outward | dx], so
    flipping the last tangential vector when ``orientation`` is -1 makes the
    frame positively oriented in the ambient chart (the secondary-form
    template presumes oriented frames).  ``frame_twist`` maps t-jets to an
    n x n rotation R and replaces the frame E by R E; ``normal`` stays the
    untwisted e_1.
    """
    parent = bpatch.parent
    m = bpatch.m
    x_jets = bpatch.embed_jets(t)
    x = np.array([c.v for c in x_jets])
    dx = np.array([c.g for c in x_jets])          # [k,i]
    d2x = np.array([c.h for c in x_jets])         # [k,i,j]
    core = _GeometryCore(parent, x)
    G = core.G
    dG = np.einsum("kla,ai->kli", core.dG, dx)

    outward, doutward = jet_first_order(bpatch.outward_jets(t), m)
    E, dE = _gram_schmidt(G, dG, np.vstack([outward, dx.T]),
                          np.concatenate([doutward[None], d2x.transpose(1, 0, 2)]))
    normal, dnormal = E[0].copy(), dE[0].copy()
    orientation = 1.0 if np.linalg.det(np.column_stack([normal, dx])) > 0 else -1.0
    if orientation < 0:
        E[-1], dE[-1] = -E[-1], -dE[-1]
    if frame_twist is not None:
        R, dR = zip(*(jet_first_order(row, m)
                      for row in frame_twist(Jet.variables(list(t)))))
        R, dR = np.array(R), np.array(dR)
        E, dE = (R @ E, np.einsum("abi,bk->aki", dR, E)
                 + np.einsum("ab,bki->aki", R, dE))
    omega, curv = _frame_connection(core, E, dE, dx)
    return BoundaryFrame(t=np.asarray(t, dtype=float), x=x, x_jets=x_jets,
                         dx=dx, metric=G, dmetric=dG, normal=normal,
                         dnormal=dnormal, frame=E, dframe=dE, omega=omega,
                         curvature=curv, orientation=orientation)
