"""Numerical differential geometry on parametrized patches.

Differentiation is forward mode, truncated to the order that is consumed.  A
Jet carries a value, a gradient and a Hessian with respect to the chart
parameters, so Christoffel symbols (first metric derivatives) and curvature
(second derivatives) come out exact to roundoff.  Frames carry values and
first derivatives only, as small arrays: the connection form needs the first
derivatives of the frame and nothing reads its second ones.  Finite
differences appear only in tests, as independent oracles.

Frames follow the convention that e_1 is the outward unit normal on boundary
patches; curvature uses nabla e_A = sum_B omega(A,B) e_B and
Omega(A,B) = d omega(A,B) - sum_C omega(A,C) omega(C,B), under which the
round 2-sphere has Omega(1,2)(e_1, e_2) = -1 and the Euler density still
integrates to chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np


class Jet:
    """Value + gradient + Hessian with respect to m chart parameters.

    Gradient and Hessian are plain Python lists; chart dimensions are tiny
    (m <= 3) and list arithmetic beats array allocation by a wide margin.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = float(v)
        self.g = [float(x) for x in g]
        self.h = [[float(x) for x in row] for row in h]

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

    def sqrt(self):
        return self._chain(math.sqrt,
                           lambda x: 0.5 / math.sqrt(x),
                           lambda x: -0.25 / x ** 1.5)

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


def jet_sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else math.sqrt(x)


# -- patches ---------------------------------------------------------------------

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
        raw = self._metric(list(map(float, x)))
        G = np.array([[entry.v if isinstance(entry, Jet) else float(entry)
                       for entry in row] for row in raw])
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise ValueError(f"metric not positive definite at {list(x)}") from None
        return G

    def ambient(self, x):
        if self._chart_map is None:
            return np.asarray(x, dtype=float)
        return np.array([v.v if isinstance(v, Jet) else float(v)
                         for v in self._chart_map(list(map(float, x)))])


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

    def outward_jets(self, t, x_jets):
        jt = Jet.variables(list(t))
        return [as_jet(v, self.m) for v in self._outward(jt, x_jets)]


# -- frames ---------------------------------------------------------------------

@dataclass
class FrameData:
    point: np.ndarray
    frame: np.ndarray                      # rows are the frame vectors e_A
    metric: np.ndarray
    omega: np.ndarray | None = None        # omega[A,B,i] on coordinate directions
    curvature: np.ndarray | None = None    # curvature[A,B,i,j] on coordinate bivectors

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


def _gram_schmidt(G, vectors, dG=None, dvectors=None):
    """Orthonormalize the rows of ``vectors`` against G.

    Given dG[k, l, i] and dvectors[r, k, i], the derivatives of G and of the
    rows along parameter i, the frame derivatives are carried to first order;
    otherwise only values are computed and the derivatives come back None.
    """
    first = dvectors is not None
    rows, drows = [], []
    for r, w in enumerate(vectors):
        dw = dvectors[r] if first else None
        for e, de in zip(rows, drows):
            if first:
                c, dc = metric_inner(G, dG, w, dw, e, de)
                dw = dw - c * de - np.outer(e, dc)
            else:
                c = w @ G @ e
            w = w - c * e
        if first:
            norm2, dnorm2 = metric_inner(G, dG, w, dw, w, dw)
        else:
            norm2 = w @ G @ w
        if norm2 <= 1e-14:
            raise ValueError("degenerate frame candidate in Gram-Schmidt")
        inv = 1.0 / math.sqrt(norm2)
        rows.append(w * inv)
        drows.append(dw * inv - np.outer(w, dnorm2) * (0.5 * inv ** 3)
                     if first else None)
    return np.array(rows), (np.array(drows) if first else None)


def orthonormal_frame(patch, point, first=None):
    """Gram-Schmidt frame at a point; optionally seed with a leading vector."""
    n = patch.n
    G = patch.metric_values(point)
    vectors = []
    if first is not None:
        vectors.append(list(first))
    basis = list(np.eye(n))
    for b in basis:
        if len(vectors) == n:
            break
        trial = vectors + [list(b)]
        mat = np.array(trial)
        if np.linalg.matrix_rank(mat, tol=1e-12) == len(trial):
            vectors.append(list(b))
    E, _ = _gram_schmidt(G, np.array(vectors, dtype=float))
    fd = FrameData(point=np.asarray(point, dtype=float), frame=E, metric=G)
    if fd.orthonormality_residual > 1e-9:
        raise ValueError("frame failed orthonormality check")
    return fd


class _GeometryCore:
    """One evaluation pass shared by Christoffels, curvature, and frames."""

    __slots__ = ("G", "dG", "Gamma", "dGamma", "riemann")

    def __init__(self, patch, point):
        n = patch.n
        Gj = patch.metric_jets(point)
        G = np.array([[Gj[i][j].v for j in range(n)] for i in range(n)])
        dG = np.array([[Gj[i][j].g for j in range(n)] for i in range(n)])
        d2G = np.array([[Gj[i][j].h for j in range(n)] for i in range(n)])
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"metric not positive definite at {list(point)}") from None
        Ginv = np.linalg.inv(G)
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
        bracket = (np.einsum("jli->lij", dG) + np.einsum("ilj->lij", dG)
                   - np.einsum("ijl->lij", dG))
        Gamma = 0.5 * np.einsum("kl,lij->kij", Ginv, bracket)
        dGinv = -np.einsum("ka,abm,bl->klm", Ginv, dG, Ginv)
        dbracket = (np.einsum("jlim->lijm", d2G) + np.einsum("iljm->lijm", d2G)
                    - np.einsum("ijlm->lijm", d2G))
        dGamma = (0.5 * np.einsum("klm,lij->kijm", dGinv, bracket)
                  + 0.5 * np.einsum("kl,lijm->kijm", Ginv, dbracket))
        Rup = (np.einsum("pjmi->pijm", dGamma) - np.einsum("pimj->pijm", dGamma)
               + np.einsum("piq,qjm->pijm", Gamma, Gamma)
               - np.einsum("pjq,qim->pijm", Gamma, Gamma))
        self.G = G
        self.dG = dG
        self.Gamma = Gamma
        self.dGamma = dGamma
        self.riemann = np.einsum("pq,qijm->ijmp", G, Rup)


def christoffels(patch, point):
    """Christoffel symbols and their first derivatives from metric jets."""
    core = _GeometryCore(patch, point)
    return core.Gamma, core.dGamma


def riemann_lowered(patch, point):
    """Curvature tensor R[i,j,m,p] = <R(d_i, d_j) d_m, d_p>."""
    return _GeometryCore(patch, point).riemann


def connection_curvature(patch, point):
    """Frame, connection values and curvature values at a point.

    omega[A,B,i] is the connection form of the patch frame on the i-th
    coordinate direction; curvature[A,B,i,j] the curvature form on the
    coordinate bivector (i, j).
    """
    n = patch.n
    core = _GeometryCore(patch, point)
    G = core.G
    E, dE = _gram_schmidt(G, np.eye(n), core.dG, np.zeros((n, n, n)))  # dE[A,k,i]
    Gamma = core.Gamma
    R = core.riemann
    # nabla_{d_i} e_A = (d_i E[A,k] + Gamma^k_im E[A,m]) d_k
    nabla = np.einsum("Aki->Aik", dE) + np.einsum("kim,Am->Aik", Gamma, E)
    omega = np.einsum("Aik,kl,Bl->ABi", nabla, G, E)
    omega = 0.5 * (omega - omega.transpose(1, 0, 2))  # kill roundoff asymmetry
    curv = np.einsum("ijmp,Am,Bp->ABij", R, E, E)
    fd = FrameData(point=np.asarray(point, dtype=float), frame=E, metric=G,
                   omega=omega, curvature=curv)
    if fd.orthonormality_residual > 1e-9:
        raise ValueError("frame failed orthonormality check")
    return fd


def euler_form_density(patch, point):
    """Euler curvature density against the chart coordinates (0 for odd n)."""
    n = patch.n
    if n % 2:
        return 0.0
    m = n // 2
    # only frame values enter the density, so no frame derivatives
    core = _GeometryCore(patch, point)
    E, _ = _gram_schmidt(core.G, np.eye(n))
    omega_val = np.einsum("ijmp,Am,Bp->ABij", core.riemann, E, E)
    total = 0.0
    idx = list(range(n))
    perms = [(p, _sign(p)) for p in permutations(idx)]
    for pa, sa in perms:
        for ps, ss in perms:
            prod = sa * ss
            for t in range(m):
                prod *= omega_val[pa[2 * t], pa[2 * t + 1], ps[2 * t], ps[2 * t + 1]]
                if prod == 0.0:
                    break
            total += prod
    scale = (-1.0) ** m / ((2 * math.pi) ** m * 2 ** m * math.factorial(m) * 2 ** m)
    return float(total * scale)


def _sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


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


def boundary_frame(bpatch, t, frame_twist=None, oriented=True):
    """Adapted orthonormal frame along the boundary, outward normal first.

    The frame comes with values and first t-derivatives only, from a
    first-order Gram-Schmidt on the outward vector and the tangents: omega
    and the section pullbacks read no second derivatives.  The metric
    derivative along the boundary follows by the chain rule from the parent
    metric jets at x.  With ``oriented`` the frame is corrected to be positively
    oriented in the ambient chart (the secondary-form template presumes
    oriented frames) by flipping the last tangential vector; index
    computations pass False to keep the frame aligned with the boundary
    parameters instead.  ``frame_twist`` maps t-jets to an n x n rotation R
    and replaces the frame E by R E; ``normal`` stays the untwisted e_1.
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

    outward, doutward = jet_first_order(bpatch.outward_jets(t, x_jets), m)
    E, dE = _gram_schmidt(G, np.vstack([outward, dx.T]), dG,
                          np.concatenate([doutward[None], d2x.transpose(1, 0, 2)]))
    normal, dnormal = E[0].copy(), dE[0].copy()
    if oriented and np.linalg.det(E) < 0:
        E[-1], dE[-1] = -E[-1], -dE[-1]
    if frame_twist is not None:
        R, dR = zip(*(jet_first_order(row, m)
                      for row in frame_twist(Jet.variables(list(t)))))
        R, dR = np.array(R), np.array(dR)
        E, dE = (R @ E, np.einsum("abi,bk->aki", dR, E)
                 + np.einsum("ab,bki->aki", R, dE))

    Gamma, R4 = core.Gamma, core.riemann
    # nabla along boundary direction i: d_i e_A^k + Gamma^k_{lm} dx^l_i e_A^m
    nabla = (np.einsum("Aki->Aik", dE)
             + np.einsum("klm,li,Am->Aik", Gamma, dx, E))
    omega = np.einsum("Aik,kl,Bl->ABi", nabla, G, E)
    omega = 0.5 * (omega - omega.transpose(1, 0, 2))
    curv = np.einsum("lrmp,li,rj,Am,Bp->ABij", R4, dx, dx, E, E)

    orientation = 1.0 if np.linalg.det(np.column_stack([normal, dx])) > 0 else -1.0
    return BoundaryFrame(t=np.asarray(t, dtype=float), x=x, x_jets=x_jets,
                         dx=dx, metric=G, dmetric=dG, normal=normal,
                         dnormal=dnormal, frame=E, dframe=dE, omega=omega,
                         curvature=curv, orientation=orientation)
