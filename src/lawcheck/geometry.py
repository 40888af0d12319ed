"""Numerical differential geometry on parametrized patches, batched over nodes.

Every layer takes N chart (or boundary) points as an (N, dim) array, in
chunks of ``node_chunks`` when a quadrature passes its grid.  Derivatives are
forward mode, truncated Taylor arithmetic (Griewank & Walther 2008): Jets,
node axis last, for the boundary embedding (second order, for d2x), outward
vectors and fields; the derivative program of the compiled metric
(``expressions``) for the metric, second order only where a curvature
follows.  Frames carry first derivatives only, as nothing reads second ones.
Two idioms contract:
- the metric layer is node-last and knows its structure: ``metric_jets``
  keeps dG, the Hessians and L^-1 as maps from the indices that are not
  structurally zero (a literal 0 entry, a derivative the program drops) to
  (N,) arrays, and the one Cholesky routine, the Christoffel symbols and the
  curvature on index pairs i < j (of ``pairs``) add only the products of
  entries present, with index lists built once per structure: a diagonal
  metric multiplies no zeros, and a dense one runs the same code;
- frames are node-first, parameter axes right after the node axis
  (``stack_jets``, ``_node_first``), so a frame contraction is one stacked
  matmul (``@``) per node, its index formula in a comment, with no einsum and
  no transposed view as an operand (a contiguous copy is read several times
  faster).
Connection and curvature values keep the layouts of ``templates``,
omega[:, A, B, i] and curv[:, I, J] on index pairs.  Finite differences
appear only in tests, as independent oracles.

Frames follow the convention that e_1 is the outward unit normal on boundary
patches, whatever outward vector the patch gives; no sign is applied to
them, as Phi is odd in e_n just as the measure is odd in the boundary chart
(see ``adapted_frame``).  Curvature uses
nabla e_A = sum_B omega(A,B) e_B and
Omega(A,B) = d omega(A,B) - sum_C omega(A,C) omega(C,B), under which the
round 2-sphere has Omega(1,2)(e_1, e_2) = -1 and the Euler density still
integrates to chi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

import numpy as np

from . import ConfigError, GenericityError
from .templates import euler_template, evaluate_template, pairs, phi_template

CHUNK_ENTRIES = 5184  # metric entries per batched evaluation (576 nodes at n = 3)


def node_chunks(count, n):
    """Slices of consecutive nodes that cover range(count), for geometry of
    dimension n: each holds CHUNK_ENTRIES // n^2 nodes (at least one), 1296
    at n = 2 and 576 at n = 3.  The chunked layers' traced peaks, in arrays
    of one float per node, are about 22 (Euler density) and 76 (boundary
    frame) at n = 2 and 244 (boundary frame, with curvature) at n = 3."""
    size = max(1, CHUNK_ENTRIES // n ** 2)
    return [slice(k, k + size) for k in range(0, count, size)]


def _transposed(a):
    """``a`` with its last two axes swapped, as a contiguous array: a stacked
    matmul reads a transposed view several times more slowly than a copy."""
    return np.ascontiguousarray(a.swapaxes(-1, -2))


class Jet:
    """Values v (N,), gradients g (m, N) and Hessians h (m, m, N) of N nodes
    with respect to m chart parameters, or v (), g (m,), h (m, m) at one
    point; h is None at first order, and in every result a first-order jet
    takes part in.  The node axis is last, so each numpy operation runs its
    inner loop over the nodes, and a node array (N,) or a plain number acts
    as a constant.  Built by ``variables``."""

    __slots__ = ("v", "g", "h")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    @staticmethod
    def variables(values, order):
        """One Jet per parameter of the points ``values`` (..., m), of ``order`` 1 or 2."""
        x = np.asarray(values, dtype=float)
        m = x.shape[-1]
        shape = (m, m) + x.shape[:-1]
        hess = np.zeros(shape) if order == 2 else None
        grads = np.zeros(shape)
        grads[np.arange(m), np.arange(m)] = 1.0  # grads[i, i, ...] = 1
        return [Jet(x[..., i].copy(), grads[i], hess) for i in range(m)]

    def __add__(self, other):
        if isinstance(other, Jet):
            h = None if self.h is None or other.h is None else self.h + other.h
            return Jet(self.v + other.v, self.g + other.g, h)
        return Jet(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.g, None if self.h is None else -self.h)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v * other, self.g * other, None if self.h is None else self.h * other)
        v1, v2, g1, g2 = self.v, other.v, self.g, other.g
        h = None
        if self.h is not None and other.h is not None:
            outer = g1[:, None] * g2[None, :]  # outer[i,j] = g1[i] g2[j]
            h = self.h * v2 + other.h * v1 + outer + outer.swapaxes(0, 1)
        return Jet(v1 * v2, g1 * v2 + g2 * v1, h)

    __rmul__ = __mul__

    def _reciprocal(self):
        x = self.v
        return self._chain(1.0 / x, -1.0 / x ** 2, None if self.h is None else 2.0 / x ** 3)

    def __truediv__(self, other):
        return self * (other._reciprocal() if isinstance(other, Jet) else 1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, k):
        if k < 0:
            return 1.0 / self ** (-k)
        if k < 2:
            return self if k else 1.0
        x = self.v
        return self._chain(x ** k, k * x ** (k - 1),
                           None if self.h is None else k * (k - 1) * x ** (k - 2))

    def _chain(self, fv, d1, d2):
        """f(self) from the values of f, f' and, at second order, f'' at self.v."""
        g = self.g
        h = None if self.h is None else d1 * self.h + (d2 * g)[:, None] * g[None, :]
        return Jet(fv, d1 * g, h)

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
    nodes (N, m): values (N, k) and, up to ``order``, gradients (N, m, k) and
    Hessians (N, m, m, k), returned as a tuple of ``order + 1`` arrays.  The
    stacks put the node axis first, as the contractions read them; each jet
    part, node axis last, is written through a transposed view of its stack."""
    count, m = nodes.shape
    out = [np.zeros((count,) + (m,) * d + (len(entries),)) for d in range(order + 1)]
    node_last = [arr.transpose(*range(1, d + 2), 0) for d, arr in enumerate(out)]  # [..., k, N]
    for i, e in enumerate(entries):
        if isinstance(e, Jet):
            if order == 2 and e.h is None:
                raise ValueError("a first-order jet has no Hessians to stack")
            for arr, part in zip(node_last, (e.v, e.g, e.h)):
                arr[..., i, :] = part
        else:
            out[0][:, i] = e
    return tuple(out)


def grid_points(axes):
    """Product grid of the 1-D node arrays ``axes`` as (N, len(axes)) points,
    the last axis varying fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


# -- patches ---------------------------------------------------------------------

def _node_first(entries, shape):
    """The array of ``shape``, node axis first, holding the node-last
    ``entries`` {index: (N,)} and zeros elsewhere."""
    out = np.zeros(shape)
    for index, values in entries.items():
        out[(slice(None), *index)] = values
    return out


def _sum(terms):
    """The terms added in order, None (a structural zero) left out; None for none."""
    terms = [t for t in terms if t is not None]
    return reduce(add, terms) if terms else None


def _minus(a, b):
    """a - b, where None is a structural zero."""
    return a if b is None else -b if a is None else a - b


def _cholesky_inverse(M, r, points, floor, fault):
    """L^-1 and diag(L) of the Cholesky factorization M = L L^T of N
    symmetric r x r matrices, node-last: M maps the entries (i, j), i >= j,
    that are not structurally zero to values (N,); so does L^-1, and diag(L)
    is a list of r.  Row by row, L[i, j] = L^-1[j, c] M[i, c], L_ii^2 = M_ii
    - L[i, j]^2 and L^-1[i, c] = -L[i, j] L^-1[j, c] / L_ii, each sum over
    the products with no structurally zero factor.  The first of ``points``
    with a pivot L_ii^2 that is not finite or is <= floor raises
    ConfigError(fault, point)."""
    inv, diag, bad = {}, [], np.zeros(len(points), dtype=bool)
    with np.errstate(all="ignore"):  # a failing node's inf or NaN ends in ``bad``
        for i in range(r):
            row = {j: v for j in range(i) if (v := _sum([  # L[i, j]
                inv[j, c] * M[i, c] for c in range(j + 1) if (j, c) in inv and (i, c) in M]))
                is not None}
            pivot = _minus(M.get((i, i), np.zeros(len(points))),
                           _sum([v * v for v in row.values()]))
            bad |= ~((pivot > floor) & (pivot < np.inf))
            diag.append(np.sqrt(pivot))
            inv[i, i] = d = 1.0 / diag[i]
            inv.update({(i, c): v * -d for c in range(i) if (v := _sum([
                row[j] * inv[j, c] for j in range(c, i) if j in row and (j, c) in inv]))
                is not None})
    if bad.any():
        raise ConfigError(f"{fault} {[float(v) for v in points[np.argmax(bad)]]}")
    return inv, diag


def _positive_definite(entries, points):
    """The metric matrices G (N, n, n) at the chart points (N, n) from their
    ``entries`` {(k, l): value}, a plain number 0 structurally zero, with
    L^-1 and diag(L) of ``_cholesky_inverse``; the first node whose matrix is
    asymmetric beyond round-off (Cholesky reads only the lower triangle), or
    has a pivot that is not finite and positive, raises ConfigError."""
    n = 1 + max(k for k, _ in entries)
    G = _node_first(entries, (len(points), n, n))
    GT = G.swapaxes(-1, -2)
    if not (G == GT).all():  # entries written differently may differ by round-off
        flat = len(G), -1
        skew = np.abs(G - GT).reshape(flat).max(axis=1)
        bad = np.flatnonzero(skew > 1e-12 * np.abs(G).reshape(flat).max(axis=1))
        if bad.size:
            raise ConfigError("metric not symmetric at chart point "
                              f"{[float(v) for v in points[bad[0]]]}")
    lower = {(k, l): G[:, k, l] for (k, l), v in entries.items()
             if k >= l and (isinstance(v, np.ndarray) or v != 0)}
    return G, *_cholesky_inverse(lower, n, points, 0.0,
                                 "metric not positive definite at chart point")


def _callable_jets(metric):
    """The ``jets`` of a metric callable, as the compiled metrics give it:
    the callable runs on the parameter Jets of the nodes, and each entry that
    is a Jet gives all its derivatives, a plain number none.  numpy faults
    are left to the checks of ``metric_jets``, which see their inf or NaN."""
    def jets(x, order):
        m = x.shape[1]
        with np.errstate(all="ignore"):
            rows = metric(Jet.variables(x, 2)) if order == 2 else metric(Jet.variables(x, 1))
        return [[(e.v, dict(enumerate(e.g)), {} if e.h is None else
                  {(i, j): e.h[i, j] for i in range(m) for j in range(i, m)})
                 if isinstance(e, Jet) else (e, {}, {}) for e in row] for row in rows]

    return jets


class RiemannianPatch:
    """Chart of an n-manifold: box domain, metric callable, optional embedding.

    ``metric`` maps a list of n parameters (floats, node arrays or Jets) to an
    n x n nested list: a compiled matrix (``expressions.compile_matrix``),
    whose ``jets`` the metric jets read, or a Python callable, run on Jets by
    ``_callable_jets``.  ``chart_map`` maps parameters to ambient coordinates
    and is used for locating singular points, not for geometry.  Every method
    takes chart points as an (N, n) node array.
    """

    def __init__(self, dim, box, metric, chart_map=None, name=""):
        self.n = dim
        self.box = [tuple(map(float, b)) for b in box]
        if len(self.box) != dim:
            raise ValueError("box must have one interval per dimension")
        self._metric = metric
        self._jets = getattr(metric, "jets", None) or _callable_jets(metric)
        self._chart_map = chart_map
        self.name = name

    def metric_jets(self, x, order=2):
        """Metric G (N, n, n) at the nodes x, its derivatives dG along the
        chart parameters and, at ``order`` 2 (None at order 1), its Hessians
        hess, then L^-1 and diag(L) of its checked Cholesky factor L
        (``_cholesky_inverse``).  dG and hess map each (i, k, l) and (i, j,
        k, l) whose d_i g_kl or d_i d_j g_kl is not structurally zero to its
        values (N,).  G and dG do not depend on the order.  A derivative that
        is not finite where G is positive definite (it overflowed) raises
        ConfigError naming the entry."""
        x = np.asarray(x, dtype=float)
        values, dG, hess = {}, {}, {} if order == 2 else None
        for k, row in enumerate(self._jets(x, order)):
            for l, (value, grad, hessian) in enumerate(row):
                values[k, l] = value
                for i, d in grad.items():  # a constant derivative is a plain number
                    dG[i, k, l] = np.full(len(x), d) if np.isscalar(d) else d
                for (i, j), d in hessian.items():
                    d = np.full(len(x), d) if np.isscalar(d) else d
                    hess[i, j, k, l] = hess[j, i, k, l] = d
        G, *factors = _positive_definite(values, x)
        bad = [(int(np.argmin(np.isfinite(d))), k, l)  # each derivative's first bad node
               for (*_, k, l), d in [*dG.items(), *(hess or {}).items()]
               if not np.isfinite(d).all()]
        if bad:  # the least is the first bad node, and in it the first entry
            node, k, l = min(bad)
            raise ConfigError(f"metric entry ({k}, {l}) has a derivative that is not finite "
                              f"at chart point {[float(v) for v in x[node]]}")
        return (G, dG, hess, *factors)

    def metric_values(self, x):
        x = np.asarray(x, dtype=float)
        return _positive_definite({(k, l): e for k, row in enumerate(self._metric(list(x.T)))
                                   for l, e in enumerate(row)}, x)[0]

    def ambient(self, x):
        x = np.asarray(x, dtype=float)
        if self._chart_map is None:
            return x
        return stack_jets(self._chart_map(list(x.T)), x, 0)[0]


class BoundaryPatch:
    """Chart of a boundary component inside a parent patch.

    ``embed`` maps the n-1 boundary parameters into the parent chart and
    ``outward`` gives an outward-pointing vector there (parent-chart
    components), not necessarily normal: e_1 of the adapted frame is the unit
    normal on its side.  Both map the parameter Jets (or node arrays) of N
    boundary nodes to Jets, node arrays or plain numbers.
    """

    def __init__(self, parent, box, embed, outward, name=""):
        self.parent = parent
        self.m = parent.n - 1
        self.box = [tuple(map(float, b)) for b in box]
        if len(self.box) != self.m:
            raise ValueError("boundary box must have n-1 intervals")
        self.embed = embed
        self.outward = outward
        self.name = name


# -- frames ---------------------------------------------------------------------

def metric_inner(G, dG, a, da, b, db):
    """<a_A, b> under the metric G for a stack of rows a_A, to first order.

    G is (N, n, n), symmetric, with dG[:, i, k, l] its derivative along
    parameter i; the rows a are (N, r, n) with da[:, i, A, k], and b is (N, n)
    with db[:, i, k].  Returns the values (N, r) and their gradients (N, m, r).
    """
    N, m, n = db.shape
    Gb = G @ b[..., None]                                    # Gb[k] = G[k,l] b[l], a column
    # dGb[i,k] = dG[i,k,l] b[l] + db[i,l] G[l,k]
    dGb = (dG.reshape(N, m * n, n) @ b[..., None]).reshape(N, m, n) + db @ G
    # <a_A, b> = a[A,k] Gb[k] and d<a_A, b>[i] = da[i,A,k] Gb[k] + dGb[i,k] a[A,k]
    return ((a @ Gb)[..., 0],
            (da.reshape(N, -1, n) @ Gb).reshape(da.shape[:3]) + dGb @ _transposed(a))


def _orthonormal_rows(G, dG, V, dV, points):
    """Gram-Schmidt on the rows of V (N, r, n) against G, with derivatives
    dG[:, i, k, l] and dV[:, i, A, k], as the Cholesky factorization
    V G V^T = L L^T: E = L^-1 V and, in the frame, dE_i = (K_i - Phi(S_i)) E
    (Murray, arXiv:1602.07527), where S_i = E dG_i E^T, K_i = U - U^T for U the
    strict upper triangle of L^-1 dV_i G E^T, and Phi keeps the strict lower
    triangle and half the diagonal.  The first node with a pivot L_jj^2 that
    is not finite or is <= 1e-14 raises ConfigError."""
    N, m, r, n = dV.shape
    M = V @ G @ _transposed(V)
    inv, _ = _cholesky_inverse({(i, j): M[:, i, j] for i in range(r) for j in range(i + 1)}, r,
                               points, 1e-14, "degenerate frame: outward vector and tangents "
                               "linearly dependent at point")
    Linv = _node_first(inv, M.shape)
    E = Linv @ V
    Et = _transposed(E)
    # U[i,A,B] = (L^-1 dV_i)[A,k] (G E^T)[k,B] for A < B; S[i,A,B] = E[A,k] dG[i,k,l] E[B,l]
    U = np.triu(((Linv[:, None] @ dV).reshape(N, m * r, n) @ (G @ Et)).reshape(N, m, r, r), 1)
    S = E[:, None] @ (dG.reshape(N, m * n, n) @ Et).reshape(N, m, n, r)
    return E, (U - U.swapaxes(-1, -2) - np.tril(S, -1) - 0.5 * np.eye(r) * S) @ E[:, None]


@lru_cache(maxsize=None)
def _christoffel_terms(n, dG, Linv):
    """Given the keys of dG and L^-1, the terms that are not structurally
    zero: the d_i g_jl, d_j g_il, d_l g_ij (or None) of each low[i,j,l], the
    r of each Ginv[k,l], k <= l, and the l of each Gamma[i,j,k]."""
    idx = range(n)
    low = {(i, j, l): t for i in idx for j in idx for l in idx if any(
        t := tuple(key if key in dG else None for key in ((i, j, l), (j, i, l), (l, i, j))))}
    ginv = {(k, l): rs for k in idx for l in range(k, n)
            if (rs := [r for r in idx if (r, k) in Linv and (r, l) in Linv])}
    return low, ginv, {(i, j, k): ls for i in idx for j in idx for k in idx if (ls := [
        l for l in idx if (i, j, l) in low and (min(l, k), max(l, k)) in ginv])}


def christoffel_symbols(dG, Linv):
    """Christoffel symbols from the dG and L^-1 of ``metric_jets``, each a
    map from its indices that are not structurally zero to values (N,):
    low[i,j,l] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij) and Gamma[i,j,k] =
    Gamma^k_ij = low[i,j,l] Ginv[l,k], with Ginv[k,l] = L^-1[r,k] L^-1[r,l],
    each sum over the terms of ``_christoffel_terms``."""
    terms = _christoffel_terms(1 + max(i for i, _ in Linv), frozenset(dG), frozenset(Linv))
    low = {key: 0.5 * _minus(_sum([dG.get(a), dG.get(b)]), dG.get(c))
           for key, (a, b, c) in terms[0].items()}
    Ginv = {(k, l): _sum([Linv[r, k] * Linv[r, l] for r in rs]) for (k, l), rs in terms[1].items()}
    return low, {(i, j, k): _sum([low[i, j, l] * Ginv[min(l, k), max(l, k)] for l in ls])
                 for (i, j, k), ls in terms[2].items()}


@lru_cache(maxsize=None)
def _pair_terms(n, low, Gamma):
    """Given the keys of low and Gamma, for each entry R[I, J], I <= J, of
    ``pair_curvature``: I, J and its four U[a,b,c,d], each as (a, b, c, d)
    and the q of its products Gamma[a,b,q] low[c,d,q] that are not
    structurally zero."""
    return [(I, J, [(a, b, c, d, [q for q in range(n) if (a, b, q) in Gamma and (c, d, q) in low])
                    for a, b, c, d in ((i, m, j, p), (i, p, j, m), (j, p, i, m), (j, m, i, p))])
            for I, (i, j) in enumerate(pairs(n)) for J, (m, p) in enumerate(pairs(n)) if I <= J]


def pair_curvature(low, Gamma, hess, n, count):
    """R[I, J] = <R(d_i, d_j) d_m, d_p> on the pairs I = (i, j), J = (m, p),
    a symmetric (P, P, count) for an n-metric at count nodes, from
    ``christoffel_symbols`` and the Hessians of ``metric_jets``: with
    U[a,b,c,d] = Gamma[a,b,q] low[c,d,q] + d_a d_b g_cd over the terms of
    ``_pair_terms`` and the Hessians present, each R[I, J], I <= J, is
    1/2 (U[i,m,j,p] - U[i,p,j,m] + U[j,p,i,m] - U[j,m,i,p])."""
    R = np.zeros((n * (n - 1) // 2,) * 2 + (count,))
    for I, J, terms in _pair_terms(n, frozenset(low), frozenset(Gamma)):
        U = [_sum([_sum([Gamma[a, b, q] * low[c, d, q] for q in qs]), hess.get((a, b, c, d))])
             for a, b, c, d, qs in terms]
        entry = _sum([_minus(U[0], U[1]), _minus(U[2], U[3])])
        if entry is not None:
            R[I, J] = R[J, I] = 0.5 * entry
    return R


def _frame_connection(G, Gamma, E, dE, dx):
    """Connection values omega[:, A, B, i] of the frame rows E, with
    dE[:, i, A, k] = d e_A^k / d t_i, along a map with pushforward
    dx[:, i, k] = d x^k / d t_i, from the Gamma of ``christoffel_symbols``."""
    N, m, n, _ = dE.shape
    # Y[i,q,k] = dx[i,l] Gamma^k_{lq}; nabla[i,A,k] = dE[i,A,k] + e_A^q Y[i,q,k]
    Y = dx @ _node_first(Gamma, (N, n, n, n)).reshape(N, n, n * n)
    nabla = dE + E[:, None] @ Y.reshape(N, m, n, n)
    # omega[i,A,B] = nabla[i,A,k] G[k,l] e_B^l, its roundoff asymmetry killed
    omega = (nabla.reshape(N, m * n, n) @ (G @ _transposed(E))).reshape(dE.shape)
    return (0.5 * (omega - omega.swapaxes(-1, -2))).transpose(0, 2, 3, 1)


def _frame_curvature(R, E, dx):
    """curv[:, I, J] = e_A^q e_B^p R[l,r,q,p] dx^l_i dx^r_j, I = (A, B) and
    J = (i, j), of the frame rows E along pushforward dx: Lambda^2 E R Lambda^2 dx^T."""
    def wedge2(M):  # node-last W[I,J] = M[a,q] M[b,p] - M[a,p] M[b,q], I = (a, b), J = (q, p)
        M = np.ascontiguousarray(np.moveaxis(M, 0, -1))
        (a, b), (q, p) = (np.array(pairs(k), dtype=int).reshape(-1, 2).T for k in M.shape[:2])
        return M[a[:, None], q] * M[b[:, None], p] - M[a[:, None], p] * M[b[:, None], q]

    R_dx = (R[:, None] * wedge2(dx)[None]).sum(axis=2)  # R_dx[qp,ij] = R[qp,lr] W[ij,lr]
    return np.moveaxis((wedge2(E)[:, :, None] * R_dx).sum(axis=1), -1, 0)


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
    _, dG, hess, Linv, diag = patch.metric_jets(points)
    R = pair_curvature(*christoffel_symbols(dG, Linv), hess, n, len(diag[0]))
    return (evaluate_template(euler_template(n), None, None, None, np.moveaxis(R, -1, 0))
            / math.prod(diag))


# -- boundary-adapted frames ------------------------------------------------------

@dataclass
class BoundaryFrame:
    """Everything a section pullback needs at a batch of boundary nodes: each
    array has a leading node axis, each derivative its t-axis next.  Frame
    and metric carry first t-derivatives only, as nothing reads second ones;
    ``adapted_frame`` leaves omega and curvature None, and so does
    ``boundary_frame`` the curvature where Phi reads none (n = 2)."""
    x_jets: list                   # embedding as first-order jets in t
    metric: np.ndarray
    dmetric: np.ndarray            # dmetric[i,k,l] = d g_kl / d t_i
    normal: np.ndarray             # untwisted outward unit normal
    dnormal: np.ndarray            # dnormal[i,k]
    frame: np.ndarray              # adapted frame rows e_A
    dframe: np.ndarray             # dframe[i,A,k] = d e_A^k / d t_i
    omega: np.ndarray = None       # omega[A,B,i] on boundary coordinate directions
    curvature: np.ndarray = None   # curvature[I,J], frame pairs I on boundary bivectors J


def adapted_frame(bpatch, t, order=1):
    """Adapted orthonormal frames at the boundary nodes t (N, m), outward
    normal first, without connection or curvature; returns the BoundaryFrame,
    the pushforward dx[:, i, k] = d x^k / d t_i and the parent metric jets of
    ``order`` (2 when a curvature follows; the frame reads first order only).
    The frame is Gram-Schmidt on (dx/dt_1, ..., dx/dt_m, outward), whose last
    row, the unit normal on the side of ``outward``, is rolled to the front.
    L^-1 V with diag(L) > 0 has det of the sign of det[dx | outward], and the
    roll multiplies it by (-1)^m, as moving outward to the front does: det E
    has the sign of det[outward | dx].  Every monomial of Phi holds the frame
    index n once, so Phi changes sign with e_n just as the measure dt does
    with the chart: Phi on E is already the integrand of the outward-first
    boundary, and no sign is applied."""
    t = np.asarray(t, dtype=float)
    N, m = t.shape
    x_jets = bpatch.embed(Jet.variables(t, 2))
    x, dx, d2x = stack_jets(x_jets, t, 2)            # dx[i,k], d2x[i,j,k]
    jets = bpatch.parent.metric_jets(x, order)
    G, n = jets[0], m + 1
    # dG[i,k,l] = dx[i,a] d_a g_kl; the dense d_a g_kl is freed at once
    dG = (dx @ _node_first(jets[1], (N, n, n, n)).reshape(N, n, -1)).reshape(N, m, n, n)
    outward, doutward = stack_jets(bpatch.outward(Jet.variables(t, 1)), t, 1)
    E, dE = _orthonormal_rows(G, dG, np.concatenate([dx, outward[:, None]], axis=1),
                              np.concatenate([d2x, doutward[:, :, None]], axis=2), t)
    E, dE = np.roll(E, 1, axis=1), np.roll(dE, 1, axis=2)
    x_jets = [Jet(e.v, e.g, None) if isinstance(e, Jet) else e for e in x_jets]
    return (BoundaryFrame(x_jets=x_jets, metric=G, dmetric=dG, normal=E[:, 0],
                          dnormal=dE[:, :, 0], frame=E, dframe=dE), dx, jets)


def boundary_frame(bpatch, t, frame_twist=None):
    """``adapted_frame`` at the boundary nodes t (N, m) with its connection
    values and, where Phi has a 2-form factor, its curvature values, from the
    same metric jets.  ``frame_twist`` maps t-jets to an n x n rotation R and
    replaces the frame E by R E; ``normal`` stays the untwisted e_1."""
    t = np.asarray(t, dtype=float)
    curved = any(deg == 2 for e in phi_template(bpatch.parent.n).entries for *_, deg in e[2])
    bf, dx, (G, dG, hess, Linv, _) = adapted_frame(bpatch, t, 2 if curved else 1)
    low, Gamma = christoffel_symbols(dG, Linv)
    del dG, Linv  # read: freed before the curvature's products
    curv = pair_curvature(low, Gamma, hess, bpatch.parent.n, len(t)) if curved else None
    del hess, low  # read: freed before the frame's products
    if frame_twist is not None:
        R, dR = stack_jets([e for row in frame_twist(Jet.variables(t, 1)) for e in row], t, 1)
        R, dR = R.reshape(bf.frame.shape), dR.reshape(bf.dframe.shape)
        # d(R E)[i,a,k] = dR[i,a,b] E[b,k] + R[a,b] dE[i,b,k]
        bf.frame, bf.dframe = R @ bf.frame, dR @ bf.frame[:, None] + R[:, None] @ bf.dframe
    if curved:
        bf.curvature = _frame_curvature(curv, bf.frame, dx)
    bf.omega = _frame_connection(G, Gamma, bf.frame, bf.dframe, dx)
    return bf
