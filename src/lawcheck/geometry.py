"""Numerical differential geometry on parametrized patches, batched over nodes.

Every layer takes N chart (or boundary) points as an (N, dim) array, in
chunks of ``node_chunks`` when a quadrature passes its grid.  Derivatives are
forward mode, truncated Taylor arithmetic (Griewank & Walther 2008).  Every
input, the metric (second order only where a curvature follows), the
boundary embedding (second order, for d2x), outward vectors, fields, frame
twists and the chart map, is read one way, through its ``jets(x, order)``:
the value program (order 0) or derivative programs of compiled expressions
(``expressions``), giving node-last values, gradients and Hessians.  A field
on the boundary, and a chart field on the sphere of an index map, is
differentiated along t by the chain rule through the map.
Frames carry first derivatives only, as nothing reads second ones.
One idiom contracts: every layer is node-last and knows its structure.  The
inputs' values, gradients and Hessians, the metric, L^-1, the Christoffel
symbols, the pair curvature, the frame rows and their derivatives, the
connection and the frame curvature are maps from the indices that are not
structurally zero (a literal 0 entry, a derivative a program drops, a
product with such a factor) to (N,) arrays or plain numbers, and each entry
is a sum, in a fixed order, of the products with no structurally zero
factor, a plain-number factor 1 folded: a coordinate hypersurface of a
diagonal metric multiplies few zeros or ones, and a dense boundary runs the
same code with every entry present.  The
structural-zero helpers come from ``templates``, whose evaluator reads these
maps as they are, the curvature on index pairs i < j (of ``pairs``) as
curv[I, J].  No layer stacks a map node first: only points are (N, n) arrays.
Finite differences appear only in tests, as independent oracles.

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
from .templates import _minus, _mul, _sum, euler_template, evaluate_template, pairs, phi_template

CHUNK_NODES = 2048  # node cap of one batched evaluation, at every dimension


def node_chunks(count):
    """Slices of consecutive nodes that cover range(count): the fewest of at
    most CHUNK_NODES nodes, their lengths differing by at most one, so a grid
    just past a multiple of the cap leaves no short tail.  At the cap the
    traced peaks, in arrays of one float per node, are about 17 (Euler
    density) and 14-40 (boundary frame) at n = 2, 52-106 (boundary frame, with
    curvature) at n = 3, and 16-30 and 52-60 for a Phi chunk on a catalog
    boundary.  The chunks cover the nodes a quadrature evaluates, only those
    that differ on the axes its integrand reads (``integrate._node_values``)."""
    parts = -(-count // CHUNK_NODES)
    return [slice(k * count // parts, (k + 1) * count // parts) for k in range(parts)]


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


def stack_values(values, keys, count):
    """Stack the entries ``keys`` of a value map (plain numbers or arrays
    (N,)) at ``count`` nodes as an (N, k) array of points, node axis first,
    an absent key a structurally zero column."""
    out = np.zeros((count, len(keys)))
    for i, key in enumerate(keys):
        out[:, i] = values.get(key, 0.0)
    return out


def grid_points(axes):
    """Product grid of the 1-D node arrays ``axes`` as (N, len(axes)) points,
    the last axis varying fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


# -- patches ---------------------------------------------------------------------

def _present(value):
    """Whether an entry is not a structural zero: a node array, or a plain
    number other than 0."""
    return isinstance(value, np.ndarray) or value != 0


def _add(X, Y):
    """X + Y of node-last maps, an entry absent from one taken from the other."""
    return {**X, **Y, **{key: X[key] + v for key, v in Y.items() if key in X}}


def _transpose(X):
    """The transpose of a node-last map keyed by index pairs."""
    return {(q, p): v for (p, q), v in X.items()}


def _along(X, i):
    """The slice X[i, ...] of a node-last map, keyed by the remaining indices."""
    return {key[1:]: v for key, v in X.items() if key[0] == i}


_PARTS = {"all": lambda p, q: True, "lower": lambda p, q: p >= q,
          "upper": lambda p, q: p < q, "off-diagonal": lambda p, q: p != q}


@lru_cache(maxsize=None)
def _product_terms(xkeys, ykeys, part):
    """Given the keys (p, r) of X and (r, q) of Y, each (p, q) of the product
    X Y in ``part`` (of ``_PARTS``) with the r, ascending, of its products
    that have no structurally zero factor."""
    cols, terms, keep = {}, {}, _PARTS[part]
    for r, q in sorted(ykeys):
        cols.setdefault(r, []).append(q)
    for p, r in sorted(xkeys):
        for q in cols.get(r, ()):
            if keep(p, q):
                terms.setdefault((p, q), []).append(r)
    return tuple(terms.items())


def _product(X, Y, part="all"):
    """The matrix product (X Y)[p, q] = X[p, r] Y[r, q] of node-last maps
    keyed by index pairs, on the entries of ``part``: each a sum over r,
    ascending, of the products with no structurally zero factor, index lists
    built once per structure."""
    return {(p, q): reduce(add, [_mul(X[p, r], Y[r, q]) for r in rs])
            for (p, q), rs in _product_terms(frozenset(X), frozenset(Y), part)}


def _contract(X, b):
    """(X b)[...] = X[..., l] b[l] of a node-last map X, keyed by tuples of
    two or more indices, and a vector map b, by ``_product``."""
    rows = {(key[:-1] if len(key) > 2 else key[0], key[-1]): v for key, v in X.items()}
    return {p: v for (p, _), v in _product(rows, {(l, 0): v for l, v in b.items()}).items()}


def _cholesky_inverse(M, r, points, floor, fault):
    """L^-1 and diag(L) of the Cholesky factorization M = L L^T of N
    symmetric r x r matrices, node-last: M maps the entries (i, j), i >= j,
    that are not structurally zero to values (N,) or plain numbers; so does
    L^-1, and diag(L) is a list of r.  Row by row, L[i, j] = L^-1[j, c] M[i, c],
    L_ii^2 = M_ii - L[i, j]^2 and L^-1[i, c] = -L[i, j] L^-1[j, c] / L_ii, each
    sum over the products with no structurally zero factor.  The first of
    ``points`` with a pivot L_ii^2 that is not finite or is <= floor raises
    ConfigError(fault, point)."""
    inv, diag, bad = {}, [], np.zeros(len(points), dtype=bool)
    with np.errstate(all="ignore"):  # a failing node's inf or NaN ends in ``bad``
        for i in range(r):
            row = {j: v for j in range(i) if (v := _sum([  # L[i, j]
                inv[j, c] * M[i, c] for c in range(j + 1) if (j, c) in inv and (i, c) in M]))
                is not None}
            pivot = _minus(M.get((i, i), np.zeros(len(points))),
                           _sum([v * v for v in row.values()]))
            bad |= ~np.asarray((pivot > floor) & (pivot < np.inf))
            diag.append(np.sqrt(pivot))
            inv[i, i] = d = 1.0 / diag[i]
            inv.update({(i, c): v * -d for c in range(i) if (v := _sum([
                row[j] * inv[j, c] for j in range(c, i) if j in row and (j, c) in inv]))
                is not None})
    if bad.any():
        raise ConfigError(f"{fault} {[float(v) for v in points[np.argmax(bad)]]}")
    return inv, diag


def _positive_definite(entries, n, points):
    """The n x n metric at the chart points (N, n) from its ``entries``
    {(k, l): value}, an absent (k, l) or a plain number 0 structurally zero,
    as the map G from the (k, l) present to the lower triangle's value there,
    with L^-1 and diag(L) of ``_cholesky_inverse``; the first node whose
    matrix is asymmetric beyond round-off (Cholesky reads only the lower
    triangle), or has a pivot that is not finite and positive, raises
    ConfigError."""
    entries = {kl: v for kl, v in entries.items() if _present(v)}
    lower = {(k, l): v for (k, l), v in entries.items() if k >= l}
    skew = [d for k in range(n) for l in range(k)
            if (d := _minus(lower.get((k, l)), entries.get((l, k)))) is not None]
    if any(np.any(d != 0) for d in skew):  # entries written differently may differ by round-off
        scale = reduce(np.maximum, [np.abs(v) for v in entries.values()])
        bad = np.flatnonzero(np.broadcast_to(
            reduce(np.maximum, [np.abs(d) for d in skew]) > 1e-12 * scale, len(points)))
        if bad.size:
            raise ConfigError("metric not symmetric at chart point "
                              f"{[float(v) for v in points[bad[0]]]}")
    G = {(k, l): lower[max(k, l), min(k, l)] for k in range(n) for l in range(n)
         if (max(k, l), min(k, l)) in lower}
    return G, *_cholesky_inverse(lower, n, points, 0.0,
                                 "metric not positive definite at chart point")


class RiemannianPatch:
    """Chart of an n-manifold: box domain, compiled metric, optional embedding.

    ``metric`` is read through its ``jets(x, order)``, the node-last maps of
    its values, gradients and Hessians, keyed (k, l), as a compiled matrix
    (``expressions.compile_matrix``) gives them.  ``chart_map``, a compiled
    vector of the parameters, gives ambient coordinates through ``jets`` and
    ``reads``; it locates singular points and is not used for geometry.
    Every method takes chart points as an (N, n) node array.
    """

    def __init__(self, dim, box, metric, chart_map=None, name=""):
        self.n = dim
        self.box = [tuple(map(float, b)) for b in box]
        if len(self.box) != dim:
            raise ValueError("box must have one interval per dimension")
        self.metric = metric
        self._chart_map = chart_map
        self.name = name

    def metric_jets(self, x, order=2):
        """Metric G at the nodes x, its derivatives dG along the chart
        parameters (empty at order 0) and, at ``order`` 2 (None below), its
        Hessians hess, then L^-1 and diag(L) of its checked Cholesky factor L
        (``_cholesky_inverse``).  G maps each (k, l) whose g_kl is not
        structurally zero to its values, as ``_positive_definite`` gives it;
        dG and hess map each (i, k, l) and (i, j, k, l) whose d_i g_kl or
        d_i d_j g_kl is not structurally zero to its values, (N,) or a plain
        number, as the metric's ``jets`` gives them.  G does not depend on
        the order, nor does dG from order 1.  A derivative that is not finite
        where G is positive definite (it overflowed) raises ConfigError
        naming the entry."""
        x = np.asarray(x, dtype=float)
        values, dG, hess = self.metric.jets(x, order)
        G, *factors = _positive_definite(values, self.n, x)
        bad = [(int(np.argmin(np.isfinite(d))), k, l)  # each derivative's first bad node
               for (*_, k, l), d in [*dG.items(), *hess.items()] if not np.isfinite(d).all()]
        if bad:  # the least is the first bad node, and in it the first entry
            node, k, l = min(bad)
            raise ConfigError(f"metric entry ({k}, {l}) has a derivative that is not finite "
                              f"at chart point {[float(v) for v in x[node]]}")
        return (G, dG, hess if order == 2 else None, *factors)

    def ambient(self, x):
        """The ambient points (N, d) of the chart points x (N, n), every entry
        of the chart map a column, a structurally zero one included."""
        x = np.asarray(x, dtype=float)
        if self._chart_map is None:
            return x
        return stack_values(self._chart_map.jets(x, 0)[0], self._chart_map.reads(), len(x))


class BoundaryPatch:
    """Chart of a boundary component inside a parent patch.

    ``embed`` maps the n-1 boundary parameters into the parent chart and
    ``outward`` gives an outward-pointing vector there (parent-chart
    components), not necessarily normal: e_1 of the adapted frame is the unit
    normal on its side.  Both are read as the metric is, through ``jets``:
    compiled vectors (``expressions.compile_vector``) of the boundary
    parameters.
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
    """<a_A, b> under the metric G for the rows a_A, to first order: the
    node-last maps G[k, l], dG[i, k, l] (d_i g_kl), a[A, k], da[i, A, k], b[k]
    and db[i, k] give the values {A: <a_A, b>} and gradients
    {(i, A): d_i <a_A, b>}, with Gb[k] = G[k, l] b[l] and
    dGb[i, k] = dG[i, k, l] b[l] + db[i, l] G[l, k]:
    d_i <a_A, b> = da[i, A, k] Gb[k] + dGb[i, k] a[A, k]."""
    Gb = _contract(G, b)
    dGb = _add(_contract(dG, b), _product(db, G))
    return _contract(a, Gb), _add(_contract(da, Gb), _product(dGb, _transpose(a)))


def _orthonormal_rows(G, dG, V, dV, points, m):
    """Gram-Schmidt on the n rows V[A, k] against G, with derivatives
    dG[i, k, l] and dV[i, A, k] along m parameters, all node-last maps, as the
    Cholesky factorization V G V^T = L L^T: E = L^-1 V and, in the frame,
    dE_i = (K_i - Phi(S_i)) E (Murray, arXiv:1602.07527), where
    S_i = E dG_i E^T, K_i = U - U^T for U the strict upper triangle of
    L^-1 dV_i G E^T, and Phi keeps the strict lower triangle and half the
    diagonal.  Returns the maps E[A, k] and dE[i, A, k].  The first node with
    a pivot L_jj^2 that is not finite or is <= 1e-14 raises ConfigError."""
    M = _product(_product(V, G), _transpose(V), "lower")
    inv, _ = _cholesky_inverse(M, 1 + max(k for k, _ in G), points, 1e-14,
                               "degenerate frame: outward vector and tangents "
                               "linearly dependent at point")
    E = _product(inv, V)
    Et = _transpose(E)
    GEt = _product(G, Et)
    dE = {}
    for i in range(m):
        U = _product(_product(inv, _along(dV, i)), GEt, "upper")
        S = _product(E, _product(_along(dG, i), Et), "lower")
        # K - Phi(S): U above the diagonal, -U^T - S below it, -S/2 on it
        C = {**U, **_add({(B, A): -v for (A, B), v in U.items()},
                         {(A, B): -v if A > B else -0.5 * v for (A, B), v in S.items()})}
        dE.update({(i, A, k): v for (A, k), v in _product(C, E).items()})
    return E, dE


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


def pair_curvature(low, Gamma, hess, n):
    """R[I, J] = <R(d_i, d_j) d_m, d_p> on the pairs I = (i, j), J = (m, p)
    of an n-metric, a symmetric node-last map, (I, J) and (J, I) alike, from
    ``christoffel_symbols`` and the Hessians of ``metric_jets``: with
    U[a,b,c,d] = Gamma[a,b,q] low[c,d,q] + d_a d_b g_cd over the terms of
    ``_pair_terms`` and the Hessians present, each R[I, J], I <= J, is
    1/2 (U[i,m,j,p] - U[i,p,j,m] + U[j,p,i,m] - U[j,m,i,p])."""
    R = {}
    for I, J, terms in _pair_terms(n, frozenset(low), frozenset(Gamma)):
        U = [_sum([_sum([Gamma[a, b, q] * low[c, d, q] for q in qs]), hess.get((a, b, c, d))])
             for a, b, c, d, qs in terms]
        entry = _sum([_minus(U[0], U[1]), _minus(U[2], U[3])])
        if entry is not None:
            R[I, J] = R[J, I] = 0.5 * entry
    return R


def _frame_connection(G, Gamma, E, dE, dx, m):
    """Connection values omega[A, B, i], A != B, of the frame rows E[A, k]
    (e_A^k), with dE[i, A, k] = d e_A^k / d t_i, along a map with pushforward
    dx[i, k] = d x^k / d t_i, from the Gamma[i, j, k] = Gamma^k_ij of
    ``christoffel_symbols``, all node-last maps:
    nabla[i, A, k] = dE[i, A, k] + e_A^q Y[i, q, k] with
    Y[i, q, k] = dx[i, l] Gamma^k_lq, and omega the antisymmetric part of
    nabla[i, A, k] G[k, l] e_B^l, its roundoff asymmetry killed."""
    Y = _product(dx, {(l, (q, k)): v for (l, q, k), v in Gamma.items()})
    GEt = _product(G, _transpose(E))
    omega = {}
    for i in range(m):
        nabla = _add(_along(dE, i), _product(E, {qk: v for (j, qk), v in Y.items() if j == i}))
        raw = _product(nabla, GEt, "off-diagonal")
        for A, B in pairs(1 + max(k for k, _ in G)):
            if (w := _minus(raw.get((A, B)), raw.get((B, A)))) is not None:
                omega[A, B, i] = w = 0.5 * w
                omega[B, A, i] = -w
    return omega


def _wedge2(M, rows, cols):
    """W[I, J] = M[a, q] M[b, p] - M[a, p] M[b, q] of the map M[row, col] on
    the ``pairs`` I = (a, b) of its rows and J = (q, p) of its columns."""
    return {(I, J): v for I, (a, b) in enumerate(pairs(rows))
            for J, (q, p) in enumerate(pairs(cols)) if (v := _minus(
                _mul(M.get((a, q)), M.get((b, p))), _mul(M.get((a, p)), M.get((b, q)))))
            is not None}


def _frame_curvature(R, E, dx, m):
    """curv[I, J] = e_A^q e_B^p R[l,r,q,p] dx^l_i dx^r_j, I = (A, B) and
    J = (i, j), of the frame rows E[A, k] along pushforward dx[i, k], from the
    pair curvature R: Lambda^2 E R Lambda^2 dx^T, as a node-last map."""
    n = 1 + max(k for _, k in E)
    return _product(_wedge2(E, n, n), _product(R, _transpose(_wedge2(dx, m, n))))


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
    curv = pair_curvature(*christoffel_symbols(dG, Linv), hess, n)
    return evaluate_template(euler_template(n), None, None, curv, len(points)) / math.prod(diag)


# -- boundary-adapted frames ------------------------------------------------------

@dataclass
class BoundaryFrame:
    """Everything a section pullback needs at a batch of N boundary nodes.
    Past ``points``, each field is a node-last map from the indices of the
    entries that are not structurally zero to values (N,) or plain numbers.
    Frame and metric carry first t-derivatives only, as nothing reads second
    ones; ``adapted_frame`` leaves omega and curvature None, and so does
    ``boundary_frame`` the curvature where Phi reads none (n = 2)."""
    points: np.ndarray             # embedded nodes x (N, n) in the parent chart
    pushforward: dict              # pushforward[i, k] = d x^k / d t_i
    metric: dict                   # metric[k, l] = g_kl
    dmetric: dict                  # dmetric[i, k, l] = d g_kl / d t_i
    normal: dict                   # normal[k]: the untwisted outward unit normal
    dnormal: dict                  # dnormal[i, k]
    frame: dict                    # frame[A, k] = e_A^k, the adapted frame rows
    dframe: dict                   # dframe[i, A, k] = d e_A^k / d t_i
    omega: dict = None             # omega[A, B, i], A != B, on boundary coordinate directions
    curvature: dict = None         # curvature[I, J], frame pairs I on boundary bivectors J


def adapted_frame(bpatch, t, order=1):
    """Adapted orthonormal frames at the boundary nodes t (N, m), outward
    normal first, without connection or curvature; returns the BoundaryFrame
    and the parent metric jets of ``order`` (2 when a curvature follows; the
    frame reads first order only).  The embedding and ``outward`` come from
    their ``jets``; the pulled-back dG[i, k, l] = dx[i, a] d_a g_kl reads the
    lower triangle.  The frame is Gram-Schmidt on (dx/dt_1, ..., dx/dt_m,
    outward), whose last row, the unit normal on the side of ``outward``, is
    relabelled first.  L^-1 V with diag(L) > 0 has det of the sign of
    det[dx | outward], and the relabelling multiplies it by (-1)^m, as moving
    outward to the front does: det E has the sign of det[outward | dx].  Every
    monomial of Phi holds the frame index n once, so Phi changes sign with
    e_n just as the measure dt does with the chart: Phi on E is already the
    integrand of the outward-first boundary, and no sign is applied."""
    t = np.asarray(t, dtype=float)
    N, m = t.shape
    n = m + 1
    x, dx, d2x = bpatch.embed.jets(t, 2)  # x[k], dx[i, k], d2x[i, j, k]
    points = stack_values(x, range(n), N)
    jets = bpatch.parent.metric_jets(points, order)
    G, dGx = jets[0], jets[1]
    dG = {(i, *kl): v for (i, kl), v in _product(
        dx, {(a, (k, l)): v for (a, k, l), v in dGx.items() if k >= l}).items()}
    dG.update({(i, l, k): v for (i, k, l), v in dG.items()})
    outward, doutward, _ = bpatch.outward.jets(t, 1)
    V = {**dx, **{(m, k): v for k, v in outward.items()}}  # rows dx/dt_A, then outward
    dV = {**d2x, **{(i, m, k): v for (i, k), v in doutward.items()}}
    E, dE = _orthonormal_rows(G, dG, V, dV, t, m)
    E = {((A + 1) % n, k): v for (A, k), v in E.items()}
    dE = {(i, (A + 1) % n, k): v for (i, A, k), v in dE.items()}
    return (BoundaryFrame(points=points, pushforward=dx, metric=G, dmetric=dG,
                          normal={k: v for (A, k), v in E.items() if A == 0},
                          dnormal={(i, k): v for (i, A, k), v in dE.items() if A == 0},
                          frame=E, dframe=dE), jets)


def pullback_jets(fn, points, pushforward):
    """Values W[k] and t-gradients dW[i, k] of the vector field ``fn`` at the
    points x(t) (N, n) of a map with pushforward[i, a] = d x^a / d t_i, from
    its first-order ``jets`` by the chain rule dW[i, k] = dx[i, a]
    d_a W^k, over the products with no structurally zero factor: a field
    along the embedding of a BoundaryFrame, or a chart field on the sphere
    of an index map."""
    W, dWx, _ = fn.jets(points, 1)
    return W, _product(pushforward, dWx)


def boundary_frame(bpatch, t, frame_twist=None):
    """``adapted_frame`` at the boundary nodes t (N, m) with its connection
    values and, where Phi has a 2-form factor, its curvature values, from the
    same metric jets.  ``frame_twist``, an n x n rotation R of the boundary
    parameters read through its first-order ``jets``, replaces the frame E by
    R E; ``normal`` stays the untwisted e_1."""
    t = np.asarray(t, dtype=float)
    n, m = bpatch.parent.n, bpatch.m
    curved = phi_template(n).curved
    bf, (_, dG, hess, Linv, _) = adapted_frame(bpatch, t, 2 if curved else 1)
    low, Gamma = christoffel_symbols(dG, Linv)
    del dG, Linv  # read: freed before the curvature's products
    curv = pair_curvature(low, Gamma, hess, n) if curved else None
    del hess, low  # read: freed before the frame's products
    if frame_twist is not None:
        R, dR, _ = frame_twist.jets(t, 1)
        E, dE = bf.frame, bf.dframe
        # d(R E)[i, a, k] = dR[i, a, b] E[b, k] + R[a, b] dE[i, b, k]
        bf.frame, bf.dframe = _product(R, E), {(i, *ak): v for i in range(m) for ak, v in _add(
            _product(_along(dR, i), E), _product(R, _along(dE, i))).items()}
    if curved:
        bf.curvature = _frame_curvature(curv, bf.frame, bf.pushforward, m)
    bf.omega = _frame_connection(bf.metric, Gamma, bf.frame, bf.dframe, bf.pushforward, m)
    return bf
