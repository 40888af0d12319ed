"""Quadrature of pulled-back forms: sections, fiber spheres, Euler densities.

The symbolic forms are the single source of truth: Phi and Omega are
compiled from chern's forms into numeric templates that read node-last maps,
u and theta of the section pullbacks and the curvature of the geometry layer,
by chunks of nodes; on a product grid, only at the nodes that differ on the
parameters the integrand reads.  The fiber sphere is chern's polar
parametrization, evaluated by ``trig_values``.  Sums over the per-node products
are exactly rounded by extraction, bit for bit math.fsum: no result depends on
node order or chunks.  Gauss-Legendre rules are cached per order, and
``legendre_rules`` builds all the rules of a scenario in one batched recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chern import build_phi, polar_coordinates
from .geometry import (
    GenericityError,
    _add,
    _contract,
    _transpose,
    boundary_frame,
    euler_form_density,
    grid_points,
    metric_inner,
    node_chunks,
    pullback_jets,
)
from .templates import (_minus, _mul, _sum, compile_template, evaluate_template, phi_template,
                        trig_values)


# -- grids -----------------------------------------------------------------------

@dataclass
class QuadratureGrid:
    nodes: np.ndarray      # (N, dim)
    weights: np.ndarray    # (N,)
    orders: list           # per axis, or per grid of a ``joined_grid``
    parts: tuple = (slice(None),)  # node slices of the grids it joins
    axes: tuple = (None,)  # per part, the 1-D node arrays of its product grid, or None

    def __len__(self):
        return len(self.weights)


def _legendre_p(x, order, counts):
    """P_order(x) and P_order'(x) by the three-term recurrence, for |x| < 1, at
    the nodes of several orders in one pass: ``order`` per node, ascending, in
    runs of ``counts[k]`` nodes of order k.  A run keeps P_k and P_{k-1} when the
    recurrence reaches k and leaves the live suffix, so its arithmetic is k's own."""
    p, q = np.empty_like(x), np.empty_like(x)  # P_order and P_{order-1}
    p0, p1, live, start, top = np.ones_like(x), x, x, 0, 1
    for k, count in counts.items():
        for j in range(top + 1, k + 1):
            # P_j = ((2j - 1) x P_{j-1} - (j - 1) P_{j-2}) / j, in four array operations
            xp = live * p1
            p0, p1 = p1, xp + (xp - p0) * ((j - 1) / j)
        top, end = k, start + count
        p[start:end], q[start:end] = p1[:count], p0[:count]
        p0, p1, live, start = p0[count:], p1[count:], live[count:], end
    return p, order * (x * p - q) / (x * x - 1.0)


def _tricomi(order):
    """Tricomi's estimates of the non-negative nodes, descending; an odd order's
    centre node is exactly 0."""
    k = np.arange(1, (order + 1) // 2 + 1)
    x = (np.cos(math.pi * (k - 0.25) / (order + 0.5))
         * (1.0 - (order - 1) / (8.0 * order ** 3)))
    if order % 2:
        x[-1] = 0.0
    return x


_RULES = {}  # order -> Gauss-Legendre nodes and weights on [-1, 1], read-only


def legendre_rules(orders):
    """Gauss-Legendre rules on [-1, 1], one per entry of ``orders``; the ones
    not cached yet are built together, in O(order) memory per order.

    Two Halley steps h = t / (1 + t P'' / (2 P')), t = -P / P', from
    Tricomi's estimates find the (order + 1) // 2 non-negative nodes to
    round-off; the others are their exact mirror images.  Each step runs the
    three-term recurrence once over the nodes of every missing order, for P
    and P'; Legendre's equation gives P'' and P'''.  The weights
    2 / ((1 - x^2) P'(x)^2) take P' at the new nodes as P' + P'' h + P''' h^2 / 2,
    so no third pass runs.  The cached arrays are read-only, as every caller
    shares them.
    """
    counts = {k: (k + 1) // 2 for k in sorted(set(orders)) if k not in _RULES}
    if counts:
        x = np.concatenate([_tricomi(k) for k in counts])
        order = np.repeat(np.array(list(counts), dtype=float), list(counts.values()))
        nn1 = order * (order + 1.0)
        for _ in range(2):
            p, dp = _legendre_p(x, order, counts)
            s = 1.0 - x * x
            d2p = (2.0 * x * dp - nn1 * p) / s
            d3p = (4.0 * x * d2p - (nn1 - 2.0) * dp) / s
            t = -p / dp
            h = t / (1.0 + t * d2p / (2.0 * dp))
            x = x + h
        dp = dp + h * (d2p + 0.5 * h * d3p)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        start = 0
        for k, count in counts.items():
            xk, wk, half = x[start:start + count], w[start:start + count], k // 2
            rule = (np.concatenate([-xk[:half], xk[::-1]]), np.concatenate([wk[:half], wk[::-1]]))
            for a in rule:
                a.setflags(write=False)
            _RULES[k], start = rule, start + count
    return [_RULES[k] for k in orders]


def _legendre(order):
    """The Gauss-Legendre rule of ``order`` on [-1, 1], built once."""
    return _RULES[order] if order in _RULES else legendre_rules([order])[0]


def _gauss_1d(lo, hi, order):
    x, w = _legendre(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def gauss_grid(box, orders):
    """Product Gauss-Legendre grid over a box, weights the axes' outer product."""
    if isinstance(orders, int):
        orders = [orders] * len(box)
    axes, weights = zip(*[_gauss_1d(lo, hi, k) for (lo, hi), k in zip(box, orders)])
    return QuadratureGrid(nodes=grid_points(axes), orders=list(orders), axes=(axes,),
                          weights=reduce(np.multiply.outer, weights).ravel())


def joined_grid(grids):
    """The nodes and weights of ``grids`` in one grid, a part per grid, so
    that the integrals of every part come from one pass over the nodes."""
    ends = np.cumsum([0] + [len(g) for g in grids]).tolist()
    return QuadratureGrid(nodes=np.concatenate([g.nodes for g in grids]),
                          weights=np.concatenate([g.weights for g in grids]),
                          orders=[g.orders for g in grids],
                          parts=tuple(map(slice, ends[:-1], ends[1:])),
                          axes=tuple(g.axes[0] if len(g.axes) == 1 else None for g in grids))


# -- section pullbacks --------------------------------------------------------------

class SectionPullback:
    """Numeric evaluator of a unit section of the sphere bundle along a
    boundary: its frame components u and their covariant derivatives theta,
    the bindings a form template reads beside the frame's curvature."""

    def __init__(self, section=None):
        self.section = section            # None means the outward normal, frame row 0

    def bind(self, t, frame):
        """Pull the section back at the nodes t (N, m) through ``frame``, the
        BoundaryFrame at t.

        The frame components s_A = <W, e_A> and their gradients ds[i,A] come
        from first-order node-last maps (``metric_inner``), the field's from
        ``pullback_jets``; u = s / |W| and theta_A = du_A + u_B omega(B, A).
        Returns the template bindings, the node-last maps u[A] and
        theta[A, i], then the profile values, one per node: the angle between
        the section and the outward normal, arctan2(|u_tangential|, u_0),
        which keeps its relative accuracy near the normal, and <W, n>.
        """
        t = np.asarray(t, dtype=float)
        N, m = t.shape
        n = m + 1
        normal = {k: v for (A, k), v in frame.frame.items() if A == 0}
        if self.section is None:
            W, dW = normal, {(i, k): v for (i, A, k), v in frame.dframe.items() if A == 0}
        else:
            W, dW = pullback_jets(self.section, frame.points, frame.pushforward)
        # s_A = <W, e_A> and, as row n, |W|^2 = <W, W>
        s, ds = metric_inner(frame.metric, frame.dmetric,
                             {**frame.frame, **{(n, k): w for k, w in W.items()}},
                             {**frame.dframe, **{(i, n, k): d for (i, k), d in dW.items()}}, W, dW)
        norm2 = np.broadcast_to(s.pop(n, 0.0), (N,))
        small = np.flatnonzero(norm2 < 1e-18)
        if small.size:
            raise GenericityError("section norm below 1e-9 at boundary point "
                                  f"{[float(v) for v in t[small[0]]]}")
        inv_norm = 1.0 / np.sqrt(norm2)
        half_cube = 0.5 * inv_norm ** 3
        u = {A: v * inv_norm for A, v in s.items()}
        du = {(i, A): v for i in range(m) for A in range(n) if (v := _minus(  # ds[i, n] = d|W|^2
            _mul(ds.get((i, A)), inv_norm), _mul(_mul(ds.get((i, n)), s.get(A)), half_cube)))
            is not None}
        # theta[A, i] = du[i, A] + u[B] omega[B, A, i]
        theta = _add(_transpose(du),
                     _contract({(A, i, B): v for (B, A, i), v in frame.omega.items()}, u))
        tangential = _sum([v * v for A, v in u.items() if A])
        angle = np.arctan2(np.broadcast_to(0.0 if tangential is None else np.sqrt(tangential),
                                           (N,)), u.get(0, 0.0))
        v_dot_n = _contract({(0, k): w for k, w in W.items()},
                            _contract(frame.metric, normal)).get(0, 0.0)
        return u, theta, angle, np.broadcast_to(v_dot_n, (N,))


# -- the integrals -------------------------------------------------------------------

def _reads(fn, order=0):
    """The parameters that the entries of an input read, by its ``reads(order)``."""
    return set().union(*fn.reads(order).values())


def _node_values(grid, values, reads=None):
    """``values(nodes)``, node axis last, at every grid node, by chunks: on a
    product grid only where the axes not in ``reads`` (None: all) are at their
    first node, broadcast along them (Davis & Rabinowitz 1984, 5.6).  The first
    failing node in grid order has its unread axes there, so it raises as on the
    full grid; which of two stages' errors wins may change, as with chunk size."""
    every = reads is None or None in grid.axes or reads >= set(range(grid.nodes.shape[1]))
    subs = None if every else [[a if i in reads else a[:1] for i, a in enumerate(axes)]
                               for axes in grid.axes]
    nodes = grid.nodes if subs is None else np.concatenate([grid_points(sub) for sub in subs])
    out = np.concatenate([values(nodes[c]) for c in node_chunks(len(nodes))], axis=-1)
    if subs is None:
        return out
    full, lead, start = np.empty(out.shape[:-1] + (len(grid),)), out.shape[:-1], 0
    for part, sub, axes in zip(grid.parts, subs, grid.axes):
        kept = tuple(map(len, sub))
        np.reshape(full[..., part], lead + tuple(map(len, axes)), copy=False)[...] = (
            out[..., start:start + math.prod(kept)].reshape(lead + kept))
        start += math.prod(kept)
    return full


def _exact_sum(a):
    """``math.fsum(a.tolist())`` bit for bit, for a 1-D array, by two rounds of
    error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31 (2008)):
    with sigma = 2^e >= (N + 2) max|a|, q = (sigma + a) - sigma sums exactly and
    a - q is exact.  fsum takes empty, all-zero and non-finite arrays, and those
    whose bound reaches 2^1000 (tested itself, as it may overflow to inf)."""
    n = a.size
    m = float(abs(a).max()) if n else 0.0
    if not (0.0 < m and (n + 2) * m < 2.0 ** 1000):
        return math.fsum(a.tolist())
    sums = []
    for _ in range(2):
        sigma = math.ldexp(1.0, math.frexp((n + 2) * m)[1])
        q = (sigma + a) - sigma
        sums.append(float(q.sum()))
        a = a - q
        m = float(abs(a).max())
        if m == 0.0:
            return math.fsum(sums)
    return math.fsum(sums + a[a != 0.0].tolist())


def _part_sums(grid, values):
    """Exactly rounded sums (``_exact_sum``) over the node axis, the last, of
    ``values`` on each part of the grid: per part, a float for values (N,), a
    tuple for values (S, N)."""
    def exact(a):
        return _exact_sum(a) if a.ndim == 1 else tuple(map(exact, a))
    return tuple(exact(values[..., part]) for part in grid.parts)


def integrate_euler(patch, grid):
    """Integrals of the Euler curvature density, one per part of the grid (0.0
    at odd n, where the form is zero); the density reads what the metric reads."""
    if grid.nodes.shape[1] != patch.n:
        raise ValueError("grid dimension does not match the patch")
    density = _node_values(grid, lambda x: euler_form_density(patch, x), _reads(patch.metric))
    return _part_sums(grid, grid.weights * density)


def _phi_reads(bpatch, sections):
    """The boundary parameters that the Phi integrand reads: what ``outward``
    and the embedding's derivatives read, and embedding entry p for each chart
    parameter p that the metric or a section's field reads."""
    chart = set().union(_reads(bpatch.parent.metric),
                        *(_reads(s) for s in sections if s is not None))
    x = bpatch.embed.reads()
    return set().union(_reads(bpatch.embed, 2), _reads(bpatch.outward), *(x[p] for p in chart))


def integrate_phi_over_section(bpatch, sections, grid):
    """Integrals of the secondary form over sections of the boundary bundle.

    Each of ``sections`` is None for the outward normal or a field, a
    compiled vector of the chart parameters read through its ``jets``; all of
    them are integrated through the same boundary frames, on the parameters
    read (``_phi_reads``).
    Returns ``(integrals, densities, angles, v_dot_n)``: per part of the grid,
    a tuple of integrals in the order of ``sections``; then the integrand, the
    section's angle to the outward normal and <V, n> as (len(sections), N)
    arrays over the grid nodes.
    """
    tpl = phi_template(bpatch.parent.n)
    pulls = [SectionPullback(s) for s in sections]

    def values(t):
        bf = boundary_frame(bpatch, t)

        def profile(pull):  # one section's u and theta alive at a time
            u, theta, angle, v_dot_n = pull.bind(t, bf)
            return evaluate_template(tpl, u, theta, bf.curvature, len(t)), angle, v_dot_n

        return np.array([profile(pull) for pull in pulls])

    reads = _phi_reads(bpatch, sections)
    dens, angle, v_dot_n = _node_values(grid, values, reads).transpose(1, 0, 2)
    return _part_sums(grid, grid.weights * dens), dens, angle, v_dot_n


def fiber_grid(n, order):
    box = [(0.0, math.pi)] * (n - 2) + [(0.0, 2 * math.pi)]
    return gauss_grid(box, order)


def integrate_fiber_form(form, grid):
    """Fiber-sphere integral of an interior form at a flat point (the
    curvature vanishes, an empty map; theta reduces to du)."""
    n = form.n
    tpl = compile_template(form, n - 1)
    coords = polar_coordinates(n)
    dcoords = {(A, i - 1): c.deriv(i) for A, c in enumerate(coords) for i in range(1, n)}

    def values(nodes):
        angles = dict(enumerate(nodes.T, start=1))
        u = {A: trig_values(c, angles) for A, c in enumerate(coords)}
        theta = {key: trig_values(c, angles) for key, c in dcoords.items()}
        return evaluate_template(tpl, u, theta, {}, len(nodes))

    return _part_sums(grid, grid.weights * _node_values(grid, values))[0]


def integrate_fiber_volume(n):
    """Total fiber integral of the normalized secondary form (contract: 1)."""
    return integrate_fiber_form(build_phi(n).phi, fiber_grid(n, 64 if n == 2 else 32))


# -- degree integrals ----------------------------------------------------------------

def _norm2(w, count, where):
    """|w|^2 at ``count`` nodes from the node-last map w, its entries squared
    and summed in key order.  A map that vanishes at a node violates
    genericity."""
    norm2 = np.broadcast_to(_sum([w[k] * w[k] for k in sorted(w)]) if w else 0.0, (count,))
    small = np.flatnonzero(norm2 < 1e-18)
    if small.size:
        raise GenericityError(f"map vanishes on the integration {where(small[0])}")
    return norm2


def _degree_integral(box, orders, fraction):
    """Sum weight * num / den over the Gauss grid of ``box``, num and den from ``fraction``."""
    grid = gauss_grid(box, orders)
    num, den = _node_values(grid, lambda nodes: np.broadcast_arrays(*fraction(nodes)))
    return _part_sums(grid, grid.weights * num / den)[0]


def degree_integral_circle(map_fn, order):
    """Degree of a nonvanishing plane-valued map over [0, 2pi): ``map_fn(t)``
    takes node angles t (N,) and returns the node-last maps w[k] and
    dw[0, k], k < 2, of ``pullback_jets``, an absent entry zero, and
    (w1 w2' - w2 w1') / |w|^2 is integrated."""
    def fraction(nodes):
        t = nodes[:, 0]
        w, dw = map_fn(t)
        norm2 = _norm2(w, len(t), lambda k: f"circle at t={float(t[k])}")
        w0, w1 = (w.get(k, 0.0) for k in range(2))
        return w0 * dw.get((0, 1), 0.0) - w1 * dw.get((0, 0), 0.0), norm2

    return _degree_integral([(0.0, 2 * math.pi)], [order], fraction) / (2 * math.pi)


def degree_integral_sphere(map_fn, order):
    """Degree of a nonvanishing space-valued map over the (colat, lon) box:
    ``map_fn(nodes)`` takes nodes (N, 2) and returns the node-last maps w[k]
    and dw[i, k], k < 3, of ``pullback_jets``, an absent entry zero, and
    det[w, dw] / |w|^3, det by cofactors along w, is integrated."""
    def fraction(nodes):
        w, dw = map_fn(nodes)
        norm2 = _norm2(w, len(nodes), lambda k: f"sphere at {[float(a) for a in nodes[k]]}")
        w0, w1, w2 = (w.get(k, 0.0) for k in range(3))
        (a0, a1, a2), (b0, b1, b2) = ([dw.get((i, k), 0.0) for k in range(3)] for i in (0, 1))
        det = w0 * (a1 * b2 - a2 * b1) - w1 * (a0 * b2 - a2 * b0) + w2 * (a0 * b1 - a1 * b0)
        return det, norm2 * np.sqrt(norm2)

    return _degree_integral([(0.0, math.pi), (0.0, 2 * math.pi)], [order, 2 * order],
                            fraction) / (4 * math.pi)
