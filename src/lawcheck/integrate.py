"""Quadrature of pulled-back forms: sections, fiber spheres, Euler densities.

The symbolic forms are the single source of truth: Phi and, like it, Omega
are compiled from chern's forms into numeric templates whose generators are
bound to frame/connection/curvature arrays from the geometry layer, one
chunk of quadrature nodes at a time.  The fiber sphere is chern's polar
parametrization, evaluated on node arrays by ``trig_values``.  Accumulation
uses math.fsum over the per-node products, which is exactly rounded, so
results depend neither on node order nor on the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chern import build_phi, polar_coordinates
from .geometry import (
    GenericityError,
    _add,
    _contract,
    _minus,
    _mul,
    _transpose,
    boundary_frame,
    euler_form_density,
    grid_points,
    metric_inner,
    node_chunks,
    node_first,
    section_jets,
)
from .templates import compile_template, evaluate_template, phi_template, trig_values


# -- grids -----------------------------------------------------------------------

@dataclass
class QuadratureGrid:
    nodes: np.ndarray      # (N, dim)
    weights: np.ndarray    # (N,)
    orders: list           # per axis, or per grid of a ``joined_grid``
    parts: tuple = (slice(None),)  # node slices of the grids it joins

    def __len__(self):
        return len(self.weights)


def _legendre_p(order, x):
    """P_order(x) and P_order'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, order + 1):
        # P_j = ((2j - 1) x P_{j-1} - (j - 1) P_{j-2}) / j, in four array operations
        xp = x * p1
        p0, p1 = p1, xp + (xp - p0) * ((j - 1) / j)
    return p1, order * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _legendre(order):
    """Gauss-Legendre rule on [-1, 1], once per order, in O(order) memory.

    Two Halley steps h = t / (1 + t P'' / (2 P')), t = -P / P', from
    Tricomi's estimates find the (order + 1) // 2 non-negative nodes to
    round-off; the others are their exact mirror images, and an odd order's
    centre node is exactly 0.  Each step runs the three-term recurrence once,
    for P and P'; Legendre's equation gives P'' and P'''.  The weights
    2 / ((1 - x^2) P'(x)^2) take P' at the new nodes as P' + P'' h + P''' h^2 / 2,
    so no third pass runs.  The cached arrays are read-only, as every caller
    shares them.
    """
    k = np.arange(1, (order + 1) // 2 + 1)
    x = (np.cos(math.pi * (k - 0.25) / (order + 0.5))
         * (1.0 - (order - 1) / (8.0 * order ** 3)))
    if order % 2:
        x[-1] = 0.0
    nn1 = order * (order + 1.0)
    for _ in range(2):
        p, dp = _legendre_p(order, x)
        s = 1.0 - x * x
        d2p = (2.0 * x * dp - nn1 * p) / s
        d3p = (4.0 * x * d2p - (nn1 - 2.0) * dp) / s
        t = -p / dp
        h = t / (1.0 + t * d2p / (2.0 * dp))
        x = x + h
    dp = dp + h * (d2p + 0.5 * h * d3p)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = order // 2
    rule = (np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]]))
    for a in rule:
        a.setflags(write=False)
    return rule


def _gauss_1d(lo, hi, order):
    x, w = _legendre(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def gauss_grid(box, orders):
    """Product Gauss-Legendre grid over a box."""
    if isinstance(orders, int):
        orders = [orders] * len(box)
    nodes, weights = zip(*[_gauss_1d(lo, hi, k) for (lo, hi), k in zip(box, orders)])
    return QuadratureGrid(nodes=grid_points(nodes), weights=grid_points(weights).prod(axis=1),
                          orders=list(orders))


def joined_grid(grids):
    """The nodes and weights of ``grids`` in one grid, a part per grid, so
    that the integrals of every part come from one pass over the nodes."""
    ends = np.cumsum([0] + [len(g) for g in grids]).tolist()
    return QuadratureGrid(nodes=np.concatenate([g.nodes for g in grids]),
                          weights=np.concatenate([g.weights for g in grids]),
                          orders=[g.orders for g in grids],
                          parts=tuple(map(slice, ends[:-1], ends[1:])))


# -- section pullbacks --------------------------------------------------------------

class SectionPullback:
    """Numeric evaluator of a unit section of the sphere bundle along a
    boundary: frame components, their derivatives, and the connection and
    curvature values a form template needs at each node."""

    def __init__(self, section=None):
        self.section = section            # None means the outward normal

    def bind(self, t, frame):
        """Pull the section back at the nodes t (N, m) through ``frame``, the
        BoundaryFrame at t.

        The frame components s_A = <W, e_A> and their gradients ds[i,A] come
        from first-order node-last maps (``metric_inner``), the field's from
        ``section_jets``; u = s / |W| and theta_A = du_A + u_B omega(B, A).
        The template bindings u (N, n), theta (N, n, m), omega (N, n, n, m)
        and curvature (N, P, Q) or None are stacked node first.  After them
        come the profile values, the angle between the section and the
        outward normal and <W, n>, one per node.
        """
        t = np.asarray(t, dtype=float)
        N, m = t.shape
        n = m + 1
        if self.section is None:
            W, dW = frame.normal, frame.dnormal
        else:
            W, dW = section_jets(self.section, frame)
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
        u0 = u.get(0, np.zeros(N))
        angle = np.arctan2(np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, u0 ** 2))), u0)
        v_dot_n = _contract({(0, k): w for k, w in W.items()},
                            _contract(frame.metric, frame.normal)).get(0, 0.0)
        P, Q = n * (n - 1) // 2, m * (m - 1) // 2
        return (node_first(u, (N, n)), node_first(theta, (N, n, m)),
                node_first(frame.omega, (N, n, n, m)),
                None if frame.curvature is None else node_first(frame.curvature, (N, P, Q)),
                angle, np.broadcast_to(v_dot_n, (N,)))


# -- the integrals -------------------------------------------------------------------

def _node_values(grid, weighted, n):
    """``weighted(nodes, weights)`` evaluated on each chunk of grid nodes, for
    geometry of dimension n, and joined along its last axis, the node axis."""
    return np.concatenate([weighted(grid.nodes[c], grid.weights[c])
                           for c in node_chunks(len(grid), n)], axis=-1)


def _quadrature(grid, weighted, n):
    """math.fsum of the per-node products ``weighted(nodes, weights)``, one
    per part of the grid."""
    values = _node_values(grid, weighted, n).tolist()
    return tuple(math.fsum(values[part]) for part in grid.parts)


def integrate_euler(patch, grid):
    """Integrals of the Euler curvature density, one per part of the grid;
    0 immediately for odd n."""
    if patch.n % 2:
        return (0.0,) * len(grid.parts)
    if grid.nodes.shape[1] != patch.n:
        raise ValueError("grid dimension does not match the patch")
    return _quadrature(grid, lambda x, w: w * euler_form_density(patch, x), patch.n)


def integrate_phi_over_section(bpatch, sections, grid, frame_twist=None):
    """Integrals of the secondary form over sections of the boundary bundle.

    Each of ``sections`` is None for the outward normal or a callable mapping
    embedded chart jets to vector components; all of them are integrated
    through the same boundary frames.  Returns ``(integrals, densities,
    angles, v_dot_n)``: per part of the grid, a tuple of integrals in the
    order of ``sections``; then the integrand, the section's angle to the
    outward normal and <V, n> as (len(sections), N) arrays over the grid nodes.
    """
    tpl = phi_template(bpatch.parent.n)
    pulls = [SectionPullback(s) for s in sections]

    def values(t, _weights):
        bf = boundary_frame(bpatch, t, frame_twist)
        bound = [pull.bind(t, bf) for pull in pulls]
        return np.array([[evaluate_template(tpl, *b[:4]), *b[4:]] for b in bound])

    dens, angle, v_dot_n = _node_values(grid, values, bpatch.parent.n).transpose(1, 0, 2)
    weighted = grid.weights * dens
    integrals = tuple(tuple(math.fsum(acc.tolist()) for acc in weighted[:, part])
                      for part in grid.parts)
    return integrals, dens, angle, v_dot_n


def fiber_grid(n, order):
    box = [(0.0, math.pi)] * (n - 2) + [(0.0, 2 * math.pi)]
    return gauss_grid(box, order)


def integrate_fiber_form(form, grid):
    """Fiber-sphere integral of an interior form at a flat point (the
    connection and curvature bindings vanish; theta reduces to du)."""
    n = form.n
    m = n - 1
    tpl = compile_template(form, m)
    coords = polar_coordinates(n)
    dcoords = [c.deriv(i) for c in coords for i in range(1, n)]
    flat_omega, flat_curv = np.zeros((n, n, m)), np.zeros((n * (n - 1) // 2, m * (m - 1) // 2))

    def weighted(nodes, weights):
        angles = dict(enumerate(nodes.T, start=1))
        u, theta = (np.stack([np.broadcast_to(trig_values(c, angles), len(nodes))
                              for c in scalars], axis=-1) for scalars in (coords, dcoords))
        return weights * evaluate_template(tpl, u, theta.reshape(-1, n, m),
                                           flat_omega, flat_curv)

    return _quadrature(grid, weighted, n)[0]


def integrate_fiber_volume(n):
    """Total fiber integral of the normalized secondary form (contract: 1)."""
    return integrate_fiber_form(build_phi(n).phi, fiber_grid(n, 64 if n == 2 else 32))


# -- degree integrals ----------------------------------------------------------------
# A map evaluates geometry of dimension 3 at most (the frames of a tangential
# index on a boundary surface), so both integrals take the chunks of n = 3.

def _norm2(w, where):
    """|w|^2 per node; a map that vanishes at a node violates genericity."""
    norm2 = (w * w).sum(-1)
    small = np.flatnonzero(norm2 < 1e-18)
    if small.size:
        raise GenericityError(f"map vanishes on the integration {where(small[0])}")
    return norm2


def degree_integral_circle(map_fn, order):
    """Degree of a nonvanishing plane-valued map over [0, 2pi): ``map_fn(t)``
    takes node angles t (N,) and returns w (N, 2) and dw (N, 1, 2), and
    (w1 w2' - w2 w1') / |w|^2 is integrated."""
    def weighted(nodes, weights):
        t = nodes[:, 0]
        w, dw = map_fn(t)
        norm2 = _norm2(w, lambda k: f"circle at t={float(t[k])}")
        return weights * (w[:, 0] * dw[:, 0, 1] - w[:, 1] * dw[:, 0, 0]) / norm2

    grid = gauss_grid([(0.0, 2 * math.pi)], [order])
    return _quadrature(grid, weighted, 3)[0] / (2 * math.pi)


def degree_integral_sphere(map_fn, order):
    """Degree of a nonvanishing space-valued map over the (colat, lon) box:
    ``map_fn(nodes)`` takes nodes (N, 2) and returns w (N, 3) and dw (N, 2, 3),
    and det[w, dw] / |w|^3, det by cofactors along w, is integrated."""
    def weighted(nodes, weights):
        w, dw = map_fn(nodes)
        norm2 = _norm2(w, lambda k: f"sphere at {[float(a) for a in nodes[k]]}")
        (w0, w1, w2), (a0, a1, a2), (b0, b1, b2) = w.T, dw[:, 0].T, dw[:, 1].T
        det = w0 * (a1 * b2 - a2 * b1) - w1 * (a0 * b2 - a2 * b0) + w2 * (a0 * b1 - a1 * b0)
        return weights * det / (norm2 * np.sqrt(norm2))

    grid = gauss_grid([(0.0, math.pi), (0.0, 2 * math.pi)], [order, 2 * order])
    return _quadrature(grid, weighted, 3)[0] / (4 * math.pi)
