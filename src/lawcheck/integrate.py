"""Quadrature of pulled-back forms: sections, fiber spheres, Euler densities.

The symbolic forms are the single source of truth: Phi and, like it, Omega
are compiled by chern into numeric templates whose generators are bound to
frame/connection/curvature arrays from the geometry layer, one chunk of
quadrature nodes at a time.  The fiber sphere is chern's polar
parametrization, evaluated on node arrays.  Accumulation uses math.fsum over
the per-node products, which is exactly rounded, so results depend neither on
node order nor on the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chern import (
    build_phi,
    compile_template,
    evaluate_template,
    phi_template,
    polar_coordinates,
)
from .geometry import (
    GenericityError,
    boundary_frame,
    euler_form_density,
    metric_inner,
    node_chunks,
    stack_jets,
)


# -- grids -----------------------------------------------------------------------

@dataclass
class QuadratureGrid:
    nodes: np.ndarray      # (N, dim)
    weights: np.ndarray    # (N,)
    box: list
    orders: list

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

    Newton's method on the three-term recurrence (Numerical Recipes 4.6,
    ``gauleg``), from Tricomi's estimates, finds the (order + 1) // 2
    non-negative nodes to round-off in at most 10 steps; the others are their
    exact mirror images, and an odd order's centre node is exactly 0.  The
    weights are 2 / ((1 - x^2) P'(x)^2) at the converged nodes.  The cached
    arrays are read-only, as every caller shares them.
    """
    k = np.arange(1, (order + 1) // 2 + 1)
    x = (np.cos(math.pi * (k - 0.25) / (order + 0.5))
         * (1.0 - (order - 1) / (8.0 * order ** 3)))
    if order % 2:
        x[-1] = 0.0
    for _ in range(10):
        p, dp = _legendre_p(order, x)
        step = p / dp
        if np.abs(step).max() <= 2 * np.finfo(float).eps:
            break
        x = x - step
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
    axes = [_gauss_1d(lo, hi, k) for (lo, hi), k in zip(box, orders)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(len(nodes))
    for wg in wgrids:
        weights = weights * wg.ravel()
    return QuadratureGrid(nodes=nodes, weights=weights, box=list(box),
                          orders=list(orders))


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

        The frame components s_A = <W, e_A> and their t-gradients come from
        first-order arrays; u = s / |W| and theta_A = du_A + u_B omega(B, A).
        The profile values come back as ``{"angle", "v_dot_n"}``, one per node.
        """
        t = np.asarray(t, dtype=float)
        if self.section is None:
            W, dW = frame.normal, frame.dnormal
        else:
            W, dW = stack_jets(self.section(frame.x_jets), t, 1)
        G, dG = frame.metric, frame.dmetric
        norm2, dnorm2 = metric_inner(G, dG, W, dW, W, dW)
        small = np.flatnonzero(norm2 < 1e-18)
        if small.size:
            raise GenericityError("section norm below 1e-9 at boundary point "
                                  f"{[float(v) for v in t[small[0]]]}")
        s, ds = metric_inner(G, dG, frame.frame, frame.dframe, W, dW)
        inv_norm = 1.0 / np.sqrt(norm2)
        u = s * inv_norm[:, None]
        du = (ds * inv_norm[:, None, None]
              - (s[:, :, None] * dnorm2[:, None, :]) * (0.5 * inv_norm ** 3)[:, None, None])
        # theta[A,i] = du[A,i] + u[B] omega[B,A,i]
        theta = du + (u[:, None] @ frame.omega.reshape(u.shape + (-1,))).reshape(du.shape)
        u0 = u[:, 0]
        extras = {
            "angle": np.arctan2(np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, u0 ** 2))), u0),
            "v_dot_n": (W[:, None] @ G @ frame.normal[..., None])[:, 0, 0],
        }
        return u, theta, frame.omega, frame.curvature, extras


# -- the integrals -------------------------------------------------------------------

def _quadrature(grid, weighted):
    """math.fsum of the per-node products ``weighted(nodes, weights)``, which
    is evaluated on chunks of grid nodes."""
    return math.fsum(np.concatenate([weighted(grid.nodes[c], grid.weights[c])
                                     for c in node_chunks(len(grid))]).tolist())


def integrate_euler(patch, grid):
    """Integral of the Euler curvature density; 0 immediately for odd n."""
    if patch.n % 2:
        return 0.0
    if grid.nodes.shape[1] != patch.n:
        raise ValueError("grid dimension does not match the patch")
    return _quadrature(grid, lambda x, w: w * euler_form_density(patch, x))


def integrate_phi_over_section(bpatch, sections, grid, frame_twist=None,
                               collect=None):
    """Integrals of the secondary form over sections of the boundary bundle.

    Each of ``sections`` is None for the outward normal or a callable mapping
    embedded chart jets to vector components; all of them are integrated
    through the same boundary frames, and the integrals come back as a
    tuple in the same order.  ``collect`` receives one profile row per node
    when given, with a tuple of densities, angles and v_dot_n values, one per
    section.
    """
    tpl = phi_template(bpatch.parent.n)
    pulls = [SectionPullback(s) for s in sections]
    parts = []                     # per chunk: (n_sections, 4, nodes) arrays
    for c in node_chunks(len(grid)):
        t = grid.nodes[c]
        bf = boundary_frame(bpatch, t, frame_twist)
        bound = [pull.bind(t, bf) for pull in pulls]
        dens = [evaluate_template(tpl, *b[:4]) for b in bound]
        parts.append(np.array([[grid.weights[c] * d * bf.orientation, d,
                                b[4]["angle"], b[4]["v_dot_n"]]
                               for d, b in zip(dens, bound)]))
    weighted, dens, angle, v_dot_n = np.concatenate(parts, axis=2).transpose(1, 0, 2)
    if collect is not None:
        collect.extend(
            {"t": t, "weight": w, "density": tuple(d), "angle": tuple(a),
             "v_dot_n": tuple(v)}
            for t, w, d, a, v in zip(grid.nodes.tolist(), grid.weights.tolist(),
                                     dens.T.tolist(), angle.T.tolist(),
                                     v_dot_n.T.tolist()))
    return tuple(math.fsum(acc) for acc in weighted.tolist())


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
    flat = np.zeros((n, n, m, m))

    def weighted(nodes, weights):
        angles = dict(enumerate(nodes.T, start=1))
        u, theta = (np.stack([np.broadcast_to(c.to_float(angles), len(nodes))
                              for c in scalars], axis=-1) for scalars in (coords, dcoords))
        return weights * evaluate_template(tpl, u, theta.reshape(-1, n, m),
                                           flat[..., 0], flat)

    return _quadrature(grid, weighted)


def integrate_fiber_volume(n, order=None):
    """Total fiber integral of the normalized secondary form (contract: 1)."""
    if order is None:
        order = 64 if n == 2 else 32
    return integrate_fiber_form(build_phi(n).phi, fiber_grid(n, order))


# -- degree integrals ----------------------------------------------------------------

def _norm2(w, where):
    """|w|^2 per node; a map that vanishes at a node violates genericity."""
    norm2 = (w * w).sum(-1)
    small = np.flatnonzero(norm2 < 1e-18)
    if small.size:
        raise GenericityError(f"map vanishes on the integration {where(small[0])}")
    return norm2


def degree_integral_circle(map_fn, order=256):
    """Degree of a nonvanishing plane-valued map over [0, 2pi): ``map_fn(t)``
    takes node angles t (N,) and returns w (N, 2) and dw (N, 2, 1), and
    (w1 w2' - w2 w1') / |w|^2 is integrated."""
    def weighted(nodes, weights):
        t = nodes[:, 0]
        w, dw = map_fn(t)
        norm2 = _norm2(w, lambda k: f"circle at t={float(t[k])}")
        return weights * (w[:, 0] * dw[:, 1, 0] - w[:, 1] * dw[:, 0, 0]) / norm2

    grid = gauss_grid([(0.0, 2 * math.pi)], [order])
    return _quadrature(grid, weighted) / (2 * math.pi)


def degree_integral_sphere(map_fn, order=48):
    """Degree of a nonvanishing space-valued map over the (colat, lon) box:
    ``map_fn(nodes)`` takes nodes (N, 2) and returns w (N, 3) and dw (N, 3, 2),
    and det[w, dw] / |w|^3 is integrated."""
    def weighted(nodes, weights):
        w, dw = map_fn(nodes)
        norm2 = _norm2(w, lambda k: f"sphere at {[float(a) for a in nodes[k]]}")
        mat = np.concatenate([w[:, None], dw.swapaxes(1, 2)], axis=1)
        return weights * np.linalg.det(mat) / (norm2 * np.sqrt(norm2))

    grid = gauss_grid([(0.0, math.pi), (0.0, 2 * math.pi)], [order, 2 * order])
    return _quadrature(grid, weighted) / (4 * math.pi)
