"""Quadrature of pulled-back forms: sections, fiber spheres, Euler densities.

The symbolic secondary form is the single source of truth: its monomials are
compiled into a numeric template whose generators are bound, per quadrature
node, to frame/connection/curvature values produced by the geometry layer.
Accumulation uses pairwise summation so results do not depend on evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .algebra import DEGREE, K_DPHI, K_THETA, K_U
from .chern import build_phi, perm_sign
from .geometry import (
    Jet,
    as_jet,
    boundary_frame,
    euler_form_density,
    jet_first_order,
    metric_inner,
)
from .trig import sphere_volume


def pairwise_sum(values):
    """Sum with pairwise splitting to bound floating-point error growth."""
    vals = list(values)
    if not vals:
        return 0.0

    def rec(lo, hi):
        if hi - lo <= 8:
            total = 0.0
            for k in range(lo, hi):
                total += vals[k]
            return total
        mid = (lo + hi) // 2
        return rec(lo, mid) + rec(mid, hi)

    return float(rec(0, len(vals)))


def c_volume(r):
    """Volume of the unit r-sphere as a float."""
    if r < 1:
        raise ValueError("sphere dimension must be >= 1")
    return sphere_volume(r).to_float()


# -- grids -----------------------------------------------------------------------

@dataclass
class QuadratureGrid:
    nodes: np.ndarray      # (N, dim)
    weights: np.ndarray    # (N,)
    box: list
    orders: list

    def __len__(self):
        return len(self.weights)

    @property
    def total_weight(self):
        return pairwise_sum(self.weights)


def _gauss_1d(lo, hi, order):
    x, w = np.polynomial.legendre.leggauss(order)
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


def _box_minus_box(outer, inner):
    """Decompose outer \\ inner (both axis-aligned, inner inside outer) into
    disjoint boxes by slab splitting."""
    pieces = []
    cur = [list(b) for b in outer]
    for axis in range(len(outer)):
        lo, hi = cur[axis]
        ilo, ihi = inner[axis]
        if ilo > lo:
            piece = [tuple(b) for b in cur]
            piece[axis] = (lo, ilo)
            pieces.append(piece)
        if ihi < hi:
            piece = [tuple(b) for b in cur]
            piece[axis] = (ihi, hi)
            pieces.append(piece)
        cur[axis] = [max(lo, ilo), min(hi, ihi)]
    return pieces


def grid_with_rings(box, orders, center, radius, levels=6, ratio=0.5,
                    ring_order=8):
    """Grid over the box with geometric ring refinement around one point.

    The square of half-width ``radius`` around the point is carved out of the
    base grid and replaced by ``levels`` shrinking square annuli (ratio 1/2),
    each covered by its own product rule; the innermost square is the puncture
    and carries no nodes.
    """
    center = list(map(float, center))
    d = len(box)
    for (lo, hi), c in zip(box, center):
        if not (lo < c < hi):
            raise ValueError("refinement center must be interior to the box")
    square = [(c - radius, c + radius) for c in center]
    pieces = [(b, orders) for b in _box_minus_box(box, square)]
    for k in range(levels):
        inner = [(c - radius * ratio ** (k + 1), c + radius * ratio ** (k + 1))
                 for c in center]
        for piece in _box_minus_box(square, inner):
            pieces.append((piece, ring_order))
        square = inner
    all_nodes, all_weights = [], []
    for piece, order in pieces:
        if any(hi - lo <= 0 for lo, hi in piece):
            continue
        g = gauss_grid(piece, order)
        all_nodes.append(g.nodes)
        all_weights.append(g.weights)
    return QuadratureGrid(nodes=np.concatenate(all_nodes),
                          weights=np.concatenate(all_weights),
                          box=list(box),
                          orders=[orders] if isinstance(orders, int) else list(orders))


# -- numeric templates for symbolic forms -----------------------------------------

@dataclass(frozen=True)
class FormTemplate:
    n: int
    slots: int
    entries: tuple    # (coeff, u_list, factors) with factors ((kind, a, b, deg), ...)


def compile_template(form, slots):
    """Flatten a constant-coefficient interior form for numeric evaluation."""
    entries = []
    for (evens, odds), coeff in form.terms.items():
        us = []
        factors = []
        for kind, a, b in evens:
            if kind == K_U:
                us.append(a - 1)
            else:
                factors.append((kind, a - 1, b - 1, DEGREE[kind]))
        for kind, a, b in odds:
            if kind == K_DPHI:
                raise ValueError("numeric templates cannot bind formal angles")
            factors.append((kind, a - 1, b - 1, DEGREE[kind]))
        total_deg = sum(f[3] for f in factors)
        if total_deg != slots:
            continue  # wrong degree; contributes nothing to a top-degree density
        entries.append((coeff.to_float(), tuple(us), tuple(factors)))
    return FormTemplate(n=form.n, slots=slots, entries=tuple(entries))


@lru_cache(maxsize=None)
def _slot_permutations(slots):
    return tuple((p, perm_sign(p)) for p in permutations(range(slots)))


def evaluate_template(tpl, u, theta, omega, curv):
    """Evaluate the compiled density on the chart slots.

    u: (n,), theta: (n, slots), omega/curv: (n, n, slots[, slots]).
    """
    total = 0.0
    perms = _slot_permutations(tpl.slots)
    for coeff, us, factors in tpl.entries:
        scalar = coeff
        for a in us:
            scalar *= u[a]
        if scalar == 0.0:
            continue
        denom = 1.0
        for f in factors:
            if f[3] == 2:
                denom *= 2.0
        acc = 0.0
        for perm, sign in perms:
            prod = sign
            pos = 0
            for kind, a, b, deg in factors:
                if deg == 1:
                    val = theta[a][perm[pos]] if kind == K_THETA else omega[a][b][perm[pos]]
                    pos += 1
                else:
                    val = curv[a][b][perm[pos]][perm[pos + 1]]
                    pos += 2
                prod *= val
                if prod == 0.0:
                    break
            acc += prod
        total += scalar * acc / denom
    return total


@lru_cache(maxsize=None)
def phi_template(n):
    return compile_template(build_phi(n).phi, n - 1)


# -- section pullbacks --------------------------------------------------------------

class SectionPullback:
    """Numeric evaluator of a unit section of the sphere bundle along a
    boundary patch: frame components, their derivatives, and the connection
    and curvature values a form template needs at each node."""

    def __init__(self, bpatch, section=None):
        self.bpatch = bpatch
        self.section = section            # None means the outward normal

    def bind(self, t, frame=None):
        """Pull the section back at t through ``frame`` (a BoundaryFrame at
        t, built here when None).

        The frame components s_A = <W, e_A> and their t-gradients come from
        first-order arrays; u = s / |W| and theta_A = du_A + u_B omega(B, A).
        """
        bf = frame if frame is not None else boundary_frame(self.bpatch, t)
        if self.section is None:
            W, dW = bf.normal, bf.dnormal
        else:
            W, dW = jet_first_order(self.section(bf.x_jets), self.bpatch.m)
        G, dG = bf.metric, bf.dmetric
        norm2, dnorm2 = metric_inner(G, dG, W, dW, W, dW)
        if norm2 < 1e-18:
            raise ValueError(f"section norm below 1e-9 at boundary point {list(t)}")
        s, ds = metric_inner(G, dG, bf.frame, bf.dframe, W, dW)
        inv_norm = 1.0 / math.sqrt(norm2)
        u = s * inv_norm
        du = ds * inv_norm - np.outer(s, dnorm2) * (0.5 * inv_norm ** 3)
        theta = du + np.einsum("B,BAi->Ai", u, bf.omega)
        extras = {
            "x": bf.x,
            "u": u,
            "angle": math.atan2(math.sqrt(max(0.0, 1.0 - min(1.0, u[0] ** 2))), u[0]),
            "v_norm": math.sqrt(norm2),
            "v_dot_n": float(W @ G @ bf.normal),
            "unit_residual": abs(float(u @ u) - 1.0),
            "orientation": bf.orientation,
        }
        return u, theta, bf.omega, bf.curvature, extras


# -- the integrals -------------------------------------------------------------------

def integrate_euler(patch, grid):
    """Integral of the Euler curvature density; 0 immediately for odd n."""
    if patch.n % 2:
        return 0.0
    if grid.nodes.shape[1] != patch.n:
        raise ValueError("grid dimension does not match the patch")
    vals = [w * euler_form_density(patch, x)
            for x, w in zip(grid.nodes, grid.weights)]
    return pairwise_sum(vals)


def integrate_phi_over_section(bpatch, section, grid, frame_twist=None,
                               collect=None, orientation=1):
    """Integral of the secondary form over a section of the boundary bundle.

    ``section`` is None for the outward normal or a callable mapping embedded
    chart jets to vector components; a tuple of such sections is integrated
    through one boundary frame per node and gives a tuple of integrals.
    ``collect`` receives one profile row per node when given, with the
    density, angle and v_dot_n of each section (tuples for a tuple of
    sections).  ``orientation=-1`` integrates over the boundary with its
    induced orientation reversed.
    """
    single = not isinstance(section, tuple)
    sections = (section,) if single else section
    tpl = phi_template(bpatch.parent.n)
    pulls = [SectionPullback(bpatch, s) for s in sections]
    vals = [[] for _ in sections]
    for tnode, w in zip(grid.nodes, grid.weights):
        bf = boundary_frame(bpatch, tnode, frame_twist)
        bound = [pull.bind(tnode, bf) for pull in pulls]
        dens = tuple(float(evaluate_template(tpl, *b[:4])) for b in bound)
        for acc, d in zip(vals, dens):
            acc.append(w * d * bf.orientation * orientation)
        if collect is not None:
            row = {"density": dens,
                   "angle": tuple(b[4]["angle"] for b in bound),
                   "v_dot_n": tuple(b[4]["v_dot_n"] for b in bound)}
            if single:
                row = {key: value[0] for key, value in row.items()}
            collect.append({"t": list(map(float, tnode)), "weight": float(w),
                            **row})
    totals = tuple(pairwise_sum(acc) for acc in vals)
    return totals[0] if single else totals


def fiber_coordinates(n, angles):
    """Polar parametrization of the fiber sphere as jets in the angles."""
    jets = Jet.variables(list(angles))
    out = []
    for a in range(1, n + 1):
        val = Jet.constant(1.0, n - 1)
        for i in range(a - 1):
            val = val * jets[i].sin()
        if a < n:
            val = val * jets[a - 1].cos()
        out.append(val)
    return out


def fiber_grid(n, order):
    box = [(0.0, math.pi)] * (n - 2) + [(0.0, 2 * math.pi)]
    return gauss_grid(box, order)


def integrate_fiber_form(form, grid):
    """Fiber-sphere integral of an interior form at a flat point (the
    connection and curvature bindings vanish; theta reduces to du)."""
    n = form.n
    m = n - 1
    tpl = compile_template(form, m)
    omega = np.zeros((n, n, m))
    curv = np.zeros((n, n, m, m))
    vals = []
    for node, w in zip(grid.nodes, grid.weights):
        coords = fiber_coordinates(n, node)
        u = np.array([c.v for c in coords])
        theta = np.array([c.g for c in coords])
        vals.append(w * evaluate_template(tpl, u, theta, omega, curv))
    return pairwise_sum(vals)


def integrate_fiber_volume(n, order=None):
    """Total fiber integral of the normalized secondary form (contract: 1)."""
    if order is None:
        order = 64 if n == 2 else 32
    return integrate_fiber_form(build_phi(n).phi, fiber_grid(n, order))


# -- degree integrals ----------------------------------------------------------------

def degree_integral_circle(map_fn, order=256):
    """Degree of a nonvanishing plane-valued map over [0, 2pi)."""
    grid = gauss_grid([(0.0, 2 * math.pi)], [order])
    vals = []
    for (t,), w in zip(grid.nodes, grid.weights):
        j = Jet.variables([t])
        comp = map_fn(j[0])
        w1, w2 = (as_jet(c, 1) for c in comp)
        norm2 = w1 * w1 + w2 * w2
        if norm2.v < 1e-18:
            raise ValueError(f"map vanishes on the integration circle at t={t}")
        inv = 1.0 / norm2.sqrt()
        a, b = w1 * inv, w2 * inv
        vals.append(w * (a.v * b.g[0] - b.v * a.g[0]))
    return pairwise_sum(vals) / (2 * math.pi)


def degree_integral_sphere(map_fn, order=48):
    """Degree of a nonvanishing space-valued map over the (colat, lon) box."""
    grid = gauss_grid([(0.0, math.pi), (0.0, 2 * math.pi)], [order, 2 * order])
    vals = []
    for node, w in zip(grid.nodes, grid.weights):
        jets = Jet.variables(list(node))
        comp = [as_jet(c, 2) for c in map_fn(jets)]
        norm2 = comp[0] * comp[0] + comp[1] * comp[1] + comp[2] * comp[2]
        if norm2.v < 1e-18:
            raise ValueError(f"map vanishes on the integration sphere at {list(node)}")
        inv = 1.0 / norm2.sqrt()
        wv = [c * inv for c in comp]
        mat = np.array([[c.v for c in wv],
                        [c.g[0] for c in wv],
                        [c.g[1] for c in wv]])
        vals.append(w * np.linalg.det(mat))
    return pairwise_sum(vals) / (4 * math.pi)
