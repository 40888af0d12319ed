"""Quadrature of pulled-back forms: sections, fiber spheres, Euler densities.

The symbolic forms are the single source of truth: Phi and, like it, Omega
are compiled by chern into numeric templates whose generators are bound, per
quadrature node, to frame/connection/curvature values from the geometry layer.
The fiber sphere is chern's polar parametrization, evaluated in floats.
Accumulation uses math.fsum, which is exactly rounded, so results do not
depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    jet_first_order,
    metric_inner,
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


# -- section pullbacks --------------------------------------------------------------

class SectionPullback:
    """Numeric evaluator of a unit section of the sphere bundle along a
    boundary patch: frame components, their derivatives, and the connection
    and curvature values a form template needs at each node."""

    def __init__(self, bpatch, section=None):
        self.bpatch = bpatch
        self.section = section            # None means the outward normal

    def bind(self, t, frame):
        """Pull the section back at t through ``frame``, the BoundaryFrame at t.

        The frame components s_A = <W, e_A> and their t-gradients come from
        first-order arrays; u = s / |W| and theta_A = du_A + u_B omega(B, A).
        The profile values come back as ``{"angle", "v_dot_n"}``.
        """
        if self.section is None:
            W, dW = frame.normal, frame.dnormal
        else:
            W, dW = jet_first_order(self.section(frame.x_jets), self.bpatch.m)
        G, dG = frame.metric, frame.dmetric
        norm2, dnorm2 = metric_inner(G, dG, W, dW, W, dW)
        if norm2 < 1e-18:
            raise GenericityError(
                f"section norm below 1e-9 at boundary point {[float(v) for v in t]}")
        s, ds = metric_inner(G, dG, frame.frame, frame.dframe, W, dW)
        inv_norm = 1.0 / math.sqrt(norm2)
        u = s * inv_norm
        du = ds * inv_norm - np.outer(s, dnorm2) * (0.5 * inv_norm ** 3)
        theta = du + np.einsum("B,BAi->Ai", u, frame.omega)
        extras = {
            "angle": math.atan2(math.sqrt(max(0.0, 1.0 - min(1.0, u[0] ** 2))), u[0]),
            "v_dot_n": float(W @ G @ frame.normal),
        }
        return u, theta, frame.omega, frame.curvature, extras


# -- the integrals -------------------------------------------------------------------

def integrate_euler(patch, grid):
    """Integral of the Euler curvature density; 0 immediately for odd n."""
    if patch.n % 2:
        return 0.0
    if grid.nodes.shape[1] != patch.n:
        raise ValueError("grid dimension does not match the patch")
    return math.fsum(w * euler_form_density(patch, x)
                     for x, w in zip(grid.nodes, grid.weights))


def integrate_phi_over_section(bpatch, sections, grid, frame_twist=None,
                               collect=None):
    """Integrals of the secondary form over sections of the boundary bundle.

    Each of ``sections`` is None for the outward normal or a callable mapping
    embedded chart jets to vector components; all of them are integrated
    through one boundary frame per node, and the integrals come back as a
    tuple in the same order.  ``collect`` receives one profile row per node
    when given, with a tuple of densities, angles and v_dot_n values, one per
    section.
    """
    tpl = phi_template(bpatch.parent.n)
    pulls = [SectionPullback(bpatch, s) for s in sections]
    vals = [[] for _ in sections]
    for tnode, w in zip(grid.nodes, grid.weights):
        bf = boundary_frame(bpatch, tnode, frame_twist)
        bound = [pull.bind(tnode, bf) for pull in pulls]
        dens = tuple(float(evaluate_template(tpl, *b[:4])) for b in bound)
        for acc, d in zip(vals, dens):
            acc.append(w * d * bf.orientation)
        if collect is not None:
            collect.append({"t": list(map(float, tnode)), "weight": float(w),
                            "density": dens,
                            "angle": tuple(b[4]["angle"] for b in bound),
                            "v_dot_n": tuple(b[4]["v_dot_n"] for b in bound)})
    return tuple(math.fsum(acc) for acc in vals)


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
    dcoords = [[c.deriv(i) for i in range(1, n)] for c in coords]
    omega = np.zeros((n, n, m))
    curv = np.zeros((n, n, m, m))
    vals = []
    for node, w in zip(grid.nodes, grid.weights):
        angles = {i + 1: float(a) for i, a in enumerate(node)}
        u = np.array([c.to_float(angles) for c in coords])
        theta = np.array([[d.to_float(angles) for d in row] for row in dcoords])
        vals.append(w * evaluate_template(tpl, u, theta, omega, curv))
    return math.fsum(vals)


def integrate_fiber_volume(n, order=None):
    """Total fiber integral of the normalized secondary form (contract: 1)."""
    if order is None:
        order = 64 if n == 2 else 32
    return integrate_fiber_form(build_phi(n).phi, fiber_grid(n, order))


# -- degree integrals ----------------------------------------------------------------

def degree_integral_circle(map_fn, order=256):
    """Degree of a nonvanishing plane-valued map over [0, 2pi): ``map_fn(t)``
    returns w (2,) and dw (2, 1), and (w1 w2' - w2 w1') / |w|^2 is integrated."""
    grid = gauss_grid([(0.0, 2 * math.pi)], [order])
    vals = []
    for (t,), w in zip(grid.nodes, grid.weights):
        (w1, w2), dw = map_fn(t)
        norm2 = w1 * w1 + w2 * w2
        if norm2 < 1e-18:
            raise GenericityError(f"map vanishes on the integration circle at t={t}")
        vals.append(w * (w1 * dw[1][0] - w2 * dw[0][0]) / norm2)
    return math.fsum(vals) / (2 * math.pi)


def degree_integral_sphere(map_fn, order=48):
    """Degree of a nonvanishing space-valued map over the (colat, lon) box:
    ``map_fn(node)`` returns w (3,) and dw (3, 2), and det[w, dw] / |w|^3 is
    integrated."""
    grid = gauss_grid([(0.0, math.pi), (0.0, 2 * math.pi)], [order, 2 * order])
    vals = []
    for node, w in zip(grid.nodes, grid.weights):
        wv, dw = map_fn(node)
        norm2 = float(wv @ wv)
        if norm2 < 1e-18:
            raise GenericityError(
                f"map vanishes on the integration sphere at {[float(a) for a in node]}")
        mat = np.array([wv, dw[:, 0], dw[:, 1]])
        vals.append(w * np.linalg.det(mat) / (norm2 * math.sqrt(norm2)))
    return math.fsum(vals) / (4 * math.pi)
