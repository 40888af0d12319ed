"""Vector fields with isolated singularities: local indices, boundary
projection, and the inward/outward splitting along the boundary.

Local indices are mapping degrees of the normalized chart components over a
small parameter sphere, so they are metric-free and invariant under the
radius and under positive rescaling of the field.  Tangential indices on the
boundary use the components of the projection in the adapted orthonormal
frame: a two-point sign count for one-dimensional boundaries, a winding
integral for two-dimensional ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ConfigError,
    GenericityError,
    _contract,
    _product,
    adapted_frame,
    grid_points,
    metric_inner,
    node_chunks,
    pullback_jets,
)
from .integrate import degree_integral_circle, degree_integral_sphere
from .templates import _sum


def default_index_radius(ambient, other_ambients=(), boundary_points=()):
    """Default integration radius: min(0.1, half the distance to the nearest
    other singularity or boundary point), measured in ambient coordinates."""
    best = 0.1
    for points in (other_ambients, boundary_points):
        if len(points):
            gaps = np.linalg.norm(np.asarray(ambient, dtype=float) - np.asarray(points), axis=1)
            best = min(best, 0.5 * float(gaps.min()))
    if best <= 0:
        raise GenericityError("declared singularities collide; no valid "
                              "integration radius")
    return best


@dataclass
class InteriorSingularity:
    name: str
    ambient: list            # location in ambient coordinates, for exclusions
    exclusion_radius: float
    center: list             # singular point in index-chart coordinates
    radius: float
    chart_field: object      # compiled vector: index-chart components, read by ``jets``


@dataclass
class TangentialSingularity:
    name: str
    boundary: int            # index of the boundary component
    location: list           # boundary-chart parameters
    radius: float


@dataclass
class VectorFieldSpec:
    components: object       # compiled vector: main-chart coords -> components
    margin: float = 1e-6
    interior: list = field(default_factory=list)
    tangential: list = field(default_factory=list)


@dataclass
class IndexResult:
    name: str
    value: int
    residual: float
    raw: float


@dataclass
class BoundarySplit:
    """Classification of the declared tangential singularities plus the
    warnings raised while sampling the boundary."""
    minus: list              # TangentialSingularity in the inward region
    plus: list               # ... in the outward region
    warnings: list


# -- interior indices ---------------------------------------------------------

def index_at(sing: InteriorSingularity, order, radius=None) -> IndexResult:
    """Mapping degree of the field direction over a small chart sphere, by a
    rule of ``order`` nodes per circle (2-D) or per colatitude (3-D).  The
    circle or sphere map x(t) and its t-derivatives are closed forms,
    multiplied in the order forward-mode arithmetic would, and the chart field's
    values and t-gradients, the maps the degree integrals read, come from
    ``pullback_jets`` through them."""
    r = float(radius if radius is not None else sing.radius)
    c = sing.center
    dim = len(c)
    if dim == 2:
        def map_fn(t):
            sin, cos = np.sin(t), np.cos(t)
            x = np.stack([c[0] + r * cos, c[1] + r * sin], axis=1)
            return pullback_jets(sing.chart_field, x, {(0, 0): r * -sin, (0, 1): r * cos})

        raw = degree_integral_circle(map_fn, order=order)
    elif dim == 3:
        def map_fn(nodes):
            (sin_a, sin_b), (cos_a, cos_b) = np.sin(nodes.T), np.cos(nodes.T)
            rs, rc = r * sin_a, r * cos_a  # x = c + (r sin a) (cos b, sin b) + (0, 0, r cos a)
            x = np.stack([c[0] + rs * cos_b, c[1] + rs * sin_b, c[2] + rc], axis=1)
            return pullback_jets(sing.chart_field, x, {
                (0, 0): rc * cos_b, (0, 1): rc * sin_b, (0, 2): r * -sin_a,
                (1, 0): rs * -sin_b, (1, 1): rs * cos_b})

        raw = degree_integral_sphere(map_fn, order=order)
    else:
        raise ValueError(f"index computation supports chart dimension 2 or 3, got {dim}")
    return _degree_index(sing.name, raw, "degree integral")


def _degree_index(name, raw, what):
    """The integer nearest a degree integral, refused when more than 0.01 off
    or not finite."""
    value = round(raw) if math.isfinite(raw) else 0
    residual = abs(raw - value)
    if not residual <= 0.01:
        raise GenericityError(f"{what} for {name} is {raw:.6f}, "
                              f"residual {residual:.2e} from an integer")
    return IndexResult(name=name, value=int(value), residual=residual, raw=raw)


# -- boundary work --------------------------------------------------------------

def _field_frame_components(bpatch, components, t):
    """Values s[A] and t-gradients ds[i, A] of <V, e_A> at the boundary nodes
    t (N, m), node-last maps, in the frame of ``adapted_frame`` (no
    connection or curvature).  Its tangential vectors follow the boundary
    chart, with no sign applied, so the winding loop and the sign count run
    in the chart that defines them: reversing the chart reverses both, and
    an index does not change."""
    bf, _ = adapted_frame(bpatch, np.asarray(t, dtype=float))
    return metric_inner(bf.metric, bf.dmetric, bf.frame, bf.dframe,
                        *pullback_jets(components, bf.points, bf.pushforward))


def _field_frame_values(bpatch, components, t):
    """<V, e_1>, the norm of the tangential part and |V|, (N,) arrays for the
    sweeps, from the values s[A] of ``_field_frame_components``, the squares
    of the tangential s[A] summed in frame order."""
    s = _field_frame_components(bpatch, components, t)[0]
    normal = np.broadcast_to(s.get(0, 0.0), (len(t),))
    tangential2 = np.broadcast_to(_sum([s[A] * s[A] for A in sorted(s) if A] or [0.0]), (len(t),))
    return normal, np.sqrt(tangential2), np.sqrt(normal * normal + tangential2)


def _sample_points(box, count):
    """``count`` points per axis of the box, inset by 1e-3 of each interval."""
    return grid_points([np.linspace(lo + (hi - lo) * 1e-3, hi - (hi - lo) * 1e-3, count)
                        for lo, hi in box])


def _sample_in_point_order(check, count):
    """Run ``check`` on slices of ``count`` points chunk by chunk, raising
    the error that a point-by-point sweep meets first.  ``check`` raises a
    slice's ConfigError before it tests genericity, so a GenericityError at
    an earlier point would lose to a ConfigError at a later one: a chunk
    that raises ConfigError is bisected, in O(log chunk) calls.  A left half
    that raises ConfigError holds the first failing point, one that raises
    GenericityError raises the first error, and one that passes leaves it
    to the right half.  On a sweep that raises nothing, each point is
    checked once."""
    for c in node_chunks(count):
        try:
            check(c)
        except ConfigError:
            lo, hi = c.start, c.stop
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    check(slice(lo, mid))
                except ConfigError:
                    hi = mid
                else:
                    lo = mid
            check(slice(lo, hi))
            raise


def boundary_decompose(field_spec: VectorFieldSpec, bpatch,
                       boundary_index) -> BoundarySplit:
    """Classify declared tangential singularities and sample for genericity
    (256 points on a boundary curve, a 24 x 24 grid on a boundary surface).

    Undeclared zeros of the tangential projection abort when the field points
    inward or lies on the inward/outward interface there; outward-region
    degeneracy (a pure normal field) is recorded as a warning since it leaves
    the inward index sum well-defined.
    """
    n = bpatch.parent.n
    declared = [s for s in field_spec.tangential if s.boundary == boundary_index]
    warnings = []

    points = _sample_points(bpatch.box, 256 if n == 2 else 24)
    for s in declared:
        points = points[np.linalg.norm(points - np.asarray(s.location), axis=1) >= 1.5 * s.radius]

    def check(chunk):
        t = points[chunk]
        normal, proj, norm = _field_frame_values(bpatch, field_spec.components, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            flat = proj / norm < 1e-9
            interface = np.abs(normal) / norm <= 1e-9
        low = norm < field_spec.margin
        bad = np.flatnonzero(low | (flat & ((normal < 0) | interface)))
        if bad.size:  # the first bad point, checked as in a point-by-point sweep
            k = bad[0]
            where = f"t={list(map(float, t[k]))}"
            if low[k]:
                raise GenericityError(f"field norm {norm[k]:.2e} below margin on "
                                      f"boundary {boundary_index} at {where}")
            if normal[k] < 0:
                raise GenericityError(f"undeclared inward tangential zero on "
                                      f"boundary {boundary_index} at {where}")
            raise GenericityError(f"tangential zero on the inward/outward interface at {where}")
        if flat.any() and not warnings:
            warnings.append(f"boundary {boundary_index}: tangential projection degenerates in "
                            f"the outward region (normal-like field); outward indices are "
                            f"not meaningful")

    _sample_in_point_order(check, len(points))

    minus, plus = [], []
    locations = np.asarray([s.location for s in declared], dtype=float).reshape(-1, n - 1)

    def classify(chunk):
        """Sort the declared singularities of the slice ``chunk`` by the sign
        of the normal component, from one frame evaluation at their locations."""
        values = _field_frame_values(bpatch, field_spec.components, locations[chunk])
        for s, normal, proj, norm in zip(declared[chunk], *values):
            if norm < field_spec.margin:
                raise GenericityError(f"field vanishes at declared tangential singularity {s.name}")
            if proj / norm > 1e-6:
                raise GenericityError(f"declared tangential singularity {s.name} has a "
                                      f"non-vanishing projection ({proj:.2e})")
            if normal < 0:
                minus.append(s)
            elif normal > 0:
                plus.append(s)
            else:
                raise GenericityError(f"tangential singularity {s.name} sits on the "
                                      f"inward/outward interface")

    _sample_in_point_order(classify, len(declared))
    return BoundarySplit(minus=minus, plus=plus, warnings=warnings)


def index_tangential(field_spec: VectorFieldSpec, bpatch,
                     sing: TangentialSingularity, order) -> IndexResult:
    """Index of the tangential projection at a declared boundary singularity;
    on a two-dimensional boundary, a winding integral by a rule of ``order``
    nodes.

    Indices do not depend on the boundary chart: reversing it flips both the
    loop direction and the frame, which cancels, so the chart parametrization
    is used as-is.
    """
    r = float(sing.radius)
    m = bpatch.m
    loc = np.asarray(sing.location, dtype=float)

    if m == 1:
        # one-dimensional boundary: two-point sign count in the chart frame
        s, _ = _field_frame_components(bpatch, field_spec.components,
                                       np.array([[loc[0] + r], [loc[0] - r]]))
        f_plus, f_minus = (float(v) for v in np.broadcast_to(s.get(1, 0.0), (2,)))
        if abs(f_plus) < 1e-12 or abs(f_minus) < 1e-12:
            raise GenericityError(
                f"tangential projection vanishes on the test points of {sing.name}")
        raw = 0.5 * (math.copysign(1.0, f_plus) - math.copysign(1.0, f_minus))
        return IndexResult(name=sing.name, value=int(raw), residual=0.0, raw=raw)

    if m == 2:
        def map_fn(theta):
            cos, sin = np.cos(theta), np.sin(theta)
            s, ds = _field_frame_components(bpatch, field_spec.components,
                                            loc + r * np.stack([cos, sin], axis=1))
            # the tangential components w[k] = s[k + 1], dw[0, k] = dt[0, i] ds[i, k + 1]
            return ({A - 1: v for A, v in s.items() if A},
                    _product({(0, 0): r * -sin, (0, 1): r * cos},
                             {(i, A - 1): v for (i, A), v in ds.items() if A}))

        return _degree_index(sing.name, degree_integral_circle(map_fn, order=order),
                             "tangential degree")

    raise ValueError("tangential indices support boundary dimensions 1 and 2")


# -- interior sampling ------------------------------------------------------------

def check_interior_nonvanishing(patch, field_spec: VectorFieldSpec):
    """Sample the chart box on 16 points per axis: the field norm must clear
    the margin outside the declared exclusion balls (ambient distance)."""
    points = _sample_points(patch.box, 16)
    exclusions = [(np.asarray(s.ambient, dtype=float), s.exclusion_radius)
                  for s in field_spec.interior]

    def check(chunk):
        x = points[chunk]
        amb = patch.ambient(x)
        keep = np.ones(len(x), dtype=bool)
        for c, rad in exclusions:
            keep &= ~(np.linalg.norm(amb - c, axis=1) < rad)
        x = x[keep]
        V = field_spec.components.jets(x, 0)[0]
        VGV = _contract({(0, k): v for k, v in V.items()}, _contract(patch.metric_jets(x, 0)[0], V))
        norm = np.sqrt(np.maximum(0.0, np.broadcast_to(VGV.get(0, 0.0), (len(x),))))
        low = np.flatnonzero(norm < field_spec.margin)
        if low.size:
            k = low[0]
            raise GenericityError(
                f"undeclared interior zero: |V| = {norm[k]:.2e} at chart point "
                f"{list(map(float, x[k]))}")

    _sample_in_point_order(check, len(points))
