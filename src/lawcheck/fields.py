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
    Jet,
    adapted_frame,
    grid_points,
    metric_inner,
    node_chunks,
    node_first,
    section_jets,
    stack_jets,
)
from .integrate import degree_integral_circle, degree_integral_sphere


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
    chart_field: object      # callable jets -> components on the index chart


@dataclass
class TangentialSingularity:
    name: str
    boundary: int            # index of the boundary component
    location: list           # boundary-chart parameters
    radius: float


@dataclass
class VectorFieldSpec:
    components: object       # callable main-chart coords -> components
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
    rule of ``order`` nodes per circle (2-D) or per colatitude (3-D)."""
    r = float(radius if radius is not None else sing.radius)
    dim = len(sing.center)
    if dim == 2:
        def map_fn(t):
            nodes = t[:, None]
            (theta,) = Jet.variables(nodes, 1)
            x = [sing.center[0] + r * theta.cos(), sing.center[1] + r * theta.sin()]
            return stack_jets(sing.chart_field(x), nodes, 1)

        raw = degree_integral_circle(map_fn, order=order)
    elif dim == 3:
        def map_fn(nodes):
            a, b = Jet.variables(nodes, 1)
            x = [sing.center[0] + r * a.sin() * b.cos(),
                 sing.center[1] + r * a.sin() * b.sin(),
                 sing.center[2] + r * a.cos()]
            return stack_jets(sing.chart_field(x), nodes, 1)

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
    """Values s[A] (N, n) and t-gradients ds[i,A] (N, m, n) of <V, e_A> at the
    boundary nodes t (N, m), in the frame of ``adapted_frame`` (no connection
    or curvature).  Its tangential vectors follow the boundary chart, with no
    sign applied, so the winding loop and the sign count run in the chart
    that defines them: reversing the chart reverses both, and an index does
    not change."""
    t = np.asarray(t, dtype=float)
    (N, m), n = t.shape, bpatch.parent.n
    bf, _ = adapted_frame(bpatch, t)
    s, ds = metric_inner(bf.metric, bf.dmetric, bf.frame, bf.dframe,
                         *section_jets(components, bf))
    return node_first(s, (N, n)), node_first(ds, (N, m, n))


def _sample_points(box, count):
    """``count`` points per axis of the box, inset by 1e-3 of each interval."""
    return grid_points([np.linspace(lo + (hi - lo) * 1e-3, hi - (hi - lo) * 1e-3, count)
                        for lo, hi in box])


def _sample_in_point_order(check, count, n):
    """Run ``check`` on slices of ``count`` points chunk by chunk, for
    geometry of dimension n.  A chunk that raises ConfigError is re-run one
    point at a time, so the error raised is the one a point-by-point sweep
    meets first: ``check`` raises a chunk's ConfigError before it tests
    genericity, so a GenericityError at an earlier point would otherwise lose
    to a ConfigError at a later one."""
    for c in node_chunks(count, n):
        try:
            check(c)
        except ConfigError:
            for k in range(*c.indices(count)):  # locate the first bad point
                check(slice(k, k + 1))
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
        vals, _ = _field_frame_components(bpatch, field_spec.components, t)
        norm = np.linalg.norm(vals, axis=1)
        normal, proj = vals[:, 0], np.linalg.norm(vals[:, 1:], axis=1)
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

    _sample_in_point_order(check, len(points), n)

    minus, plus = [], []
    locations = np.asarray([s.location for s in declared], dtype=float).reshape(-1, n - 1)

    def classify(chunk):
        """Sort the declared singularities of the slice ``chunk`` by the sign
        of the normal component, from one frame evaluation at their locations."""
        frame_vals, _ = _field_frame_components(bpatch, field_spec.components, locations[chunk])
        for s, vals in zip(declared[chunk], frame_vals):
            norm = float(np.linalg.norm(vals))
            if norm < field_spec.margin:
                raise GenericityError(f"field vanishes at declared tangential singularity {s.name}")
            if np.linalg.norm(vals[1:]) / norm > 1e-6:
                raise GenericityError(f"declared tangential singularity {s.name} has a "
                                      f"non-vanishing projection ({np.linalg.norm(vals[1:]):.2e})")
            if vals[0] < 0:
                minus.append(s)
            elif vals[0] > 0:
                plus.append(s)
            else:
                raise GenericityError(f"tangential singularity {s.name} sits on the "
                                      f"inward/outward interface")

    _sample_in_point_order(classify, len(declared), n)
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
        vals, _ = _field_frame_components(bpatch, field_spec.components,
                                          np.array([[loc[0] + r], [loc[0] - r]]))
        f_plus, f_minus = (float(v) for v in vals[:, 1])
        if abs(f_plus) < 1e-12 or abs(f_minus) < 1e-12:
            raise GenericityError(
                f"tangential projection vanishes on the test points of {sing.name}")
        raw = 0.5 * (math.copysign(1.0, f_plus) - math.copysign(1.0, f_minus))
        return IndexResult(name=sing.name, value=int(raw), residual=0.0, raw=raw)

    if m == 2:
        def map_fn(theta):
            dt = r * np.stack([-np.sin(theta), np.cos(theta)], axis=1)
            t = loc + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            vals, grads = _field_frame_components(bpatch, field_spec.components, t)
            return vals[:, 1:], dt[:, None] @ grads[:, :, 1:]  # dt[i] grads[i,k]

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
        (V,) = stack_jets(field_spec.components(list(x.T)), x, 0)
        G = patch.metric_values(x)
        norm = np.sqrt(np.maximum(0.0, (V[:, None] @ G @ V[..., None])[:, 0, 0]))
        low = np.flatnonzero(norm < field_spec.margin)
        if low.size:
            k = low[0]
            raise GenericityError(
                f"undeclared interior zero: |V| = {norm[k]:.2e} at chart point "
                f"{list(map(float, x[k]))}")

    _sample_in_point_order(check, len(points), patch.n)
