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

from .geometry import Jet, boundary_frame, jet_first_order, metric_inner
from .integrate import degree_integral_circle, degree_integral_sphere


class GenericityError(RuntimeError):
    """The field violates the generic-position assumptions of the law."""


def default_index_radius(ambient, other_ambients=(), boundary_points=(),
                         cap=0.1):
    """Default integration radius: min(cap, half the distance to the nearest
    other singularity or boundary point), measured in ambient coordinates."""
    ambient = np.asarray(ambient, dtype=float)
    best = cap
    for other in other_ambients:
        best = min(best, 0.5 * float(np.linalg.norm(ambient - np.asarray(other))))
    for pt in boundary_points:
        best = min(best, 0.5 * float(np.linalg.norm(ambient - np.asarray(pt))))
    if best <= 0:
        raise GenericityError("declared singularities collide; no valid "
                              "integration radius")
    return best


@dataclass
class InteriorSingularity:
    name: str
    ambient: list            # location in ambient coordinates, for exclusions
    exclusion_radius: float
    chart_params: list       # parameter names of the index chart
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
    genericity evidence gathered while sampling the boundary."""
    minus: list              # TangentialSingularity in the inward region
    plus: list               # ... in the outward region
    warnings: list
    min_field_norm: float
    min_projection_norm: float


# -- interior indices ---------------------------------------------------------

def index_at(sing: InteriorSingularity, radius=None, order=None) -> IndexResult:
    """Mapping degree of the field direction over a small chart sphere."""
    r = float(radius if radius is not None else sing.radius)
    dim = len(sing.center)
    if dim == 2:
        order = order or 192

        def map_fn(theta):
            x = [sing.center[0] + r * theta.cos(), sing.center[1] + r * theta.sin()]
            return sing.chart_field(x)

        raw = degree_integral_circle(map_fn, order=order)
    elif dim == 3:
        order = order or 48

        def map_fn(jets):
            a, b = jets
            x = [sing.center[0] + r * a.sin() * b.cos(),
                 sing.center[1] + r * a.sin() * b.sin(),
                 sing.center[2] + r * a.cos()]
            return sing.chart_field(x)

        raw = degree_integral_sphere(map_fn, order=order)
    else:
        raise ValueError(f"index computation supports chart dimension 2 or 3, got {dim}")
    value = round(raw)
    residual = abs(raw - value)
    if residual > 0.01:
        raise GenericityError(
            f"degree integral for {sing.name} is {raw:.6f}, "
            f"residual {residual:.2e} from an integer")
    return IndexResult(name=sing.name, value=int(value), residual=residual, raw=raw)


def total_indices(interior_results, split: BoundarySplit, tangential_results):
    """Sums of local indices; tangential_results maps singularity name to
    IndexResult."""
    ind_v = sum(r.value for r in interior_results)
    ind_minus = sum(tangential_results[s.name].value for s in split.minus)
    ind_plus = sum(tangential_results[s.name].value for s in split.plus)
    return {"ind_v": ind_v, "ind_dminus": ind_minus, "ind_dplus": ind_plus}


# -- boundary work --------------------------------------------------------------

def _field_frame_components(bpatch, components, t):
    """Values (n,) and t-gradients (n, m) of <V, e_A> along the boundary.

    Uses the parameter-aligned (unoriented) frame: indices are insensitive to
    the ambient orientation but the winding loop must match the frame.
    """
    bf = boundary_frame(bpatch, t, oriented=False)
    V, dV = jet_first_order(components(bf.x_jets), bpatch.m)
    return metric_inner(bf.metric, bf.dmetric, bf.frame, bf.dframe, V, dV)


def boundary_decompose(field_spec: VectorFieldSpec, bpatch, boundary_index=0,
                       samples=256) -> BoundarySplit:
    """Classify declared tangential singularities and sample for genericity.

    Undeclared zeros of the tangential projection abort when the field points
    inward or lies on the inward/outward interface there; outward-region
    degeneracy (a pure normal field) is recorded as a warning since it leaves
    the inward index sum well-defined.
    """
    n = bpatch.parent.n
    declared = [s for s in field_spec.tangential if s.boundary == boundary_index]
    warnings = []
    warned_outward = False
    min_norm = math.inf
    min_proj = math.inf

    axes = [np.linspace(lo + (hi - lo) * 1e-3, hi - (hi - lo) * 1e-3,
                        samples if n == 2 else 24)
            for lo, hi in bpatch.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    for t in points:
        if any(np.linalg.norm(t - np.asarray(s.location)) < 1.5 * s.radius
               for s in declared):
            continue
        vals, _ = _field_frame_components(bpatch, field_spec.components, t)
        norm = float(np.linalg.norm(vals))
        if norm < field_spec.margin:
            raise GenericityError(
                f"field norm {norm:.2e} below margin on boundary "
                f"{boundary_index} at t={list(map(float, t))}")
        normal = vals[0]
        proj = float(np.linalg.norm(vals[1:]))
        min_norm = min(min_norm, norm)
        min_proj = min(min_proj, proj)
        if proj / norm < 1e-9:
            if normal < 0:
                raise GenericityError(
                    f"undeclared inward tangential zero on boundary "
                    f"{boundary_index} at t={list(map(float, t))}")
            if abs(normal) / norm <= 1e-9:
                raise GenericityError(
                    f"tangential zero on the inward/outward interface at "
                    f"t={list(map(float, t))}")
            if not warned_outward:
                warnings.append(
                    f"boundary {boundary_index}: tangential projection "
                    f"degenerates in the outward region (normal-like field); "
                    f"outward indices are not meaningful")
                warned_outward = True

    minus, plus = [], []
    for s in declared:
        vals, _ = _field_frame_components(bpatch, field_spec.components,
                                          np.asarray(s.location, dtype=float))
        norm = float(np.linalg.norm(vals))
        if norm < field_spec.margin:
            raise GenericityError(f"field vanishes at declared tangential "
                                  f"singularity {s.name}")
        if np.linalg.norm(vals[1:]) / norm > 1e-6:
            raise GenericityError(
                f"declared tangential singularity {s.name} has a "
                f"non-vanishing projection ({np.linalg.norm(vals[1:]):.2e})")
        if vals[0] < 0:
            minus.append(s)
        elif vals[0] > 0:
            plus.append(s)
        else:
            raise GenericityError(
                f"tangential singularity {s.name} sits on the "
                f"inward/outward interface")
    return BoundarySplit(minus=minus, plus=plus, warnings=warnings,
                         min_field_norm=float(min_norm),
                         min_projection_norm=float(min_proj))


def index_tangential(field_spec: VectorFieldSpec, bpatch,
                     sing: TangentialSingularity, radius=None,
                     order=192) -> IndexResult:
    """Index of the tangential projection at a declared boundary singularity.

    Indices are orientation-free: reversing the boundary orientation flips
    both the loop direction and the frame, which cancels, so the chart
    parametrization is used as-is.
    """
    r = float(radius if radius is not None else sing.radius)
    m = bpatch.m
    loc = np.asarray(sing.location, dtype=float)

    if m == 1:
        # one-dimensional boundary: two-point sign count in the chart frame
        def tangential(tval):
            vals, _ = _field_frame_components(bpatch, field_spec.components,
                                              np.array([tval]))
            return vals[1]

        f_plus = tangential(loc[0] + r)
        f_minus = tangential(loc[0] - r)
        if abs(f_plus) < 1e-12 or abs(f_minus) < 1e-12:
            raise GenericityError(
                f"tangential projection vanishes on the test points of {sing.name}")
        raw = 0.5 * (math.copysign(1.0, f_plus) - math.copysign(1.0, f_minus))
        return IndexResult(name=sing.name, value=int(raw), residual=0.0, raw=raw)

    if m == 2:
        def map_fn(theta):
            t = loc + r * np.array([theta.cos().v, theta.sin().v])
            dt = r * np.array([-theta.sin().v, theta.cos().v])
            vals, grads = _field_frame_components(bpatch, field_spec.components, t)
            return [Jet(v, [float(g @ dt)], [[0.0]])
                    for v, g in zip(vals[1:], grads[1:])]

        raw = degree_integral_circle(map_fn, order=order)
        value = round(raw)
        residual = abs(raw - value)
        if residual > 0.01:
            raise GenericityError(
                f"tangential degree for {sing.name} is {raw:.6f}, "
                f"residual {residual:.2e} from an integer")
        return IndexResult(name=sing.name, value=int(value), residual=residual,
                           raw=raw)

    raise ValueError("tangential indices support boundary dimensions 1 and 2")


# -- interior sampling ------------------------------------------------------------

def check_interior_nonvanishing(patch, field_spec: VectorFieldSpec,
                                samples_per_dim=16):
    """Sample the chart box: the field norm must clear the margin outside the
    declared exclusion balls (ambient distance)."""
    axes = [np.linspace(lo + (hi - lo) * 1e-3, hi - (hi - lo) * 1e-3,
                        samples_per_dim) for lo, hi in patch.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    exclusions = [(np.asarray(s.ambient, dtype=float), s.exclusion_radius)
                  for s in field_spec.interior]
    for x in points:
        amb = patch.ambient(x)
        if any(np.linalg.norm(amb - c) < rad for c, rad in exclusions):
            continue
        V = np.array([v.v if isinstance(v, Jet) else float(v)
                      for v in field_spec.components(list(map(float, x)))])
        G = patch.metric_values(x)
        norm = math.sqrt(max(0.0, float(V @ G @ V)))
        if norm < field_spec.margin:
            raise GenericityError(
                f"undeclared interior zero: |V| = {norm:.2e} at chart point "
                f"{list(map(float, x))}")
