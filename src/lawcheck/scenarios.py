"""Scenario configuration: JSON schema, compilation, and the shipped catalog.

A scenario is one JSON document: a chart patch with a metric, one or more
boundary components, a vector field with declared singularities, the declared
Euler characteristic, and tolerances.  Numeric fields accept expression
strings ("pi/2") so the documents stay exact and diffable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .expressions import ExpressionError, compile_expression, compile_matrix, compile_vector
from .fields import (GenericityError, InteriorSingularity, TangentialSingularity,
                     VectorFieldSpec, default_index_radius)
from .geometry import BoundaryPatch, ConfigError, RiemannianPatch, grid_points, stack_values
from .suite import catalog_names, load_catalog_raw  # re-exported: the catalog reads no numpy


def _const(value):
    """Evaluate a parameter-free literal (number or expression string)."""
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(compile_expression(value, [])([]))
    except ExpressionError as exc:
        raise ConfigError(f"bad constant {value!r}: {exc}") from exc


def _const_list(values, count, what):
    return [_const(v) for v in _counted(values, count, what)]


def _counted(values, count, what):
    """``values`` as a list, which must hold ``count`` entries."""
    values = list(values)
    if len(values) != count:
        raise ConfigError(f"{what} has {len(values)} entries where {count} belong")
    return values


def _finite_list(values, count, what):
    point = _const_list(values, count, what)
    if not all(map(math.isfinite, point)):
        raise ConfigError(f"{what} must be finite, got {point}")
    return point


def _box(raw, count, what):
    """One finite interval (lo, hi) with lo < hi per dimension."""
    box = [tuple(_finite_list(interval, 2, f"an interval of {what}"))
           for interval in _counted(raw, count, what)]
    for lo, hi in box:
        if not lo < hi:
            raise ConfigError(f"interval [{lo}, {hi}] of {what} is empty or reversed")
    return box


def _integer(value, what, least=None):
    """An integral number, or a string int() reads, of at least ``least``."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _text(value, what):
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _positive(value, what):
    x = _const(value)
    if not 0 < x < math.inf:
        raise ConfigError(f"{what} must be finite and positive, got {value!r}")
    return x


_DEFAULTS = {
    2: {"boundary_order": 64, "interior_order": 48, "degree_order": 192,
        "tolerances": {"integer": 1e-6, "thm": 1e-6, "gauss_bonnet": 1e-6,
                       "convergence": 1e-8}},
    3: {"boundary_order": 32, "interior_order": 24, "degree_order": 48,
        "tolerances": {"integer": 1e-3, "thm": 1e-2, "gauss_bonnet": 1e-2,
                       "convergence": 1e-4}},
}


@dataclass
class Scenario:
    name: str
    dimension: int
    chi: int
    seed: int
    patch: RiemannianPatch
    boundaries: list
    field_spec: VectorFieldSpec
    expected: dict
    boundary_order: int
    interior_order: int
    degree_order: int
    tolerances: dict


def _require(cfg, key, where):
    if key not in cfg:
        raise ConfigError(f"missing {key!r} in {where}")
    return cfg[key]


def load_scenario(cfg: dict) -> Scenario:
    try:
        return _load(cfg)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"invalid scenario configuration: {exc}") from exc


def _load(cfg):
    name = _text(_require(cfg, "name", "scenario"), "scenario name")
    n = _integer(_require(cfg, "dimension", name), "dimension")
    if n not in (2, 3):
        raise ConfigError(f"scenario dimension must be 2 or 3, got {n}")
    chi = _integer(_require(cfg, "chi", name), "chi")
    if abs(chi) > 2 ** 53:  # the Gauss-Bonnet residual holds chi as a float
        raise ConfigError("chi must be an integer a float holds exactly, |chi| <= 2**53")

    pc = _require(cfg, "patch", name)
    params = _counted(_require(pc, "params", "patch"), n, f"patch params of {name}")
    metric = _counted(_require(pc, "metric", "patch"), n, "metric")
    metric_fn = compile_matrix([_counted(row, n, "metric row") for row in metric],
                               params)
    chart_fn = None
    ambient_dim = n
    if "chart_map" in pc:
        chart_fn = compile_vector(pc["chart_map"], params)
        ambient_dim = len(pc["chart_map"])
    patch = RiemannianPatch(n, _box(_require(pc, "box", "patch"), n, "patch box"),
                            metric_fn, chart_map=chart_fn, name=name)

    boundaries = []
    for k, bc in enumerate(_require(cfg, "boundaries", name)):
        bparams = _counted(_require(bc, "params", "boundary"), n - 1,
                           f"params of boundary {k}")
        embed = compile_vector(_counted(_require(bc, "embed", "boundary"), n,
                                        f"embed of boundary {k}"), bparams)
        outward = compile_vector(_counted(_require(bc, "outward", "boundary"), n,
                                          f"outward of boundary {k}"), bparams)
        boundaries.append(BoundaryPatch(
            patch, _box(_require(bc, "box", "boundary"), n - 1, f"box of boundary {k}"),
            embed=embed,
            outward=outward,
            name=_text(bc.get("name", f"boundary-{k}"), f"name of boundary {k}")))

    fc = _require(cfg, "field", name)
    comps = compile_vector(_counted(_require(fc, "components", "field"), n,
                                    "field components"), params)
    interior = []
    sing_cfgs = cfg.get("interior_singularities", [])
    names = [_text(_require(sc, "name", "singularity"), "singularity name") for sc in sing_cfgs]
    ambients = [_finite_list(_require(sc, "ambient", "singularity"), ambient_dim,
                             f"ambient of {sname}") for sc, sname in zip(sing_cfgs, names)]
    for k, (sc, sname, ambient) in enumerate(zip(sing_cfgs, names, ambients)):
        chart_params = _counted(_require(sc, "chart_params", "singularity"), n,
                                f"chart_params of {sname}")
        if "radius" in sc:
            radius = _positive(sc["radius"], f"radius of {sname}")
        else:
            # default rule: half the distance to the nearest other
            # singularity or boundary point, capped at 0.1
            others = ambients[:k] + ambients[k + 1:]
            try:
                radius = default_index_radius(
                    ambient, others, _boundary_point_cloud(patch, boundaries))
            except GenericityError as exc:
                raise ConfigError(str(exc)) from exc
        interior.append(InteriorSingularity(
            name=sname,
            ambient=ambient,
            exclusion_radius=_positive(_require(sc, "exclusion_radius", "singularity"),
                                       f"exclusion_radius of {sname}"),
            center=_finite_list(_require(sc, "center", "singularity"), n,
                                f"center of {sname}"),
            radius=radius,
            chart_field=compile_vector(
                _counted(_require(sc, "field", "singularity"), n, f"field of {sname}"),
                chart_params)))
    tangential = []
    for sc in cfg.get("tangential_singularities", []):
        sname = _text(_require(sc, "name", "tangential singularity"),
                      "tangential singularity name")
        tangential.append(TangentialSingularity(
            name=sname,
            boundary=_integer(sc.get("boundary", 0), f"boundary of {sname}", 0),
            location=_finite_list(_require(sc, "location", "tangential singularity"),
                                  n - 1, f"location of {sname}"),
            radius=_positive(sc.get("radius", 0.1), f"radius of {sname}")))
        if tangential[-1].boundary >= len(boundaries):
            raise ConfigError(f"tangential singularity {tangential[-1].name} "
                              f"references missing boundary")
    field_spec = VectorFieldSpec(components=comps,
                                 margin=_positive(fc.get("margin", 1e-6), "field margin"),
                                 interior=interior, tangential=tangential)

    defaults = _DEFAULTS[n]
    orders = dict(cfg.get("orders", {}))
    for key in orders:
        if key not in ("boundary", "interior", "degree"):
            raise ConfigError(f"unknown order {key!r}: orders are boundary, "
                              f"interior and degree")
    tolerances = dict(defaults["tolerances"])
    given = dict(cfg.get("tolerances", {}))
    for key in given:
        if key not in tolerances:
            raise ConfigError(f"unknown tolerance {key!r}: tolerances are "
                              f"{', '.join(tolerances)}")
    tolerances.update(given)
    for key, value in tolerances.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ConfigError(f"tolerance {key!r} must be a finite number, got {value!r}")
        if value < 0:
            raise ConfigError(f"tolerance {key!r} must not be negative, got {value!r}")
    expected = dict(_require(cfg, "expected", name))
    for key in ("ind_v", "ind_dminus"):
        if key not in expected:
            raise ConfigError(f"expected integers of {name} need {key!r}")
        expected[key] = _integer(expected[key], f"expected {key}")

    def order(key):
        return _integer(orders.get(key, defaults[f"{key}_order"]), f"{key} order", 1)

    _text(cfg.get("description", ""), "description")
    return Scenario(
        name=name, dimension=n, chi=chi,
        seed=_integer(cfg.get("seed", 0), "seed"),
        patch=patch, boundaries=boundaries, field_spec=field_spec,
        expected=expected,
        boundary_order=order("boundary"),
        interior_order=order("interior"),
        degree_order=order("degree"),
        tolerances=tolerances)


def _boundary_point_cloud(patch, boundaries):
    """Coarse sample of the embedded boundaries in ambient coordinates, on 16
    points per boundary parameter."""
    points = []
    for bp in boundaries:
        t = grid_points([np.linspace(lo, hi, 16) for lo, hi in bp.box])
        points.extend(patch.ambient(stack_values(bp.embed.jets(t, 0)[0], range(patch.n), len(t))))
    return points


def load_scenario_file(path) -> Scenario:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return load_scenario(cfg)


def load_catalog_scenario(name) -> Scenario:
    return load_scenario(load_catalog_raw(name))
