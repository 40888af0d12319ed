"""Scenario configuration: JSON schema, compilation, and the shipped catalog.

A scenario is one JSON document: a chart patch with a metric, one or more
boundary components, a vector field with declared singularities, the declared
Euler characteristic, and tolerances.  Numeric fields accept expression
strings ("pi/2") so the documents stay exact and diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .expressions import ExpressionError, compile_expression, compile_matrix, compile_vector
from .fields import InteriorSingularity, TangentialSingularity, VectorFieldSpec
from .geometry import BoundaryPatch, ConfigError, RiemannianPatch, stack_jets


def _const(value):
    """Evaluate a parameter-free literal (number or expression string)."""
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(compile_expression(value, [])([]))
    except ExpressionError as exc:
        raise ConfigError(f"bad constant {value!r}: {exc}") from exc


def _const_list(values):
    return [_const(v) for v in values]


def _box(raw):
    return [(_const(lo), _const(hi)) for lo, hi in raw]


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
    description: str
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
    except (ExpressionError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid scenario configuration: {exc}") from exc


def _load(cfg):
    name = _require(cfg, "name", "scenario")
    n = int(_require(cfg, "dimension", name))
    if n not in (2, 3):
        raise ConfigError(f"scenario dimension must be 2 or 3, got {n}")
    chi = int(_require(cfg, "chi", name))

    pc = _require(cfg, "patch", name)
    params = list(_require(pc, "params", "patch"))
    if len(params) != n:
        raise ConfigError(f"patch of {name} needs {n} parameters")
    metric_fn = compile_matrix(_require(pc, "metric", "patch"), params)
    chart_fn = None
    if "chart_map" in pc:
        cm = compile_vector(pc["chart_map"], params)
        chart_fn = cm
    patch = RiemannianPatch(n, _box(_require(pc, "box", "patch")), metric_fn,
                            chart_map=chart_fn, name=name)

    boundaries = []
    for k, bc in enumerate(_require(cfg, "boundaries", name)):
        bparams = list(_require(bc, "params", "boundary"))
        if len(bparams) != n - 1:
            raise ConfigError(f"boundary {k} of {name} needs {n - 1} parameters")
        embed = compile_vector(_require(bc, "embed", "boundary"), bparams)
        outward = compile_vector(_require(bc, "outward", "boundary"), bparams)
        boundaries.append(BoundaryPatch(
            patch, _box(_require(bc, "box", "boundary")),
            embed=embed,
            outward=outward,
            name=bc.get("name", f"boundary-{k}")))

    fc = _require(cfg, "field", name)
    comps = compile_vector(_require(fc, "components", "field"), params)
    interior = []
    sing_cfgs = cfg.get("interior_singularities", [])
    for k, sc in enumerate(sing_cfgs):
        chart_params = list(_require(sc, "chart_params", "singularity"))
        ambient = _const_list(_require(sc, "ambient", "singularity"))
        if "radius" in sc:
            radius = _const(sc["radius"])
        else:
            # default rule: half the distance to the nearest other
            # singularity or boundary point, capped at 0.1
            from .fields import GenericityError, default_index_radius
            others = [_const_list(o["ambient"]) for j, o in enumerate(sing_cfgs)
                      if j != k]
            try:
                radius = default_index_radius(
                    ambient, others, _boundary_point_cloud(patch, boundaries))
            except GenericityError as exc:
                raise ConfigError(str(exc)) from exc
        interior.append(InteriorSingularity(
            name=_require(sc, "name", "singularity"),
            ambient=ambient,
            exclusion_radius=_const(_require(sc, "exclusion_radius", "singularity")),
            chart_params=chart_params,
            center=_const_list(_require(sc, "center", "singularity")),
            radius=radius,
            chart_field=compile_vector(_require(sc, "field", "singularity"),
                                       chart_params)))
    tangential = []
    for sc in cfg.get("tangential_singularities", []):
        tangential.append(TangentialSingularity(
            name=_require(sc, "name", "tangential singularity"),
            boundary=int(sc.get("boundary", 0)),
            location=_const_list(_require(sc, "location", "tangential singularity")),
            radius=_const(sc.get("radius", 0.1))))
        if tangential[-1].boundary >= len(boundaries):
            raise ConfigError(f"tangential singularity {tangential[-1].name} "
                              f"references missing boundary")
    field_spec = VectorFieldSpec(components=comps,
                                 margin=float(fc.get("margin", 1e-6)),
                                 interior=interior, tangential=tangential)

    defaults = _DEFAULTS[n]
    orders = cfg.get("orders", {})
    tolerances = dict(defaults["tolerances"])
    tolerances.update(cfg.get("tolerances", {}))
    expected = dict(_require(cfg, "expected", name))
    for key in ("ind_v", "ind_dminus"):
        if key not in expected:
            raise ConfigError(f"expected integers of {name} need {key!r}")

    return Scenario(
        name=name, dimension=n, chi=chi,
        description=cfg.get("description", ""),
        seed=int(cfg.get("seed", 0)),
        patch=patch, boundaries=boundaries, field_spec=field_spec,
        expected=expected,
        boundary_order=int(orders.get("boundary", defaults["boundary_order"])),
        interior_order=int(orders.get("interior", defaults["interior_order"])),
        degree_order=int(orders.get("degree", defaults["degree_order"])),
        tolerances=tolerances)


def _boundary_point_cloud(patch, boundaries):
    """Coarse sample of the embedded boundaries in ambient coordinates, on 16
    points per boundary parameter."""
    points = []
    for bp in boundaries:
        axes = [np.linspace(lo, hi, 16) for lo, hi in bp.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        t = np.stack([g.ravel() for g in mesh], axis=1)
        (x,) = stack_jets(bp.embed_jets(t), t, 0)
        points.extend(patch.ambient(x))
    return points


def load_scenario_file(path) -> Scenario:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return load_scenario(cfg)


def catalog_names():
    files = resources.files("lawcheck").joinpath("catalog")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_catalog_raw(name) -> dict:
    files = resources.files("lawcheck").joinpath("catalog")
    path = files.joinpath(f"{name}.json")
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unknown catalog scenario {name!r}: {exc}") from exc


def load_catalog_scenario(name) -> Scenario:
    return load_scenario(load_catalog_raw(name))


def load_full_catalog():
    return [load_catalog_scenario(name) for name in catalog_names()]
