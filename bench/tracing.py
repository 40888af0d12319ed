"""Layer spans and counters for traced benchmark passes.

The tracer wraps lawcheck's public functions from the outside: every module
attribute that refers to a wrapped function is replaced, so calls between
lawcheck modules (``integrate`` calling ``geometry.boundary_frame`` through
its own import) are recorded too.  No file of the program is changed.

Spans are kept in flat arrays while the pass runs and written out as JSON
lines when it ends; ``layer_metrics`` turns such a file back into the
per-layer numbers.  A layer's self time is its span's duration minus the
durations of its direct child spans, so the self times of all spans of an
operation add up to the durations of its top-level spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

SETUP_OP = -1


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.extra = {}
        self.stack = []
        self.current_op = SETUP_OP
        self._counters = {}
        self.counts = []          # (op, counter name, value)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, extra=None):
        """Wrap ``fn`` so each call records one span called ``name``.

        ``extra(bound_arguments)`` may return a dict stored with the span.
        """
        nid = self._name_id(name)
        names, start, end = self.name, self.start, self.end
        parent, ops, stack = self.parent, self.op, self.stack
        perf = time.perf_counter
        signature = inspect.signature(fn) if extra is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            end.append(0.0)
            if extra is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.extra[idx] = extra(bound.arguments)
            stack.append(idx)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so each call adds one to the counter ``name``."""
        cell = self._counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_op(self, op):
        """Close the counters of the current operation and start ``op``."""
        for name, cell in self._counters.items():
            self.counts.append((self.current_op, name, cell[0]))
            cell[0] = 0
        self.current_op = op

    def write(self, path, stamp):
        """Write the stamp, every span and every counter as JSON lines."""
        self.begin_op(SETUP_OP)
        with open(path, "w") as fh:
            fh.write(json.dumps({"stamp": stamp}) + "\n")
            for i in range(len(self.start)):
                rec = {"id": i, "name": self.names[self.name[i]],
                       "start": self.start[i], "end": self.end[i],
                       "parent": self.parent[i], "op": self.op[i]}
                if i in self.extra:
                    rec.update(self.extra[i])
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            for op, name, value in self.counts:
                fh.write(json.dumps({"count": name, "op": op,
                                     "value": value}) + "\n")


def _replace_everywhere(original, wrapper):
    """Point every lawcheck module attribute bound to ``original`` at
    ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("lawcheck"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _grid_nodes(arguments):
    return {"nodes": len(arguments["grid"])}


def _phi_nodes(arguments):
    grid = arguments["grid"]
    return {"nodes": len(grid),
            "grid": f"{arguments['bpatch'].name}:{grid.orders}"}


def install():
    """Wrap the program's layer functions; returns the Tracer."""
    from lawcheck import (algebra, chern, expressions, fields, geometry,
                          integrate, report, runner, scenarios, trig)

    tracer = Tracer()
    functions = [
        ("runner", runner, "run_scenario", None),
        ("runner", runner, "run_symbolic", None),
        ("report.emit", report, "emit_report", None),
        ("scenarios.load", scenarios, "load_scenario_file", None),
        ("scenarios.load", scenarios, "load_catalog_scenario", None),
        ("geometry.euler_density", geometry, "euler_form_density", None),
        ("geometry.boundary_frame", geometry, "boundary_frame", None),
        ("integrate.euler", integrate, "integrate_euler", _grid_nodes),
        ("integrate.phi", integrate, "integrate_phi_over_section", _phi_nodes),
        ("integrate.template", integrate, "evaluate_template", None),
        ("integrate.degree", integrate, "degree_integral_circle",
         lambda a: {"nodes": a["order"]}),
        ("integrate.degree", integrate, "degree_integral_sphere",
         lambda a: {"nodes": 2 * a["order"] ** 2}),
        ("fields.genericity", fields, "check_interior_nonvanishing", None),
        ("fields.genericity", fields, "boundary_decompose", None),
        ("fields.index", fields, "index_at", None),
        ("fields.index", fields, "index_tangential", None),
        ("chern.build_phi", chern, "build_phi", None),
        ("chern.polar_substitute", chern, "polar_substitute", None),
        ("chern.dphi", chern, "check_dphi", None),
        ("chern.upsilon", chern, "build_upsilon_and_check", None),
        ("chern.gamma", chern, "build_gamma_and_check", None),
    ]
    for name, module, attr, extra in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.span(name, original, extra))

    methods = [
        ("geometry.metric_jets", geometry.RiemannianPatch, "metric_jets"),
        ("integrate.bind", integrate.SectionPullback, "bind"),
    ]
    for name, cls, attr in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr)))

    counters = [
        ("geometry.jet_muls", geometry.Jet, ("__mul__", "__rmul__")),
        ("trig.muls", trig.TrigScalar, ("__mul__", "__rmul__")),
        ("algebra.form_muls", algebra.Form, ("__mul__",)),
    ]
    for name, cls, attrs in counters:
        for attr in attrs:
            setattr(cls, attr, tracer.counter(name, getattr(cls, attr)))

    compile_expression = expressions.compile_expression

    @functools.wraps(compile_expression)
    def traced_compile(text, params):
        return tracer.span("expressions.eval", compile_expression(text, params))

    _replace_everywhere(compile_expression, traced_compile)
    return tracer


# -- analysis ---------------------------------------------------------------------

TIMED_LAYERS = (
    "expressions.eval", "geometry.metric_jets", "geometry.euler_density",
    "geometry.boundary_frame", "integrate.euler", "integrate.phi",
    "integrate.bind", "integrate.template", "integrate.degree",
    "fields.genericity", "fields.index", "chern.build_phi",
    "chern.polar_substitute", "chern.dphi", "chern.upsilon", "chern.gamma",
    "report.emit",
)
COUNTERS = ("geometry.jet_muls", "trig.muls", "algebra.form_muls")


def layer_metrics(path):
    """Per-layer metrics of one traced pass, computed from its span file.

    ``*_s`` values are self times summed over the pass's operations (the
    set-up phase for ``scenarios.load_s``); ``*_us`` and ``*_us_per_node``
    are inclusive span durations per call or per quadrature node.
    """
    names, ids = [], {}
    name, parent, op, dur = array("H"), array("l"), array("l"), array("d")
    nodes, grids, counts = {}, {}, {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "count" in rec:
                if rec["op"] >= 0:
                    counts[rec["count"]] = counts.get(rec["count"], 0) + rec["value"]
                continue
            if "stamp" in rec:
                continue
            if rec["name"] not in ids:
                ids[rec["name"]] = len(names)
                names.append(rec["name"])
            if "nodes" in rec:
                nodes[len(dur)] = rec["nodes"]
            if "grid" in rec:
                grids[len(dur)] = (rec["op"], rec["grid"], rec["nodes"])
            name.append(ids[rec["name"]])
            parent.append(rec["parent"])
            op.append(rec["op"])
            dur.append(rec["end"] - rec["start"])

    child = array("d", bytes(8 * len(dur)))
    for i, up in enumerate(parent):
        if up >= 0:
            child[up] += dur[i]
    size = len(names)
    self_s, incl_s, setup_s = [0.0] * size, [0.0] * size, [0.0] * size
    calls, node_sum = [0] * size, [0] * size
    verify = 0.0
    phi = ids.get("integrate.phi", -1)
    frame = ids.get("geometry.boundary_frame", -1)
    phi_frames = 0
    for i, k in enumerate(name):
        if op[i] < 0:
            setup_s[k] += dur[i] - child[i]
            continue
        if parent[i] < 0:
            verify += dur[i]
        self_s[k] += dur[i] - child[i]
        incl_s[k] += dur[i]
        calls[k] += 1
        node_sum[k] += nodes.get(i, 0)
        if k == frame:
            up = parent[i]
            while up >= 0 and name[up] != phi:
                up = parent[up]
            phi_frames += up >= 0

    def get(table, layer):
        return table[ids[layer]] if layer in ids else 0

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {"scenarios.load_s": get(setup_s, "scenarios.load"),
           "trace.verify_s": verify,
           "runner.self_s": get(self_s, "runner")}
    for layer in TIMED_LAYERS:
        out[f"{layer}_s"] = get(self_s, layer)
    for layer in ("geometry.metric_jets", "geometry.euler_density",
                  "geometry.boundary_frame"):
        out[f"{layer}_calls"] = get(calls, layer)
    for layer in ("geometry.euler_density", "geometry.boundary_frame",
                  "integrate.bind", "integrate.template"):
        out[f"{layer}_us"] = per(get(incl_s, layer), get(calls, layer), 1e6)
    out["expressions.evals"] = get(calls, "expressions.eval")
    out["expressions.eval_us"] = per(get(incl_s, "expressions.eval"),
                                     get(calls, "expressions.eval"), 1e6)
    for layer in ("integrate.euler", "integrate.phi", "integrate.degree"):
        out[f"{layer}_nodes"] = get(node_sum, layer)
    for layer in ("integrate.euler", "integrate.phi"):
        out[f"{layer}_us_per_node"] = per(get(incl_s, layer),
                                          get(node_sum, layer), 1e6)
    out["geometry.frames_per_boundary_node"] = per(
        phi_frames, sum(n for _op, _grid, n in set(grids.values())))
    for counter in COUNTERS:
        out[counter] = counts.get(counter, 0)
    out["trace.unaccounted_s"] = verify - sum(self_s)
    return out


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_us", "_us_per_node")):
        return "us"
    if name == "geometry.frames_per_boundary_node":
        return "frames/node"
    return "count"
