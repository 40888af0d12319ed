"""Checks of benchmark outputs against values computed apart from lawcheck.

Nothing here imports lawcheck.  Scenario expression strings are evaluated
with numpy, closed forms come from the geometry of each catalog chart, and
interior indices from a winding count (2-D) or a Jacobian sign (3-D) of the
declared local fields.  Each ``check_*`` function returns a list of problems;
an operation with any problem counts as failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The catalog's published tolerances (README of lawcheck), per dimension.
TOLERANCES = {
    2: {"integer": 1e-6, "thm": 1e-6, "gauss_bonnet": 1e-6,
        "convergence": 1e-8},
    3: {"integer": 1e-3, "thm": 1e-2, "gauss_bonnet": 1e-2,
        "convergence": 1e-4},
}

_NAMESPACE = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pi": math.pi}


def evaluate(text, names=(), values=()):
    """Evaluate one scenario expression string with numpy."""
    env = dict(_NAMESPACE)
    env.update(zip(names, values))
    return eval(str(text).replace("^", "**"), {"__builtins__": {}}, env)


# -- geometry of the catalog charts ------------------------------------------------

FLAT_POLAR = [["1", "0"], ["0", "r*r"]]
UNIT_SPHERE = [["1", "0"], ["0", "sin(th)*sin(th)"]]
FLAT_BALL = [["1", "0", "0"], ["0", "rho*rho", "0"],
             ["0", "0", "rho*rho*sin(th)*sin(th)"]]


def boundary_circles(cfg):
    """(kind, [(level, outward sign)]) of a catalog scenario.

    ``level`` is the constant first chart coordinate of each boundary: the
    radius on the flat polar chart, the colatitude on the unit sphere.
    """
    metric = cfg["patch"]["metric"]
    kind = {str(FLAT_POLAR): "flat", str(UNIT_SPHERE): "sphere",
            str(FLAT_BALL): "ball"}.get(str(metric))
    if kind is None:
        raise ValueError(f"{cfg['name']}: metric {metric} is not a catalog chart")
    circles = [(float(evaluate(b["embed"][0])),
                math.copysign(1.0, float(evaluate(b["outward"][0]))))
               for b in cfg["boundaries"]]
    return kind, circles


def closed_forms(cfg):
    """Euler characteristic and the integrals of Omega and Phi(n) of the
    unperturbed catalog geometry."""
    kind, circles = boundary_circles(cfg)
    if kind == "ball":
        if circles != [(1.0, 1.0)]:
            raise ValueError(f"{cfg['name']}: expected the unit sphere boundary")
        return {"chi": 1, "omega_x": 0.0, "phi_normal": 1.0}
    if kind == "sphere":
        if len(circles) != 1 or circles[0][1] < 0:
            raise ValueError(f"{cfg['name']}: expected one cap rim")
        a = circles[0][0]
        return {"chi": 1, "omega_x": 1.0 - math.cos(a),
                "phi_normal": math.cos(a)}
    # flat disk (one outer circle) or annulus (outer and inner circle):
    # each circle contributes its turning number +-1 to the boundary integral
    chi = {1: 1, 2: 0}[len(circles)]
    return {"chi": chi, "omega_x": 0.0,
            "phi_normal": sum(sign for _level, sign in circles)}


def interior_index(cfg):
    """Sum of the indices of the declared interior singularities."""
    total = 0
    for sing in cfg.get("interior_singularities", []):
        params = sing["chart_params"]
        center = [float(evaluate(c)) for c in sing["center"]]
        if len(params) == 2:
            total += _winding(sing, params, center)
        else:
            total += _jacobian_sign(sing, params, center)
    return total


def _winding(sing, params, center):
    r = float(evaluate(sing.get("radius", 0.1)))
    t = np.linspace(0.0, 2 * math.pi, 4097)
    pts = [center[0] + r * np.cos(t), center[1] + r * np.sin(t)]
    f = [np.broadcast_to(evaluate(e, params, pts), t.shape)
         for e in sing["field"]]
    turns = np.sum(np.diff(np.unwrap(np.arctan2(f[1], f[0])))) / (2 * math.pi)
    if abs(turns - round(turns)) > 1e-6:
        raise ValueError(f"winding of {sing['name']} is {turns}")
    return int(round(turns))


def _jacobian_sign(sing, params, center, h=1e-5):
    def field(p):
        return np.array([float(evaluate(e, params, p)) for e in sing["field"]])

    jac = []
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        jac.append((field(center + step) - field(center - step)) / (2 * h))
    det = np.linalg.det(np.array(jac))
    if abs(det) < 1e-8:
        raise ValueError(f"{sing['name']} is a degenerate zero")
    return 1 if det > 0 else -1


def catalog_expectation(cfg):
    """Everything an operation on the catalog scenario ``cfg`` must report."""
    exp = closed_forms(cfg)
    exp.update(name=cfg["name"], dimension=int(cfg["dimension"]),
               ind_v=interior_index(cfg), declared=dict(cfg["expected"]))
    return exp


# -- checks ---------------------------------------------------------------------

def _close(problems, label, value, expected, tol):
    if not abs(value - expected) <= tol:
        problems.append(f"{label} = {value!r}, expected {expected!r} within {tol:g}")


def check_scenario(text, exp, from_json):
    """Problems with one scenario operation's JSON report ``text``.

    ``from_json`` is ``ScenarioReport.from_json``; the report must survive
    the round trip byte for byte.
    """
    problems = []
    report = from_json(text)
    if report.to_json() != text:
        problems.append("JSON report does not round-trip losslessly")
    data = json.loads(text)
    tol = TOLERANCES[exp["dimension"]]
    if data["name"] != exp["name"]:
        problems.append(f"report is for {data['name']}, not {exp['name']}")
    if not data["passed"] or data["failures"]:
        problems.append(f"lawcheck reports failures: {data['failures']}")
    if data["tolerances"] != tol:
        problems.append(f"tolerances {data['tolerances']} differ from {tol}")
    chi, ind_v = exp["chi"], exp["ind_v"]
    sums, integrals = data["sums"], data["integrals"]
    if data["chi"] != chi:
        problems.append(f"chi = {data['chi']}, topology gives {chi}")
    if sums["ind_v"] != ind_v:
        problems.append(f"ind V = {sums['ind_v']}, winding count gives {ind_v}")
    if sums["ind_v"] + sums["ind_dminus"] != chi:
        problems.append(f"ind V + ind d-V = {sums['ind_v'] + sums['ind_dminus']}"
                        f", not chi = {chi}")
    for key in ("ind_v", "ind_dminus"):
        if sums[key] != exp["declared"][key]:
            problems.append(f"{key} = {sums[key]}, the scenario declares "
                            f"{exp['declared'][key]}")
    if data["residuals"]["law"] != 0:
        problems.append(f"law residual {data['residuals']['law']}")
    _close(problems, "integral of Omega", integrals["omega_x"], exp["omega_x"],
           tol["gauss_bonnet"])
    _close(problems, "integral of Phi(n)", integrals["phi_normal"],
           exp["phi_normal"], tol["gauss_bonnet"])
    _close(problems, "Omega + Phi(n) - chi",
           integrals["omega_x"] + integrals["phi_normal"], chi,
           tol["gauss_bonnet"])
    _close(problems, "integral of Phi(alpha_V)", integrals["phi_section"],
           integrals["phi_normal"] - (chi - ind_v), tol["thm"])
    if "unperturbed_omega_x" in exp:
        moved = abs(integrals["omega_x"] - exp["unperturbed_omega_x"])
        if not moved > 100 * tol["gauss_bonnet"]:
            problems.append(f"conformal change moved the integral of Omega by "
                            f"only {moved:.3e}")
    return problems


def check_symbolic(report, name):
    """Problems with the report of the symbolic identity check ``name``."""
    problems = []
    if report.name != name:
        problems.append(f"report is for {report.name}, not {name}")
    if report.residual_terms != 0 or not report.passed:
        problems.append(f"{name}: residual has {report.residual_terms} terms")
    return problems
