"""Verification orchestration: run scenarios and suites.

``run_scenario`` is the numeric track's entry point.  ``run_symbolic`` and
``run_suite`` live in ``chern`` and ``suite``, which import no numpy, and are
re-exported here so that one module runs every kind of check.
"""

from __future__ import annotations

import time

from .chern import run_symbolic
from .fields import (
    boundary_decompose,
    check_interior_nonvanishing,
    index_at,
    index_tangential,
)
from .integrate import gauss_grid, integrate_euler, integrate_phi_over_section, joined_grid
from .report import ScenarioReport
from .scenarios import Scenario
from .suite import run_suite

__all__ = ["run_scenario", "run_suite", "run_symbolic"]


def run_scenario(scenario: Scenario, order=None) -> ScenarioReport:
    """Run every check of one scenario and assemble the report.

    The law residual must be exactly zero after integer rounding of the
    degree integrals; the two analytic residuals are held to the scenario
    tolerances, and every integral is recomputed at doubled order to guard
    against non-converged quadrature.
    """
    t_start = time.perf_counter()
    n = scenario.dimension
    boundary_order = int(order) if order else scenario.boundary_order
    interior_order = scenario.interior_order
    tol = scenario.tolerances
    warnings = []
    gates = []  # one (value, bound, failure) record per gate, in report order

    check_interior_nonvanishing(scenario.patch, scenario.field_spec)

    interior_results = []
    for sing in scenario.field_spec.interior:
        res = index_at(sing, order=scenario.degree_order)
        half = index_at(sing, radius=sing.radius / 2, order=scenario.degree_order)
        gates += [(abs(half.value - res.value), 0, f"index of {sing.name} changed under "
                   f"radius halving: {res.value} vs {half.value}"),
                  (res.residual, tol["integer"], f"index residual of {sing.name} is "
                   f"{res.residual:.2e} > {tol['integer']:.0e}")]
        interior_results.append(res)

    minus, plus = [], []          # IndexResults, in the order of the splits
    for b_index, bpatch in enumerate(scenario.boundaries):
        split = boundary_decompose(scenario.field_spec, bpatch, b_index)
        warnings.extend(split.warnings)
        for sings, results in ((split.minus, minus), (split.plus, plus)):
            for sing in sings:
                res = index_tangential(scenario.field_spec, bpatch, sing,
                                       order=scenario.degree_order)
                gates.append((res.residual, tol["integer"], "tangential index residual "
                              f"of {sing.name} is {res.residual:.2e} > {tol['integer']:.0e}"))
                results.append(res)

    sums = {"ind_v": sum(r.value for r in interior_results),
            "ind_dminus": sum(r.value for r in minus),
            "ind_dplus": sum(r.value for r in plus)}

    def both_orders(box, k):  # the grids of order k and 2k, one pass over their nodes
        return joined_grid([gauss_grid(box, k), gauss_grid(box, 2 * k)])

    omega_x = (0.0, 0.0) if n % 2 else integrate_euler(
        scenario.patch, both_orders(scenario.patch.box, interior_order))
    # the three integrals at the orders of the scenario and at doubled orders
    values, doubled = ({"omega_x": w, "phi_normal": 0.0, "phi_section": 0.0} for w in omega_x)
    profile = []  # per boundary, the columns of the Phi integrand at the first order's nodes
    for bpatch in scenario.boundaries:
        grid = both_orders(bpatch.box, boundary_order)
        integrals, dens, angle, v_dot_n = integrate_phi_over_section(
            bpatch, (None, scenario.field_spec.components), grid)
        for value, (phi_n, phi_s) in zip((values, doubled), integrals):
            value["phi_normal"] += phi_n
            value["phi_section"] += phi_s
        first = grid.parts[0]  # copies, so the report keeps no doubled-order array alive
        profile.append({"boundary": bpatch.name, "t": grid.nodes[first].copy(),
                        "weight": grid.weights[first].copy(),
                        "density_normal": dens[0, first].copy(),
                        "density_section": dens[1, first].copy(),
                        "angle": angle[1, first].copy(), "v_dot_n": v_dot_n[1, first].copy()})
    convergence = {key: abs(doubled[key] - values[key]) for key in values}
    gates += [(delta, tol["convergence"], "quadrature non-convergence: doubling the "
               f"order moves {key} by {delta:.2e}") for key, delta in convergence.items()]
    law_residual = sums["ind_v"] + sums["ind_dminus"] - scenario.chi
    thm_residual = (values["phi_normal"] - values["phi_section"]) - sums["ind_dminus"]
    gb_residual = values["omega_x"] + values["phi_normal"] - scenario.chi
    expected = scenario.expected
    gates += [
        (abs(law_residual), 0, f"law residual is {law_residual}, not 0"),
        (abs(thm_residual), tol["thm"], f"boundary-term identity residual "
         f"{thm_residual:.3e} exceeds {tol['thm']:.0e}"),
        (abs(gb_residual), tol["gauss_bonnet"], f"relative Gauss-Bonnet residual "
         f"{gb_residual:.3e} exceeds {tol['gauss_bonnet']:.0e}"),
        (abs(sums["ind_v"] - expected["ind_v"]), 0,
         f"ind V = {sums['ind_v']}, catalog expects {expected['ind_v']}"),
        (abs(sums["ind_dminus"] - expected["ind_dminus"]), 0,
         f"ind d-V = {sums['ind_dminus']}, catalog expects {expected['ind_dminus']}")]
    # a gate passes only when its value is <= its bound, so NaN fails it
    failures = [failure for value, bound, failure in gates if not value <= bound]

    indices = {
        "interior": [vars(r) for r in interior_results],
        "tangential_minus": [vars(r) for r in minus],
        "tangential_plus": [vars(r) for r in plus],
    }
    return ScenarioReport(
        name=scenario.name, dimension=n, chi=scenario.chi, seed=scenario.seed,
        indices=indices, sums=sums,
        integrals=values, convergence=convergence,
        residuals={"law": law_residual, "thm": thm_residual,
                   "gauss_bonnet": gb_residual},
        tolerances=dict(tol),
        quadrature={"boundary_order": boundary_order,
                    "interior_order": interior_order,
                    "degree_order": scenario.degree_order},
        warnings=warnings, failures=failures, passed=not failures,
        wall_time_s=time.perf_counter() - t_start,
        profile=profile)
