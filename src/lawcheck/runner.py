"""Verification orchestration: run scenarios, symbolic checks, suites."""

from __future__ import annotations

import re
import time

from . import chern
from .fields import (
    boundary_decompose,
    check_interior_nonvanishing,
    index_at,
    index_tangential,
)
from .integrate import gauss_grid, integrate_euler, integrate_phi_over_section
from .report import ScenarioReport, SuiteReport, SymbolicReport
from .scenarios import Scenario, load_full_catalog


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
    failures = []
    warnings = []

    check_interior_nonvanishing(scenario.patch, scenario.field_spec)

    interior_results = []
    for sing in scenario.field_spec.interior:
        res = index_at(sing, order=scenario.degree_order
                       if len(sing.center) == 2 else None)
        half = index_at(sing, radius=sing.radius / 2)
        if half.value != res.value:
            failures.append(f"index of {sing.name} changed under radius "
                            f"halving: {res.value} vs {half.value}")
        if res.residual > tol["integer"]:
            failures.append(f"index residual of {sing.name} is "
                            f"{res.residual:.2e} > {tol['integer']:.0e}")
        interior_results.append(res)

    splits = []
    tangential_results = {}
    minus_all, plus_all = [], []
    for b_index, bpatch in enumerate(scenario.boundaries):
        split = boundary_decompose(scenario.field_spec, bpatch, b_index)
        splits.append(split)
        warnings.extend(split.warnings)
        for sing in split.minus + split.plus:
            res = index_tangential(scenario.field_spec, bpatch, sing)
            if res.residual > tol["integer"]:
                failures.append(f"tangential index residual of {sing.name} is "
                                f"{res.residual:.2e}")
            tangential_results[sing.name] = res
        minus_all.extend(split.minus)
        plus_all.extend(split.plus)

    sums = {"ind_v": sum(r.value for r in interior_results),
            "ind_dminus": sum(tangential_results[s.name].value for s in minus_all),
            "ind_dplus": sum(tangential_results[s.name].value for s in plus_all)}

    def euler_integral(k):
        if n % 2:
            return 0.0
        return integrate_euler(scenario.patch,
                               gauss_grid(scenario.patch.box, k))

    def phi_integrals(k, collect_rows=False):
        normal = 0.0
        section = 0.0
        profile = []
        for bpatch in scenario.boundaries:
            grid = gauss_grid(bpatch.box, k)
            rows = [] if collect_rows else None
            phi_n, phi_s = integrate_phi_over_section(
                bpatch, (None, scenario.field_spec.components), grid,
                collect=rows)
            normal += phi_n
            section += phi_s
            for node, row in enumerate(rows or ()):
                profile.append({
                    "boundary": bpatch.name, "node": node, "t": row["t"],
                    "weight": row["weight"],
                    "density_normal": row["density"][0],
                    "density_section": row["density"][1],
                    "angle": row["angle"][1], "v_dot_n": row["v_dot_n"][1],
                })
        return normal, section, profile

    omega_x = euler_integral(interior_order)
    omega_x2 = euler_integral(2 * interior_order)
    phi_normal, phi_section, profile = phi_integrals(boundary_order,
                                                     collect_rows=True)
    phi_normal2, phi_section2, _ = phi_integrals(2 * boundary_order)

    convergence = {
        "omega_x": abs(omega_x2 - omega_x),
        "phi_normal": abs(phi_normal2 - phi_normal),
        "phi_section": abs(phi_section2 - phi_section),
    }
    for key, delta in convergence.items():
        if delta > tol["convergence"]:
            failures.append(f"quadrature non-convergence: doubling the order "
                            f"moves {key} by {delta:.2e}")

    law_residual = sums["ind_v"] + sums["ind_dminus"] - scenario.chi
    thm_residual = (phi_normal - phi_section) - sums["ind_dminus"]
    gb_residual = omega_x + phi_normal - scenario.chi

    if law_residual != 0:
        failures.append(f"law residual is {law_residual}, not 0")
    if abs(thm_residual) > tol["thm"]:
        failures.append(f"boundary-term identity residual {thm_residual:.3e} "
                        f"exceeds {tol['thm']:.0e}")
    if abs(gb_residual) > tol["gauss_bonnet"]:
        failures.append(f"relative Gauss-Bonnet residual {gb_residual:.3e} "
                        f"exceeds {tol['gauss_bonnet']:.0e}")
    if sums["ind_v"] != scenario.expected["ind_v"]:
        failures.append(f"ind V = {sums['ind_v']}, catalog expects "
                        f"{scenario.expected['ind_v']}")
    if sums["ind_dminus"] != scenario.expected["ind_dminus"]:
        failures.append(f"ind d-V = {sums['ind_dminus']}, catalog expects "
                        f"{scenario.expected['ind_dminus']}")

    indices = {
        "interior": [vars(r) for r in interior_results],
        "tangential_minus": [vars(tangential_results[s.name]) for s in minus_all],
        "tangential_plus": [vars(tangential_results[s.name]) for s in plus_all],
    }
    report = ScenarioReport(
        name=scenario.name, dimension=n, chi=scenario.chi, seed=scenario.seed,
        indices=indices, sums=sums,
        integrals={"omega_x": omega_x, "phi_normal": phi_normal,
                   "phi_section": phi_section},
        convergence=convergence,
        residuals={"law": law_residual, "thm": thm_residual,
                   "gauss_bonnet": gb_residual},
        tolerances=dict(tol),
        quadrature={"boundary_order": boundary_order,
                    "interior_order": interior_order,
                    "degree_order": scenario.degree_order},
        warnings=warnings, failures=failures, passed=not failures,
        wall_time_s=time.perf_counter() - t_start,
        profile=profile)
    return report


# -- symbolic checks --------------------------------------------------------------

SYMBOLIC_CHECKS = (
    [("dphi", n) for n in (2, 3, 4, 5)]
    + [("upsilon", n) for n in (3, 4, 5)]
    + [("gamma", n) for n in (3, 4, 5)]
)


def run_symbolic(identity, n) -> SymbolicReport:
    t0 = time.perf_counter()
    if identity == "dphi":
        residual = chern.check_dphi(n)
    elif identity == "upsilon":
        residual = chern.build_upsilon_and_check(n)
    elif identity == "gamma":
        residual = chern.build_gamma_and_check(n)
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return SymbolicReport(name=f"symbolic-{identity}-n{n}", identity=identity,
                          dimension=n, residual_terms=len(residual),
                          passed=residual.is_zero,
                          wall_time_s=time.perf_counter() - t0)


# -- suites ------------------------------------------------------------------------

def run_suite(filter_regex="", order=None) -> SuiteReport:
    """Run the matching catalog scenarios and symbolic identity checks.

    Matching tests a regex against "name nD kind" tags, so "n2" selects all
    two-dimensional scenarios and "symbolic" the identity checks; an empty
    result is a pass.
    """
    pattern = re.compile(filter_regex) if filter_regex else None

    def match(tag):
        return pattern.search(tag) if pattern else True

    scenarios = [s for s in load_full_catalog()
                 if match(f"{s.name} n{s.dimension} scenario")]
    symbolic = [(ident, n) for ident, n in SYMBOLIC_CHECKS
                if match(f"symbolic-{ident}-n{n} n{n} symbolic")]

    scenario_reports = [run_scenario(s, order=order) for s in scenarios]
    scenario_reports.sort(key=lambda r: r.name)
    symbolic_reports = [run_symbolic(ident, n) for ident, n in symbolic]
    symbolic_reports.sort(key=lambda r: r.name)
    all_passed = (all(r.passed for r in scenario_reports)
                  and all(r.passed for r in symbolic_reports))
    return SuiteReport(scenario_reports=scenario_reports,
                       symbolic_reports=symbolic_reports,
                       all_passed=all_passed)
