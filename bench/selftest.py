"""Self-test: the benchmark's output checks have teeth.

    python3 bench/selftest.py

Runs one real operation of each kind, confirms that its output passes every
check, then confirms that copies with one defect each fail: an integral
moved by 10x its tolerance, an index off by one, a conformal change that
did not move the integral of Omega, and a symbolic residual with one term.
A failing check is what makes an operation count as failed in a run.
Exits 0 when every defect is caught.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from lawcheck import report, runner, scenarios  # noqa: E402
from lawcheck.report import ScenarioReport, SymbolicReport  # noqa: E402

SCENARIO = "disk-saddle"


def tampered(text, edit):
    data = json.loads(text)
    edit(data)
    return ScenarioReport.from_dict(data).to_json()


def main():
    root = os.path.dirname(HERE)
    with open(os.path.join(workloads.catalog_dir(root), f"{SCENARIO}.json")) as fh:
        exp = oracles.catalog_expectation(json.load(fh))
    text = report.emit_report(
        runner.run_scenario(scenarios.load_catalog_scenario(SCENARIO)), "json")
    tol = oracles.TOLERANCES[2]

    def check(text, exp=exp):
        return oracles.check_scenario(text, exp, ScenarioReport.from_json)

    def shift(key, amount):
        def edit(data):
            data["integrals"][key] += amount
        return edit

    def add(key, amount):
        def edit(data):
            data["sums"][key] += amount
        return edit

    def fail(data):
        data["passed"] = False

    conformal_exp = dict(exp, unperturbed_omega_x=exp["omega_x"])
    cases = {
        "omega_x moved by 10x tolerance": check(tampered(
            text, shift("omega_x", 10 * tol["gauss_bonnet"]))),
        "phi_normal moved by 10x tolerance": check(tampered(
            text, shift("phi_normal", 10 * tol["gauss_bonnet"]))),
        "phi_section moved by 10x tolerance": check(tampered(
            text, shift("phi_section", 10 * tol["thm"]))),
        "ind V off by one": check(tampered(text, add("ind_v", 1))),
        "ind d-V off by one": check(tampered(text, add("ind_dminus", 1))),
        "report marked failed": check(tampered(text, fail)),
        "conformal change that moved nothing": check(text, conformal_exp),
    }
    sym = runner.run_symbolic("dphi", 2)
    name = "symbolic-dphi-n2"
    bad_sym = copy.copy(sym)
    bad_sym.residual_terms = 1
    cases["symbolic residual with one term"] = oracles.check_symbolic(bad_sym, name)
    failed_sym = SymbolicReport(name=name, identity="dphi", dimension=2,
                                residual_terms=0, passed=False)
    cases["symbolic report marked failed"] = oracles.check_symbolic(failed_sym, name)

    ok = True
    for label, problems in [("untouched scenario report", check(text)),
                            ("untouched symbolic report",
                             oracles.check_symbolic(sym, name))]:
        if problems:
            print(f"FAIL {label}: {problems}")
            ok = False
    for label, problems in cases.items():
        if problems:
            print(f"ok   {label}: {problems[0]}")
        else:
            print(f"FAIL {label}: not caught")
            ok = False
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
