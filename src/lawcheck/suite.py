"""The shipped scenario catalog as raw JSON documents, and suites over it.

Nothing here imports numpy: ``lawcheck list`` reads only the raw documents,
and a suite selects scenarios by the names and dimensions those documents
give, so it compiles a scenario (and imports the numeric track) only when
its filter selects one.
"""

from __future__ import annotations

import json
import re
from importlib import resources

from . import ConfigError
from .chern import SYMBOLIC_CHECKS, run_symbolic
from .report import SuiteReport


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


def run_suite(filter_regex="", order=None) -> SuiteReport:
    """Run the matching catalog scenarios and symbolic identity checks.

    Matching tests a regex against "name nD kind" tags, so "n2" selects all
    two-dimensional scenarios and "symbolic" the identity checks; an empty
    result is a pass.
    """
    try:
        pattern = re.compile(filter_regex) if filter_regex else None
    except re.error as exc:
        raise ConfigError(f"bad filter regex {filter_regex!r}: {exc}") from None

    def match(tag):
        return pattern.search(tag) if pattern else True

    raws = [raw for raw in map(load_catalog_raw, catalog_names())
            if match(f"{raw['name']} n{raw['dimension']} scenario")]
    symbolic = [(ident, n) for ident, n in SYMBOLIC_CHECKS
                if match(f"symbolic-{ident}-n{n} n{n} symbolic")]

    scenario_reports = []
    if raws:
        from .runner import run_scenario
        from .scenarios import load_scenario
        scenarios = [load_scenario(raw) for raw in raws]
        scenario_reports = [run_scenario(s, order=order) for s in scenarios]
    scenario_reports.sort(key=lambda r: r.name)
    symbolic_reports = [run_symbolic(ident, n) for ident, n in symbolic]
    symbolic_reports.sort(key=lambda r: r.name)
    all_passed = (all(r.passed for r in scenario_reports)
                  and all(r.passed for r in symbolic_reports))
    return SuiteReport(scenario_reports=scenario_reports,
                       symbolic_reports=symbolic_reports,
                       all_passed=all_passed)
