"""The benchmark's workloads: the operations of one pass and their checks.

A numeric operation is ``runner.run_scenario`` followed by
``report.emit_report(report, "json")`` (what ``lawcheck run --format json``
does); a symbolic one is ``runner.run_symbolic(identity, n)`` (what
``lawcheck symbolic-check`` does).  Only conformal-2d draws from the seed;
the catalog workloads and symbolic take no randomness.
"""

from __future__ import annotations

import json
import os

import conformal
import oracles

# Why each workload is here (see README.md for the layer -> metric table):
#   catalog-2d   interior Euler-density quadrature dominates, flat metrics
#   ball3        n is odd, so no Euler integral; boundary frames dominate
#   conformal-2d long metric expressions, curvature everywhere: expression
#                evaluation dominates
#   symbolic     the exact track (trig, algebra, chern) and nothing numeric
CATALOG_2D = ("disk-saddle", "disk-double-vortex", "annulus-rotational",
              "cap-tilted", "hemisphere-radial")
BALL3 = ("ball3-radial",)
# runner.SYMBOLIC_CHECKS as of this benchmark, fixed here so that the
# workload does not change when the program's list does
SYMBOLIC = (("dphi", 2), ("dphi", 3), ("dphi", 4), ("dphi", 5),
            ("upsilon", 3), ("upsilon", 4), ("upsilon", 5),
            ("gamma", 3), ("gamma", 4), ("gamma", 5))
WORKLOADS = ("catalog-2d", "ball3", "conformal-2d", "symbolic")


def catalog_dir(root):
    return os.path.join(root, "src", "lawcheck", "catalog")


def prepare(workload, seed, root, out_dir):
    """Make the workload's inputs and return its manifest.

    The manifest lists the operations of one pass, each with the values its
    output is checked against.
    """
    if workload == "symbolic":
        return {"workload": workload,
                "symbolic": [list(item) for item in SYMBOLIC]}
    if workload == "conformal-2d":
        written = conformal.write_scenarios(seed, out_dir, catalog_dir(root))
        scenarios = [{"file": path, "expect": exp} for path, exp in written]
    else:
        names = CATALOG_2D if workload == "catalog-2d" else BALL3
        scenarios = []
        for name in names:
            with open(os.path.join(catalog_dir(root), f"{name}.json")) as fh:
                cfg = json.load(fh)
            scenarios.append({"catalog": name,
                              "expect": oracles.catalog_expectation(cfg)})
    return {"workload": workload, "scenarios": scenarios}
