"""The traced benchmark pass binds program names from outside the package.

``bench/tracing.install()`` wraps lawcheck functions and methods by name, so
renaming one of them, or a parameter its span reads, breaks the traced pass.
One test runs one catalog scenario, both degree integrals and the three
symbolic identities at n = 3 through the tracer in a fresh interpreter and
reads the per-layer metrics back; another runs ``ball3-radial``, whose Phi
integrand reads one of its two boundary parameters, in an interpreter and
span file of its own, as the metrics sum over the whole file.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import numpy as np
    import tracing
    from lawcheck import integrate, report, runner, scenarios
    tracer = tracing.install()
    scenario = scenarios.load_catalog_scenario("disk-constant")
    tracer.begin_op(0)
    text = report.emit_report(runner.run_scenario(scenario), "json")
    integrate.degree_integral_circle(
        lambda t: ({0: np.cos(t), 1: np.sin(t)}, {(0, 0): -np.sin(t), (0, 1): np.cos(t)}),
        order=16)
    integrate.degree_integral_sphere(lambda ab: ({2: 1.0}, {}), order=4)
    tracer.begin_op(1)
    symbolic = [runner.run_symbolic(identity, 3) for identity in ("dphi", "upsilon", "gamma")]
    tracer.write(sys.argv[3], {"workload": "hooks"})
    print(json.dumps({
        "passed": report.ScenarioReport.from_json(text).passed,
        "symbolic_passed": all(r.passed for r in symbolic),
        "metrics": tracing.layer_metrics(sys.argv[3])}))
""")


def test_traced_pass_records_layers(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         str(spans)],
        capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(proc.stdout)
    assert out["passed"]
    assert out["metrics"]["integrate.phi_nodes"] > 0
    # one boundary_frame call per chunk: disk-constant integrates Phi on
    # its grids of 64 and 128 nodes joined, one chunk
    assert out["metrics"]["geometry.frames_per_boundary_node"] == 1 / 192
    assert out["metrics"]["integrate.degree_nodes"] == 48
    assert out["metrics"]["geometry.euler_density_calls"] > 0
    # the symbolic hooks: coefficient and form products, polar substitution
    assert out["symbolic_passed"]
    assert out["metrics"]["trig.muls"] > 0
    assert out["metrics"]["algebra.form_muls"] > 0
    assert out["metrics"]["chern.polar_substitute_s"] > 0
    assert out["metrics"]["chern.upsilon_s"] > 0
    assert out["metrics"]["chern.gamma_s"] > 0


SEPARABLE_SCRIPT = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import tracing
    from lawcheck import report, runner, scenarios
    tracer = tracing.install()
    scenario = scenarios.load_catalog_scenario("ball3-radial")
    tracer.begin_op(0)
    text = report.emit_report(runner.run_scenario(scenario), "json")
    tracer.write(sys.argv[3], {"workload": "hooks"})
    print(json.dumps({"passed": report.ScenarioReport.from_json(text).passed,
                      "metrics": tracing.layer_metrics(sys.argv[3])}))
""")


def test_traced_pass_counts_the_grid_of_a_separable_integrand(tmp_path):
    """``ball3-radial``'s Phi integrand reads the colatitude alone, so its
    joined grid of 32^2 and 64^2 nodes runs at 32 + 64 nodes: the span still
    counts the 5,120 grid nodes, while ``boundary_frame`` runs fewer times
    than the 3 chunks of every node."""
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", SEPARABLE_SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         str(spans)],
        capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(proc.stdout)
    assert out["passed"]
    assert out["metrics"]["integrate.phi_nodes"] == 5120
    assert out["metrics"]["geometry.boundary_frame_calls"] < 3
