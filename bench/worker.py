"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py MANIFEST --spawned T --mode setup|pass [--spans FILE]

The process imports lawcheck from the checkout's ``src``, loads the
manifest's scenarios and builds the Phi templates they need: that is
set-up, timed from T, the parent's ``time.perf_counter()`` just before it
started this process.  With ``--mode pass`` it then runs every operation of
the manifest one after another, times each, checks every output and prints
the results as one JSON line.  Times are scaled to the reference speed by
the probe (probe.py).  With ``--spans`` the program's layers are traced as
well, and the spans are written to FILE at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probe as speed  # noqa: E402


def peak_rss_mb():
    """Peak resident memory of this process since its exec.

    ``getrusage`` is not used: its maximum carries over the parent's
    resident size from before the exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    probe = speed.SpeedProbe()
    probe.start(speed.SETUP_PERIOD_S)

    import lawcheck  # noqa: F401  (part of set-up: the package import)
    from lawcheck import integrate, report, runner, scenarios

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.install()

    with open(args.manifest) as fh:
        manifest = json.load(fh)
    loaded = []
    for item in manifest.get("scenarios", []):
        if "catalog" in item:
            loaded.append(scenarios.load_catalog_scenario(item["catalog"]))
        else:
            loaded.append(scenarios.load_scenario_file(item["file"]))
    for n in sorted({s.dimension for s in loaded}):
        integrate.phi_template(n)
    ready = time.perf_counter()
    probe.stop()
    setup = {"setup_s": probe.scaled(args.spawned, ready),
             "setup_wall_s": ready - args.spawned}
    if args.mode == "setup":
        print(json.dumps(setup))
        return
    probe.start()

    ops = []
    for scenario in loaded:
        ops.append((scenario.name,
                    lambda s=scenario: report.emit_report(
                        runner.run_scenario(s), "json")))
    for ident, n in manifest.get("symbolic", []):
        ops.append((f"symbolic-{ident}-n{n}",
                    lambda i=ident, n=n: runner.run_symbolic(i, n)))

    outputs, windows, errors = [], [], []
    for k, (name, op) in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            outputs.append(op())
            errors.append(None)
        except Exception as exc:  # a failed operation is counted
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        windows.append((t0, time.perf_counter()))
    rss_mb = peak_rss_mb()
    probe.stop()
    seconds = [probe.scaled(t0, t1) for t0, t1 in windows]

    import oracles
    results = []
    expects = [item["expect"] for item in manifest.get("scenarios", [])]
    for k, (name, _op) in enumerate(ops):
        # "flagged": lawcheck itself reported the failure
        if errors[k] is not None:
            problems, flagged = [errors[k]], True
        elif k < len(expects):
            problems = oracles.check_scenario(
                outputs[k], expects[k], report.ScenarioReport.from_json)
            flagged = not json.loads(outputs[k])["passed"]
        else:
            problems = oracles.check_symbolic(outputs[k], name)
            flagged = not outputs[k].passed
        results.append({"name": name, "seconds": seconds[k],
                        "wall_s": windows[k][1] - windows[k][0],
                        "problems": problems, "flagged": flagged})
    if tracer is not None:
        tracer.write(args.spans, {**manifest["stamp"],
                                  "workload": manifest["workload"],
                                  "ops": [name for name, _op in ops]})
    print(json.dumps({**setup, "verify_s": sum(seconds),
                      "verify_wall_s": windows[-1][1] - windows[0][0],
                      "rss_mb": rss_mb, "ops": results}))


if __name__ == "__main__":
    main()
