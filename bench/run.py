"""lawcheck benchmark: cold-process passes of four workloads.

    python3 bench/run.py                       # every workload, untraced and
                                               # traced, plus the self-test
    python3 bench/run.py --workload ball3 --seed 3 --seconds 10 --trace 0

A run of one workload makes its inputs from --seed, then starts passes, each
in a fresh interpreter (bench/worker.py), until --seconds have passed; every
pass runs all of the workload's operations, so a run always attempts whole
passes.  With --trace 0 it also times set-up alone in SETUP_SAMPLES extra
processes and reports the end-to-end metrics; with --trace 1 the passes are
traced and it reports the per-layer metrics computed from their span files.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
END_TO_END = (("setup_s", "s"), ("verify_s", "s"), ("op_median_s", "s"),
              ("op_max_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed):
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "git_sha": git_sha(ROOT), "seed": seed}


def spawn(manifest, mode, deadline, spans=None):
    """Run one worker process and return its result."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest,
           "--spawned", repr(t0), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    """One run of one workload: {"correct", "attempted", "failed", "metrics"}."""
    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    out_dir = os.path.join(OUT, workload, "traced" if trace else "untraced")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    manifest = workloads.prepare(workload, seed, ROOT, out_dir)
    manifest["stamp"] = stamp(seed)
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)

    setups = []
    if not trace:
        setups = [spawn(manifest_path, "setup", limit)
                  for _ in range(SETUP_SAMPLES)]
    passes, span_files = [], []
    while not passes or time.perf_counter() - start < seconds:
        spans = None
        if trace:
            spans = os.path.join(out_dir, f"spans-{len(passes)}.jsonl")
            span_files.append(spans)
        passes.append(spawn(manifest_path, "pass", limit, spans))

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    notes = {"stamp": stamp(seed), "workload": workload,
             "passes": len(passes), "attempted": len(ops),
             "failed": len(failed), "problems": [
                 f"{op['name']}: {p}" for op in failed for p in op["problems"]],
             # unscaled wall times, kept beside the metrics for reference
             "wall": {"verify_s": statistics.median(
                 p["verify_wall_s"] for p in passes)}}
    result = {
        # an operation lawcheck reported as passing must pass every check
        "correct": not any(not op["flagged"] for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {},
    }
    if trace:
        notes["scaled_verify_s"] = statistics.median(p["verify_s"] for p in passes)
        per_pass = [tracing.layer_metrics(path) for path in span_files]
        for name in per_pass[0]:
            value = statistics.fmean(m[name] for m in per_pass)
            result["metrics"][name] = {"value": value,
                                       "unit": tracing.unit(name)}
        unaccounted = result["metrics"].pop("trace.unaccounted_s")["value"]
        if abs(unaccounted) > 1e-6 * result["metrics"]["trace.verify_s"]["value"]:
            raise BenchError(f"layer self times miss {unaccounted} s")
    else:
        setups += passes
        notes["wall"]["setup_s"] = statistics.median(
            p["setup_wall_s"] for p in setups)
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "verify_s": statistics.median(p["verify_s"] for p in passes),
            "op_median_s": statistics.median(
                statistics.median(op["seconds"] for op in p["ops"])
                for p in passes),
            "op_max_s": statistics.median(
                max(op["seconds"] for op in p["ops"]) for p in passes),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({**notes, "result": result}, fh, indent=2)
    return result, notes


def print_result(workload, result, notes):
    print(json.dumps(notes))
    for name, metric in result["metrics"].items():
        print(f"{workload:13s} {name:38s} {metric['value']:.6g} {metric['unit']}")


def run_all(seed, seconds):
    """Self-test, then every workload untraced and traced."""
    self_test = subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")],
                               cwd=ROOT)
    if self_test.returncode != 0:
        raise BenchError("self-test failed")
    summary = {"stamp": stamp(seed), "workloads": {}}
    for workload in workloads.WORKLOADS:
        plain, notes = run_workload(workload, seed, seconds, trace=False)
        print_result(workload, plain, notes)
        traced, traced_notes = run_workload(workload, seed, seconds, trace=True)
        print_result(workload, traced, traced_notes)
        overhead = (traced_notes["scaled_verify_s"]
                    - plain["metrics"]["verify_s"]["value"])
        print(f"{workload:13s} {'tracing overhead':38s} {overhead:.6g} s")
        summary["workloads"][workload] = {"untraced": plain, "traced": traced,
                                          "tracing_overhead_s": overhead}
    with open(os.path.join(OUT, "results.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def main():
    parser = argparse.ArgumentParser(
        description="lawcheck benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lawcheck", "runner.py")):
        print(f"lawcheck sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            summary = run_all(args.seed, args.seconds)
            ok = all(r[k]["correct"] and not r[k]["failed"]
                     for r in summary["workloads"].values()
                     for k in ("untraced", "traced"))
            return 0 if ok else 1
        result, notes = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_result(args.workload, result, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
