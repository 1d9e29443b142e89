#!/usr/bin/env python3
"""Run the end-to-end benchmark: build it if needed, run workloads, print metrics.

Usage (from the repository root):
    python3 bench/e2e/run.py [--workload W ...] [--seed N] [--seconds S]
                             [--trace 0|1] [--threads N] [--check]
                             [--report PATH]

Builds build-e2e/bench_e2e (a standalone Release project, bench/e2e/
CMakeLists.txt) when it is missing or older than a source file, then runs
one process per workload. For each workload it prints one
"workload metric value unit" line per metric: with --trace 0 (the
default) the end-to-end metrics of BENCHMARK.json and those of the
workload alone (compare.WORKLOAD_METRICS), with --trace 1 the per-layer
metrics. The traced run also writes build-e2e/trace/<workload>.trace.json
(Chrome trace) and <workload>.layers.json, and prints the layer table on
stderr.

With exactly one workload the last stdout line is one JSON object whose
metrics are exactly BENCHMARK.json's end-to-end (or per-layer) list:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--report PATH writes a gcdr.e2e.report/v1 document (provenance, per-metric
median and quartiles, layer rows, result digests) that compare.py reads.

Exit codes: 0 ran (check "correct"); 1 a workload failed to run, or
--check and an operation failed; 2 bad invocation or missing sources.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from compare import WORKLOAD_METRICS, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
SOURCE_DIRS = [os.path.join(ROOT, "src"), HERE]
WORKLOADS = ["statmodel_sweep", "lane_sim", "rare_event", "serve_mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def newest_source_mtime():
    newest = 0.0
    for top in SOURCE_DIRS:
        for dirpath, _, files in os.walk(top):
            for name in files:
                if name.endswith((".cpp", ".hpp", ".txt")):
                    newest = max(newest,
                                 os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def ensure_built():
    """Configure and build build-e2e when the binary is missing or stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found next to bench/e2e")
        return False
    if (os.path.isfile(BINARY)
            and os.path.getmtime(BINARY) >= newest_source_mtime()):
        return True
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        log("run.py: " + " ".join(cmd))
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed")
            return False
    return True


def run_workload(args, workload):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--threads", str(args.threads),
           "--work-dir", os.path.join(BUILD, "work")]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, "trace")]
    for sub in ("work", "trace"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: {workload} exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def summarize(run, spec, traced):
    """Metric name -> {"value", "unit", plus sample stats} for one run.

    Untraced: the end-to-end metrics of BENCHMARK.json, then the metrics
    of this workload alone (compare.WORKLOAD_METRICS)."""
    out = {}
    if traced:
        for m in spec["per_layer"]:
            out[m["name"]] = {"value": run["layers"][m["name"]],
                              "unit": m["unit"]}
        return out
    for m in spec["end_to_end"] + WORKLOAD_METRICS.get(run["workload"], []):
        samples = run["per_rep"].get(m["name"])
        if samples is None:
            out[m["name"]] = {"value": run[m["name"]], "unit": m["unit"]}
            continue
        # Per-rep samples: the metric is their median.
        q1, med, q3 = quartiles(samples)
        out[m["name"]] = {"value": med, "unit": m["unit"],
                          "q1": q1, "q3": q3, "n": len(samples)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: all four")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int,
                    default=min(4, os.cpu_count() or 1))
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--report")
    args = ap.parse_args()

    if not ensure_built():
        return 2 if not os.path.isdir(os.path.join(ROOT, "src")) else 1
    spec = load_benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = args.workload or WORKLOADS

    results = {}
    attempted = failed = 0
    ran_all = True
    for w in workloads:
        run = run_workload(args, w)
        if run is None:
            ran_all = False
            continue
        metrics = summarize(run, spec, bool(args.trace))
        results[w] = {"run": run, "metrics": metrics}
        attempted += run["attempted"]
        failed += run["failed"]
        for name, m in metrics.items():
            print(f"{w} {name} {m['value']!r} {m['unit']}", flush=True)

    if args.report:
        report = {
            "schema": "gcdr.e2e.report/v1",
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "trace": args.trace,
            "seed": args.seed,
            "seconds": args.seconds,
            "threads": args.threads,
            "workloads": {
                w: {
                    "provenance": {k: r["run"][k] for k in (
                        "git_sha", "compiler", "build_type", "threads",
                        "seed", "reps", "measured_ops")},
                    "attempted": r["run"]["attempted"],
                    "failed": r["run"]["failed"],
                    "metrics": r["metrics"],
                    "digests": r["run"]["digests"],
                    "layers": r["run"].get("layers", {}),
                } for w, r in results.items()
            },
        }
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        log(f"run.py: report written to {args.report}")

    if not ran_all:
        return 1
    if len(workloads) == 1:
        (r,) = results.values()
        names = [m["name"] for m in
                 spec["per_layer" if args.trace else "end_to_end"]]
        print(json.dumps({
            "correct": r["run"]["failed"] == 0,
            "attempted": r["run"]["attempted"],
            "failed": r["run"]["failed"],
            "metrics": {k: {"value": r["metrics"][k]["value"],
                            "unit": r["metrics"][k]["unit"]}
                        for k in names},
        }), flush=True)
    if args.check and failed:
        log(f"run.py: {failed} of {attempted} operations failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
