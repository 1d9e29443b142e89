#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark reports (gcdr.e2e.report/v1).

Usage:
    compare.py --a A1.json A2.json ... --b B1.json B2.json ...
               [--same-code] [--benchmark BENCHMARK.json]

Every report is one untraced run.py --report output, of one workload or
several; a set is several runs. The gated metrics of a workload are the
end-to-end metrics of BENCHMARK.json, which every workload reports, plus
the workload's own entries in WORKLOAD_METRICS (metrics only one workload
has; BENCHMARK.json cannot hold them, because there every end-to-end
metric comes from every workload's run). For each (workload, metric) the
comparator prints each set's median and quartiles over its runs and
judges them against the metric's allowance: its bound (a share of set
A's median) or its absolute floor in FLOORS, whichever is larger.

  --same-code   A and B ran the same code. Pass when the medians differ by
                at most the allowance, either way, and each set's quartile
                distance is within the allowance of its own median.
  default       A is the parent, B the change. Pairs are (A[i], B[i]) in
                the order given; run them alternating. Verdicts:
                  regression  B worse than A by more than the allowance
                  unresolved  either set's quartile distance wider than
                              the allowance, and not every B run beats
                              every A run
                  gain        >= 10 pairs, B wins >= 9/10 of them (ties
                              count for neither) and the medians differ by
                              more than A's quartile distance
                  same        none of the above
                A rise of failed/attempted from A to B is flagged.

Result digests are compared per seed: a seed whose runs (in either set)
gave different digests is printed, but never gates, because a change to
the model may move them on purpose.

Exit codes: 0 no regression / sets agree; 1 regression, fail ratio rise,
or disagreement under --same-code; 2 bad invocation or unreadable report.
"""

import argparse
import json
import os
import statistics
import sys

SCHEMA = "gcdr.e2e.report/v1"
MIN_PAIRS = 10
WIN_SHARE = 0.9
# Metrics of one workload. Their bound is that of wall_s: each is a
# timing of the same closed loop.
WORKLOAD_METRICS = {
    "serve_mixed": [
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "hit_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "miss_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}
# Absolute allowances, in the metric's unit, below which a bound's share
# is not applied: a sub-millisecond setup or cache read moves by more than
# a share of itself with the scheduler alone.
FLOORS = {"setup_s": 0.005, "hit_p50_ms": 0.02}
DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json")


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} document")
    if doc.get("trace"):
        raise ValueError(f"{path}: a traced run; compare untraced reports")
    return doc


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def allowance(metric, a_med):
    """How far a metric may move from set A's median `a_med`."""
    return max(metric["bound"] * abs(a_med), FLOORS.get(metric["name"], 0.0))


def gated_metrics(spec, workload):
    return spec["end_to_end"] + WORKLOAD_METRICS.get(workload, [])


def with_workload(reports, workload):
    """The reports that ran `workload` (a run may cover a subset)."""
    return [r for r in reports if workload in r["workloads"]]


def values_of(reports, workload, metric):
    return [r["workloads"][workload]["metrics"][metric]["value"]
            for r in with_workload(reports, workload)
            if metric in r["workloads"][workload]["metrics"]]


def worse_by(a_med, b_med, better):
    """How much worse B's median is than A's, in the metric's unit."""
    return b_med - a_med if better == "lower" else a_med - b_med


def b_beats_a(a, b, better):
    return b < a if better == "lower" else b > a


def judge(a, b, metric, same_code):
    """One row: medians, quartiles, verdict for one (workload, metric)."""
    better = metric["better"]
    qa, qb = quartiles(a), quartiles(b)
    allowed = allowance(metric, qa[1])
    worse = worse_by(qa[1], qb[1], better)
    share = (lambda x: x / qa[1]) if qa[1] else (lambda x: 0.0)
    row = {"a": qa, "b": qb, "worse": share(worse), "allowed": share(allowed)}
    wide = (qa[2] - qa[0] > allowed
            or qb[2] - qb[0] > allowance(metric, qb[1]))
    if same_code:
        agree = abs(worse) <= allowed and not wide
        row["verdict"] = "agree" if agree else "DISAGREE"
        return row
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if b_beats_a(x, y, better))
    row["pairs"], row["wins"] = len(pairs), wins
    all_better = all(b_beats_a(x, y, better) for x in a for y in b)
    if wide and not all_better:
        row["verdict"] = "unresolved"
    elif worse > allowed:
        row["verdict"] = "REGRESSION"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
        row["verdict"] = "gain"
    else:
        row["verdict"] = "same"
    return row


def fail_ratio(reports, workload):
    att = sum(r["workloads"][workload]["attempted"] for r in reports)
    bad = sum(r["workloads"][workload]["failed"] for r in reports)
    return bad / att if att else 0.0


def digests_by_seed(reports, workload, seen=None):
    """{digest name: {seed: set of values}}; a digest depends on the seed."""
    seen = {} if seen is None else seen
    for r in reports:
        for name, value in r["workloads"][workload].get("digests", {}).items():
            seen.setdefault(name, {}).setdefault(r["seed"], set()).add(value)
    return seen


def compare(a_reports, b_reports, spec, same_code, out=None):
    """Print the comparison to `out` (stdout); True when nothing gates."""
    out = out or sys.stdout
    ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':16} {'metric':12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B vs A':>8} {'allowed':>10}  "
          "verdict", file=out)
    for w in workloads:
        a_w, b_w = with_workload(a_reports, w), with_workload(b_reports, w)
        if not a_w or not b_w:
            continue
        for metric in gated_metrics(spec, w):
            a = values_of(a_w, w, metric["name"])
            b = values_of(b_w, w, metric["name"])
            if not a or not b:
                continue
            row = judge(a, b, metric, same_code)
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            extra = ""
            if not same_code:
                extra = f" ({row['wins']}/{row['pairs']} pairs won)"
            print(f"{w:16} {metric['name']:12} {fmt(row['a']):>34} "
                  f"{fmt(row['b']):>34} {row['worse']:+8.2%} "
                  f"{row['allowed']:10.1%}  {row['verdict']}{extra}",
                  file=out)
            if row["verdict"] in ("DISAGREE", "REGRESSION"):
                ok = False
        fa, fb = fail_ratio(a_w, w), fail_ratio(b_w, w)
        if fb > fa:
            print(f"{w:16} fail ratio rose from {fa:.3g} to {fb:.3g}",
                  file=out)
            ok = False
        seen = digests_by_seed(b_w, w, digests_by_seed(a_w, w))
        for name, by_seed in sorted(seen.items()):
            moved = {s: sorted(v) for s, v in by_seed.items() if len(v) > 1}
            if moved:
                print(f"{w:16} {name} differs for seed(s) {moved} "
                      "(informational)", file=out)
            else:
                print(f"{w:16} {name} identical across runs of "
                      f"{len(by_seed)} seed(s)", file=out)
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", nargs="+", required=True, help="set A reports")
    ap.add_argument("--b", nargs="+", required=True, help="set B reports")
    ap.add_argument("--same-code", action="store_true")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args(argv)
    try:
        with open(args.benchmark) as f:
            spec = json.load(f)
        a = [load_report(p) for p in args.a]
        b = [load_report(p) for p in args.b]
    except (OSError, ValueError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    mode = "same code" if args.same_code else "parent (A) vs change (B)"
    print(f"# {mode}: {len(a)} run(s) in A, {len(b)} run(s) in B")
    return 0 if compare(a, b, spec, args.same_code) else 1


if __name__ == "__main__":
    sys.exit(main())
