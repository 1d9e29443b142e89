#!/usr/bin/env python3
"""Compare two gcdr.bench.report/v1 JSON reports.

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json [--min-ratio METRIC=X ...]
                  [--min-cross-ratio CAND_METRIC/BASE_METRIC=X ...]
                  [--require-identical-counters] [--ignore-missing]
                  [--require-spans]

Prints a side-by-side diff of wall time, counters and gauges, plus derived
event throughput (<prefix>.events_per_s from <prefix>.events_executed /
<prefix>.wall_seconds) for every scheduler prefix present in both reports.

Exit codes:
    0  reports compared (and all --min-ratio / identity constraints hold)
    1  a constraint failed
    2  bad invocation or unreadable/invalid report

--min-ratio METRIC=X fails the run unless candidate/baseline >= X for the
named gauge or derived metric (e.g. --min-ratio cdr_sim.events_per_s=1.5).
Counters compare for identity only; with --require-identical-counters any
counter difference is an error (the repo's seeded workloads must stay
bit-identical across kernel changes).

--min-cross-ratio CAND_METRIC/BASE_METRIC=X compares *different* metrics
across the two reports: candidate[CAND_METRIC] / baseline[BASE_METRIC]
must be >= X. This is the speedup-gate shape. Pass the same report on
both sides to gate a same-run ratio (machine speed cancels exactly), e.g.
the batched 16-channel kernel against the scalar kernel on the same lanes:
    bench_diff.py R.json R.json --min-cross-ratio \\
      kernel_perf.batch.ch16.events_per_s/kernel_perf.scalar.ch16.events_per_s=4.0

A metric present in only one report fails the comparison with a per-key
message naming the report it is missing from (a renamed or dropped metric
is a real schema change, not noise). Pass --ignore-missing to downgrade
those to informational notes — useful when diffing across revisions that
legitimately added instrumentation.

Span profiles ("spans", from bench --trace) are optional: a report
without them gets a clear note naming the side and how to collect them,
and the comparison still succeeds. Pass --require-spans to instead fail
when either report lacks a span profile (for workflows that gate on the
span summary being present).
"""

import argparse
import json
import sys

SCHEMA = "gcdr.bench.report/v1"


def load_report(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: schema {doc.get('schema')!r}, want {SCHEMA!r}")
    return doc


def derived_events_per_s(metrics):
    """<prefix>.events_per_s for every <prefix>.events_executed counter
    with a matching <prefix>.wall_seconds gauge."""
    out = {}
    gauges = metrics.get("gauges", {})
    for name, count in metrics.get("counters", {}).items():
        if not name.endswith(".events_executed"):
            continue
        prefix = name[: -len(".events_executed")]
        wall = gauges.get(prefix + ".wall_seconds")
        if wall:
            out[prefix + ".events_per_s"] = count / wall
    return out


def fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--min-ratio",
        action="append",
        default=[],
        metavar="METRIC=X",
        help="fail unless candidate/baseline >= X for this gauge or "
        "derived metric; repeatable",
    )
    ap.add_argument(
        "--min-cross-ratio",
        action="append",
        default=[],
        metavar="CAND_METRIC/BASE_METRIC=X",
        help="fail unless candidate[CAND_METRIC] / baseline[BASE_METRIC] "
        ">= X; repeatable",
    )
    ap.add_argument(
        "--require-identical-counters",
        action="store_true",
        help="fail on any counter difference",
    )
    ap.add_argument(
        "--ignore-missing",
        action="store_true",
        help="report metrics present in only one report as notes instead "
        "of failures",
    )
    ap.add_argument(
        "--require-spans",
        action="store_true",
        help="fail when either report has no span profile (default: a "
        "missing 'spans' object is an informational note)",
    )
    args = ap.parse_args()

    constraints = {}
    for spec in args.min_ratio:
        metric, _, threshold = spec.partition("=")
        try:
            constraints[metric] = float(threshold)
        except ValueError:
            sys.exit(f"error: bad --min-ratio {spec!r} (want METRIC=X)")

    cross_constraints = []
    for spec in args.min_cross_ratio:
        pair, _, threshold = spec.partition("=")
        cand_metric, slash, base_metric = pair.partition("/")
        try:
            want = float(threshold)
        except ValueError:
            want = None
        if not slash or not cand_metric or not base_metric or want is None:
            sys.exit(f"error: bad --min-cross-ratio {spec!r} "
                     "(want CAND_METRIC/BASE_METRIC=X)")
        cross_constraints.append((cand_metric, base_metric, want))

    base = load_report(args.baseline)
    cand = load_report(args.candidate)
    bm, cm = base["metrics"], cand["metrics"]

    print(f"baseline:  {args.baseline}  ({base.get('bench')})")
    print(f"candidate: {args.candidate}  ({cand.get('bench')})")
    print(f"wall_seconds: {fmt(base.get('wall_seconds'))} -> "
          f"{fmt(cand.get('wall_seconds'))}")

    failures = []

    def note_missing(kind, name, b, c):
        """Per-key message for a metric present in only one report."""
        side = "baseline" if b is None else "candidate"
        msg = f"{kind} {name}: missing from {side} report"
        if args.ignore_missing:
            print(f"  note: {msg}")
        else:
            failures.append(msg)

    counter_diffs = []
    for name in sorted(set(bm.get("counters", {})) | set(cm.get("counters", {}))):
        b = bm.get("counters", {}).get(name)
        c = cm.get("counters", {}).get(name)
        if b != c:
            counter_diffs.append((name, b, c))
    print(f"\ncounters: {'identical' if not counter_diffs else 'DIFFER'}")
    for name, b, c in counter_diffs:
        print(f"  {name}: {fmt(b)} -> {fmt(c)}")
        if b is None or c is None:
            note_missing("counter", name, b, c)
    if counter_diffs and args.require_identical_counters:
        failures.append("counters differ")

    b_gauges = dict(bm.get("gauges", {}))
    c_gauges = dict(cm.get("gauges", {}))
    b_gauges.update(derived_events_per_s(bm))
    c_gauges.update(derived_events_per_s(cm))

    print("\ngauges (baseline -> candidate, ratio):")
    for name in sorted(set(b_gauges) | set(c_gauges)):
        b, c = b_gauges.get(name), c_gauges.get(name)
        if b is None or c is None:
            print(f"  {name}: {fmt(b)} -> {fmt(c)}  (only in one report)")
            note_missing("gauge", name, b, c)
            continue
        ratio = c / b if b else float("inf")
        print(f"  {name}: {fmt(b)} -> {fmt(c)}  (x{ratio:.3f})")

    # Span profiles (bench --trace) ride along as a top-level "spans"
    # object; wall-clock data, so informational only — unless
    # --require-spans insists both sides were traced.
    b_spans = base.get("spans")
    c_spans = cand.get("spans")
    missing_spans = [
        name
        for name, spans in (("baseline", b_spans), ("candidate", c_spans))
        if not isinstance(spans, dict) or not spans
    ]
    if missing_spans:
        sides = " and ".join(missing_spans)
        msg = (f"no span profile in {sides} report(s) — re-run the bench "
               "with --trace FILE to collect one")
        if args.require_spans:
            failures.append(msg)
        else:
            print(f"\nspans: {msg}; skipping span comparison")
    b_spans = b_spans if isinstance(b_spans, dict) else {}
    c_spans = c_spans if isinstance(c_spans, dict) else {}
    if b_spans or c_spans:
        deltas = []
        for name in set(b_spans) | set(c_spans):
            bt = b_spans.get(name, {}).get("total_seconds", 0.0)
            ct = c_spans.get(name, {}).get("total_seconds", 0.0)
            deltas.append((ct - bt, ct, bt, name))
        deltas.sort(key=lambda d: (-abs(d[0]), d[3]))
        print("\nspans, top 5 by |total_seconds delta| "
              "(baseline -> candidate, informational):")
        for delta, ct, bt, name in deltas[:5]:
            ratio = ct / bt if bt else float("inf")
            print(f"  {name}: {fmt(bt)}s -> {fmt(ct)}s  "
                  f"(delta {delta:+.6g}s, x{ratio:.3f})")
        if len(deltas) > 5:
            print(f"  ... {len(deltas) - 5} more span(s) not shown")

    for metric, want in constraints.items():
        b, c = b_gauges.get(metric), c_gauges.get(metric)
        if b is None or c is None:
            side = "candidate" if b is not None else (
                "baseline" if c is not None else "both")
            failures.append(
                f"{metric}: --min-ratio metric missing from {side} "
                "report(s)")
            continue
        ratio = c / b if b else float("inf")
        if ratio < want:
            failures.append(f"{metric}: ratio {ratio:.3f} < required {want}")

    for cand_metric, base_metric, want in cross_constraints:
        c = c_gauges.get(cand_metric)
        b = b_gauges.get(base_metric)
        if c is None:
            failures.append(f"{cand_metric}: --min-cross-ratio metric "
                            "missing from candidate report")
            continue
        if b is None:
            failures.append(f"{base_metric}: --min-cross-ratio metric "
                            "missing from baseline report")
            continue
        ratio = c / b if b else float("inf")
        print(f"\ncross-ratio {cand_metric} / {base_metric}: "
              f"{fmt(c)} / {fmt(b)} = {ratio:.3f} (require >= {want})")
        if ratio < want:
            failures.append(
                f"{cand_metric}/{base_metric}: cross-ratio {ratio:.3f} "
                f"< required {want}")

    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
