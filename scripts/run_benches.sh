#!/usr/bin/env bash
# Run every bench with telemetry enabled and collect the JSON run reports
# under bench/reports/BENCH_<id>.json. These are the repo's perf-trajectory
# artifacts (schema: gcdr.bench.report/v1, see DESIGN.md "Telemetry").
# Every run also appends one gcdr.bench.ledger/v1 record to
# bench/reports/ledger.jsonl — the persistent history that
# scripts/perf_history.py trends and gates on.
#
# Usage:
#   scripts/run_benches.sh [build-dir] [reports-dir] [threads]
#
# Defaults: build-dir = build, reports-dir = bench/reports, threads = 1
# (serial; sweep results are bit-identical for every thread count, so
# threads only changes wall time). threads = 0 means one lane per hardware
# thread. GCDR_BENCH_THREADS overrides the default when the positional
# argument is omitted. The build tree is configured/compiled if needed.
# Pass a different build dir to collect reports from e.g. a sanitizer
# build (cmake -DGCDR_SANITIZE=address).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
reports_dir="${2:-$repo_root/bench/reports}"
threads="${3:-${GCDR_BENCH_THREADS:-1}}"

# Stamp every ledger record with the sha actually checked out; the
# compile-time fallback can be stale after an incremental rebuild.
if [[ -z "${GCDR_GIT_SHA:-}" ]]; then
    GCDR_GIT_SHA="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
    export GCDR_GIT_SHA
fi
ledger="$reports_dir/ledger.jsonl"

if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"

mkdir -p "$reports_dir"

# Instrumented benches: each accepts --quiet --json <path> --threads N
# (bench::Options in bench_common.hpp). Extend this list as more benches
# adopt RunReport.
benches=(
    kernel_perf
    trace_overhead
    fig10_ber_freqoff
    fig13_tau_sweep
    fig17_ber_improved
    xval_ber
    ftol_scan
    serve
)

failed=0
for id in "${benches[@]}"; do
    bin="$build_dir/bench/bench_$id"
    if [[ ! -x "$bin" ]]; then
        echo "skip: $bin not built" >&2
        continue
    fi
    out="$reports_dir/BENCH_$id.json"
    echo "== bench_$id -> $out (threads=$threads)"
    if ! "$bin" --quiet --json "$out" --threads "$threads" \
            --ledger "$ledger"; then
        echo "FAILED: bench_$id" >&2
        failed=1
    fi
done

# The batched-oracle cross-validation rides the same ledger under its
# own config key ("--batch --channels 8" via RunReport::set_config), so
# perf_history.py trends the batched margin path separately from the
# scalar oracle. Counters are bit-identical to the scalar run by the
# lane-identity contract (CI diffs them); only the throughput gauges
# differ.
bin="$build_dir/bench/bench_xval_ber"
if [[ -x "$bin" ]]; then
    out="$reports_dir/BENCH_xval_ber_batch.json"
    echo "== bench_xval_ber --batch -> $out (threads=$threads)"
    if ! "$bin" --quiet --json "$out" --threads "$threads" \
            --batch --channels 8 --ledger "$ledger"; then
        echo "FAILED: bench_xval_ber --batch" >&2
        failed=1
    fi
fi

# Declarative scenarios: every committed config under scenarios/ runs
# through bench_scenario with the same telemetry plumbing (Fig 8, Fig 9
# and the architecture comparison exist only as scenarios). Reports land
# as BENCH_scenario_<name>.json and the ledger records carry the
# scenario file + canonical config hash, so perf_history.py trends each
# scenario under its own "--scenario <name>#<hash>" config key and a
# changed file never pollutes its predecessor's series.
scenarios_dir="$repo_root/scenarios"
bin="$build_dir/bench/bench_scenario"
if [[ -x "$bin" && -d "$scenarios_dir" ]]; then
    for scn in "$scenarios_dir"/*.json; do
        [[ -e "$scn" ]] || continue
        name="$(basename "$scn" .json)"
        out="$reports_dir/BENCH_scenario_$name.json"
        echo "== bench_scenario $name -> $out (threads=$threads)"
        if ! "$bin" --scenario "$scn" --check --quiet --json "$out" \
                --threads "$threads" --ledger "$ledger"; then
            echo "FAILED: bench_scenario $name" >&2
            failed=1
        fi
    done
fi

# The perf-gate baselines live at the repo root as well, so a perf PR
# diff (scripts/bench_diff.py) can reference them without digging into
# bench/reports/. Keep the two copies identical.
for id in kernel_perf trace_overhead serve; do
    if [[ -f "$reports_dir/BENCH_$id.json" ]]; then
        cp "$reports_dir/BENCH_$id.json" "$repo_root/BENCH_$id.json"
        echo "canonical copy: BENCH_$id.json -> $repo_root"
    fi
done

echo
echo "reports in $reports_dir:"
ls -l "$reports_dir"

# Trend table over the accumulated run history (informational here; CI
# gates with --check on a same-runner ledger).
if [[ -f "$ledger" ]]; then
    echo
    python3 "$repo_root/scripts/perf_history.py" "$ledger" || true
fi
exit "$failed"
