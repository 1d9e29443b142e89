#!/usr/bin/env bash
# Run every bench with telemetry enabled and collect the JSON run reports
# under bench/reports/BENCH_<id>.json (schema: gcdr.bench.report/v1, see
# DESIGN.md "Telemetry"). Perf comparisons belong to bench/e2e; these
# reports are for counter checks (scripts/bench_diff.py).
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

# Stamp every report with the sha actually checked out; the
# compile-time fallback can be stale after an incremental rebuild.
if [[ -z "${GCDR_GIT_SHA:-}" ]]; then
    GCDR_GIT_SHA="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
    export GCDR_GIT_SHA
fi

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
    fig13_tau_sweep
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
    if ! "$bin" --quiet --json "$out" --threads "$threads"; then
        echo "FAILED: bench_$id" >&2
        failed=1
    fi
done

# Declarative scenarios: every committed config under scenarios/ runs
# through bench_scenario with the same telemetry plumbing (Fig 8, Fig 9,
# Fig 10, Fig 17 and the architecture comparison exist only as
# scenarios). Reports land as BENCH_scenario_<name>.json and carry the
# scenario file + canonical config hash in their "run" object.
scenarios_dir="$repo_root/scenarios"
bin="$build_dir/bench/bench_scenario"
if [[ -x "$bin" && -d "$scenarios_dir" ]]; then
    for scn in "$scenarios_dir"/*.json; do
        [[ -e "$scn" ]] || continue
        name="$(basename "$scn" .json)"
        out="$reports_dir/BENCH_scenario_$name.json"
        echo "== bench_scenario $name -> $out (threads=$threads)"
        if ! "$bin" --scenario "$scn" --check --quiet --json "$out" \
                --threads "$threads"; then
            echo "FAILED: bench_scenario $name" >&2
            failed=1
        fi
    done
fi

echo
echo "reports in $reports_dir:"
ls -l "$reports_dir"
exit "$failed"
