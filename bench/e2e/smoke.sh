#!/usr/bin/env bash
# Quick check of the end-to-end benchmark, under a minute once the build
# tree exists: builds bench/e2e into build-e2e, runs every workload at
# --smoke size with --check at --threads 1 and (traced) at --threads 4,
# requires identical result digests across the two, then runs the
# comparator self-test.
#
#   bash bench/e2e/smoke.sh
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-e2e"
jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$build" -j "$jobs" > /dev/null
mkdir -p "$build/work" "$build/trace" "$build/smoke"

digest() {
    python3 -c 'import json, sys
print(json.dumps(json.loads(sys.stdin.read().splitlines()[-1])["digests"]))'
}

for w in statmodel_sweep lane_sim rare_event serve_mixed; do
    one=$("$build/bench_e2e" --workload "$w" --seed 1 --seconds 0 --smoke \
          --check --threads 1 --work-dir "$build/work" \
          2> "$build/smoke/$w-t1.log" | digest)
    four=$("$build/bench_e2e" --workload "$w" --seed 1 --seconds 0 --smoke \
           --check --threads 4 --work-dir "$build/work" \
           --trace "$build/trace" 2> "$build/smoke/$w-t4.log" | digest)
    if [ "$one" != "$four" ]; then
        echo "smoke: $w digests differ: threads 1 $one, threads 4 $four" >&2
        exit 1
    fi
    echo "smoke: $w ok $one"
done

python3 "$here/test_compare.py"
