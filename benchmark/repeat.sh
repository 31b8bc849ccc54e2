#!/usr/bin/env bash
# Repeat harness: two sets of N full passes of the same binary, alternating
# workloads, then a table of how well the end-to-end cells repeat.
# BENCHMARK.json's bounds and REPEATABILITY.md come from its output. Pass i
# runs with --seed i, as the driver's runs each have their own seed; with
# SEED given every pass uses it, which leaves the host as the only source of
# spread.
#
#   bash benchmark/repeat.sh [N [SEED]] > benchmark/REPEATABILITY.md     (N >= 5, default 10)
set -euo pipefail
n="${1:-10}"
seed="${2:-}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
cd "$root"
out=".bench_build/repeat"
rm -rf "$out" && mkdir -p "$out"
workloads=(embed-read embed-write serve-stream serve-json-batch)
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])' 2>/dev/null || echo 10)"
for set in A B; do
  for pass in $(seq 1 "$n"); do
    for w in "${workloads[@]}"; do
      echo "set $set pass $pass $w" >&2
      bash "$here/run.sh" --workload "$w" --seed "${seed:-$pass}" --seconds "$seconds" --trace 0 | tail -n 1 >> "$out/$set.$w.jsonl"
    done
  done
done
python3 "$here/repeat_table.py" "$out" "$n" "$seconds" "${seed:-i}" "${workloads[@]}"
