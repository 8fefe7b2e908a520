#!/usr/bin/env bash
# Writes a run set: every workload of BENCHMARK.json, once per seed, one
# JSON line per run carrying the run's result line, tagged with the seed,
# the host's core count and the git revision of the working tree.
#
# Usage, from the repository root:
#   bash bench_e2e/runset.sh OUT.jsonl [TRACE] [SEED...]
# TRACE is 0 (end-to-end metrics, the default) or 1 (per-layer metrics);
# the seeds default to 1..10. Compare two run sets with
#   cargo run --release --manifest-path bench_e2e/Cargo.toml -- --compare BASE.jsonl NEW.jsonl
set -euo pipefail

out=${1:?usage: runset.sh OUT.jsonl [TRACE] [SEED...]}
trace=${2:-0}
shift $(( $# >= 2 ? 2 : 1 ))
seeds=("$@")
[ ${#seeds[@]} -eq 0 ] && seeds=(1 2 3 4 5 6 7 8 9 10)

field() { python3 -c "import json, sys; b = json.load(open('BENCHMARK.json')); print($1)"; }
read -r -a cmd <<< "$(field '" ".join(b["command"])')"
run_seconds=$(field 'b["run_seconds"]')
workloads=$(field '" ".join(w["name"] for w in b["workloads"])')
rev=$(git describe --always --dirty 2>/dev/null || echo unknown)
cores=$(nproc)

: > "$out"
for w in $workloads; do
    for s in "${seeds[@]}"; do
        result=$("${cmd[@]}" --workload "$w" --seed "$s" --seconds "$run_seconds" --trace "$trace" | tail -n 1)
        printf '{"workload": "%s", "seed": %s, "trace": %s, "host_cores": %s, "rev": "%s", "result": %s}\n' \
            "$w" "$s" "$trace" "$cores" "$rev" "$result" >> "$out"
        echo "runset: $w seed $s done" >&2
    done
done
