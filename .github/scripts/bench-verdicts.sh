#!/usr/bin/env bash
# Runs perfbench/run.py on all four workloads with the options given and
# fails unless every run's outputs match the golden digests. run.py exits 0
# on a digest mismatch, so the verdict (its last output line, one JSON
# object) is read instead. Example, from the repository root:
#   bash .github/scripts/bench-verdicts.sh --seed 1 --trace 1
set -eo pipefail
for workload in batch-ref large-flock simulate-trace plan-sweep; do
  python3 perfbench/run.py --workload "$workload" "$@" | tail -n 1 \
    | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); print(sys.argv[1], r["correct"], r["failed"]); sys.exit(r["correct"] is not True)' "$workload"
done
