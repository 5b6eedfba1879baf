#!/usr/bin/env bash
# A/A check: run the whole benchmark twice on the same code and seed and
# fail if any end-to-end metric of any workload differs by more than its
# bound, or any exact metric, digest or failed_share differs at all.
#
#   benchmark/aa.sh [SEED]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
for side in 1 2; do
    "$here/run.sh" --seed "$seed" --out-dir "benchmark/out/aa-$side"
done
"$here/run.sh" compare benchmark/out/aa-1/results.json benchmark/out/aa-2/results.json
