#!/usr/bin/env bash
# perfbench smoke: builds the SolveService benchmark (perfbench/, its own
# CMake package over ../src) and runs every workload for 3 s untraced,
# plus box_batch traced. Each run's last output line is a JSON object;
# the step fails unless it reports "correct": true and "failed": 0.
# Catches a solver API change that breaks the benchmark's build or its
# answers before the benchmark itself is run.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  local workload="$1" trace="$2" last
  echo "--- perfbench ${workload} --trace ${trace} ---"
  last="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
    --seconds 3 --trace "${trace}" | tail -n 1)"
  python3 -c '
import json, sys
result = json.loads(sys.argv[1])
ok = result.get("correct") is True and result.get("failed") == 0
print("correct: %s, failed: %s" % (json.dumps(result.get("correct")),
                                    json.dumps(result.get("failed"))))
sys.exit(0 if ok else 1)
' "${last}"
}

for workload in box_cold sphere_warm box_batch; do
  run "${workload}" 0
done
run box_batch 1

echo "ci/perfbench_smoke.sh: OK"
