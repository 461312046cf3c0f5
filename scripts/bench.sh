#!/usr/bin/env bash
# Run the benchmark harness and collect the machine-readable trajectory.
#
# Every figure suite prints its aligned table and records the same rows
# to BENCH_<suite>.json (see benchmarks/conftest.py); this script pins
# the output directory and forwards any extra pytest arguments, e.g.
#
#   scripts/bench.sh                                  # full harness
#   scripts/bench.sh benchmarks/test_bench_closeness_kernel.py
#   scripts/bench.sh benchmarks/test_bench_sharded.py # sharded Phase 2
#   scripts/bench.sh benchmarks/test_bench_energy.py  # energy + pareto
#   REPRO_BENCH_OUT=out/bench scripts/bench.sh -k comptime
#
# Each BENCH_*.json the run writes also gets one summary line (suite,
# git SHA, UTC time, row count) appended to HISTORY.jsonl in the same
# directory, so the trajectory survives the files being overwritten.
#
# Scenario knobs (REPRO_BENCH_SCALE, REPRO_BENCH_SUBS, REPRO_BENCH_SEED,
# REPRO_BENCH_KERNEL_SUBS, ...) are documented in benchmarks/conftest.py.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_BENCH_OUT="${REPRO_BENCH_OUT:-bench-results}"

targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
    targets=(benchmarks)
fi

mkdir -p "$REPRO_BENCH_OUT"
started=$(mktemp)
trap 'rm -f "$started"' EXIT

status=0
python -m pytest "${targets[@]}" -q -s || status=$?

mapfile -t written < <(
    find "$REPRO_BENCH_OUT" -maxdepth 1 -name 'BENCH_*.json' -newer "$started" | sort
)
if [ ${#written[@]} -gt 0 ]; then
    python - "$REPRO_BENCH_OUT/HISTORY.jsonl" "${written[@]}" <<'PY'
import json
import sys
from datetime import datetime, timezone

history, paths = sys.argv[1], sys.argv[2:]
stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
with open(history, "a", encoding="utf-8") as out:
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        line = {
            "suite": payload.get("suite"),
            "git_sha": payload.get("provenance", {}).get("git_sha", "unknown"),
            "utc": stamp,
            "rows": len(payload.get("rows", [])),
        }
        out.write(json.dumps(line, sort_keys=True) + "\n")
PY
fi

echo "== bench trajectory =="
ls -l "$REPRO_BENCH_OUT"/BENCH_*.json 2>/dev/null \
    || echo "no BENCH_*.json written (no recording suite ran)"
exit "$status"
