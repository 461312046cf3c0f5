"""Regenerate the simulated rows the output checks compare against.

    python3 perfbench/regen.py --seeds 2011 1 2 3 --workload plan-het

Run from the repository root.  For each workload (default: all) and
seed (default: 2011) this runs one untraced pass and stores its rows in
``perfbench/expected.json``, keeping the rows of other seeds.  A pass
with a failed check stores nothing and makes the exit code 1.  Only
regenerate when a change is meant to alter simulated behaviour; a
change that only speeds the program up must reproduce the stored rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (the benchmark entry point, for its bootstrap)


def main() -> int:
    run._bootstrap()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="*", type=int, default=[run.DEFAULT_SEED])
    args = parser.parse_args()

    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    status = 0
    for workload in args.workload:
        for seed in args.seeds:
            result, _tracer = run.run_pass(workload, seed, traced=False)
            if result.problems:
                for label, message in result.problems:
                    print(f"{workload} seed {seed}: [{label}] {message}",
                          file=sys.stderr)
                status = 1
                continue
            expected.setdefault(workload, {})[str(seed)] = result.rows
            print(f"{workload} seed {seed}: {len(result.rows)} rows")
    ordered = {
        workload: dict(sorted(rows.items(), key=lambda item: int(item[0])))
        for workload, rows in sorted(expected.items())
    }
    run.EXPECTED.write_text(json.dumps(ordered, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
