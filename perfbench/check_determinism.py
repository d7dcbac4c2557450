"""Determinism check for the benchmark's traced counts.

    python3 perfbench/check_determinism.py [--workload NAME] [--seed N]

For each workload, runs one traced pass twice with the same seed and
requires every count and ratio (every per-layer metric that is not a
time) to be exactly equal, then runs one untraced pass with another
seed and requires it to finish with no failed op.  The corpus is fixed
and a seed only rotates where a pass starts, so the second seed runs
the same instances in another order: it checks that answers do not
depend on order, not that other inputs run clean.  Exits 1 on any
difference or failure.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workloads.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith("_s") and name != "trace_overhead_ratio"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    ok = True
    for name in names:
        first, second = (_run(name, args.seed, 1) for _ in range(2))
        a, b = _counts(first), _counts(second)
        diff = sorted(k for k in a if a[k] != b.get(k))
        other = _run(name, args.seed + 7, 0)
        clean = all(r["correct"] and r["failed"] == 0 for r in (first, second, other))
        print(f"{name}: {len(a)} counts, {len(diff)} differ"
              f"{' (' + ', '.join(diff) + ')' if diff else ''}; "
              f"seed {args.seed + 7}: {other['attempted']} ops, {other['failed']} failed")
        ok = ok and not diff and clean
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
