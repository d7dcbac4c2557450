"""Record the reference answers that the benchmark checks against.

    python3 perfbench/record.py

Runs every op of every workload corpus once and writes reference.json:
``{workload: {instance seed: {op: {key: answer}}}}``.  Check answers
are statuses; query answers are digests of exact results (sorted
generators, exact values).  Instance digests and report details are
left out on purpose, because their encoding may change while the
answer stays the same.  Recording refuses a corpus where any check
fails, since a reference must never pin a falsification.
"""
from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    S = workloads.import_supcalc()
    reference: dict = {}
    for name, build in sorted(workloads.WORKLOADS.items()):
        answers = reference[name] = {}
        for unit in build(S, 0):
            for op in unit:
                got = op.encode(op.fn())
                if "fail" in got.values() or got.get("exit", "0") != "0":
                    print(f"{name} seed {op.seed} {op.name}: {got}", file=sys.stderr)
                    return 1
                answers.setdefault(str(op.seed), {})[op.name] = got
        print(f"{name}: {sum(len(u) for u in answers.values())} ops", file=sys.stderr)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
