"""Tracing overhead: untraced against traced end-to-end rate.

    python3 perfbench/run.py --workload checks --seed 0 --trace 0
    python3 perfbench/run.py --workload checks --seed 0 --trace 1
    python3 perfbench/overhead.py

For every workload and seed with both records under .perfbench/results,
prints work_per_s from the untraced run, tracing.work_per_s from the
traced one, and the share of the untraced rate that tracing cost.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench" / "results"


def main() -> int:
    rows = 0
    for plain in sorted(RESULTS.glob("*-trace0.json")):
        traced = plain.with_name(plain.name.replace("-trace0", "-trace1"))
        if not traced.exists():
            continue
        base = json.loads(plain.read_text())["result"]["metrics"]["work_per_s"]["value"]
        rate = json.loads(traced.read_text())["result"]["metrics"]["tracing.work_per_s"]["value"]
        name = plain.name.removesuffix("-trace0.json")
        print(f"{name}: untraced {base:.6g}/s, traced {rate:.6g}/s, "
              f"overhead {100 * (base - rate) / base:.1f}%")
        rows += 1
    if not rows:
        print(f"no pair of traced and untraced records under {RESULTS}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
