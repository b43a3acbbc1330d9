"""Run the benchmark on every workload, untraced and traced, and write
the figures to one BENCH_<label>.json at the repository root.

    python scripts/bench.py --label L [--seed N]

Each of the six runs is `perfbench/run.py --workload W --seed N
--trace 0|1`, run from the repository root; its record is read back
from .perfbench/results/. For each workload the file holds the
end-to-end metrics (untraced run), the per-layer metrics (traced run),
`correct`, `attempted` and `failed` over both runs, and the conditions
of each run. When any run is marked busy or is not correct, nothing is
written and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-offline", "track-easy", "checks")


def run_workload(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in its own process; returns the record it wrote."""
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)  # never read a record an earlier run left
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    return json.loads(record.read_text())


def assemble(records: dict[str, list[dict]]) -> tuple[dict, list[str]]:
    """The per-workload figures of each workload's untraced and traced
    records, and the reasons they must not be written."""
    refusals = []
    workloads = {}
    for workload, runs in records.items():
        entry = {"end_to_end": {}, "per_layer": {}, "correct": True,
                 "attempted": 0, "failed": 0, "conditions": {}}
        for rec in runs:
            run = f"trace{int(rec['trace'])}"
            result, env = rec["result"], rec["conditions"]
            if env["busy"]:
                refusals.append(f"{workload} {run}: busy, load average "
                                f"{env['load1_start']:.2f} on {env['nproc']} CPUs")
            if not result["correct"]:
                refusals.append(f"{workload} {run}: not correct: {rec['problems']}")
            entry["per_layer" if rec["trace"] else "end_to_end"].update(result["metrics"])
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["conditions"][run] = env
        workloads[workload] = entry
    return workloads, refusals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error(f"--label {args.label!r}: use letters, digits, '.', '_' and '-'")
    records = {w: [run_workload(w, args.seed, trace) for trace in (0, 1)] for w in WORKLOADS}
    workloads, refusals = assemble(records)
    if refusals:
        for reason in refusals:
            print(f"bench: {reason}", file=sys.stderr)
        print("bench: nothing written", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.label}.json"
    doc = {"label": args.label, "seed": args.seed, "workloads": workloads}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
