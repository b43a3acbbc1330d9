"""Run one slowtrack benchmark workload and print its result.

    python3 perfbench/run.py --workload train-offline --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics from spans
with --trace 1. The line before it records the run conditions. Both,
and the spans of a traced run, are also written under .perfbench/.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: two threads on two CPUs
# spread the figures wider than the bounds allow.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until they fill a second


def _import_program():
    """Import slowtrack from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import slowtrack
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import slowtrack from {src}: {exc}")
    if src not in Path(slowtrack.__file__).resolve().parents:
        sys.exit(f"perfbench: slowtrack comes from {slowtrack.__file__}, not {src}")


def blas_info() -> dict:
    """BLAS library and the thread count it reports, when it can be asked."""
    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                info["blas_threads"] = getattr(lib, sym)()
                return info
    return info


def conditions() -> dict:
    import numpy as np

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "load1_start": load1,
        # One earlier single-threaded run adds up to 1.0 to the average.
        "busy": load1 > nproc - 0.5,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        size=None, out: Path = OUT) -> dict:
    """Set up, measure whole rounds for `seconds`, check; returns the
    record (result plus run conditions). `size` replaces the workload's
    full-size inputs, as the tests do."""
    import tracing
    import workloads
    from speed import SpeedProbe

    cls = workloads.WORKLOADS[workload]
    wl = cls(seed) if size is None else cls(seed, size)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = out / "work" / tag
    env = conditions()
    if env["busy"]:
        print(f"perfbench: load average {env['load1_start']:.2f} on {env['nproc']} CPUs; "
              "another job may be running, so this run is marked busy", file=sys.stderr)

    tracer = tracing.Tracer(run_id=f"{tag}-{time.time_ns()}")
    setups, rounds, problems = [], [], []
    with SpeedProbe() as probe:
        while len(setups) < SETUP_REPEATS or (sum(e - s for s, e in setups) < 1.0
                                              and len(setups) < 15):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            wl.setup(workdir)
            setups.append((t0, time.perf_counter()))

        restore = tracing.instrument(tracer) if trace else (lambda: None)
        try:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                tracer.active = trace
                with tracer.span("bench.round"):
                    rounds.append(wl.run_round())
                tracer.active = False
                problems += wl.check(rounds[-1])
                rounds[-1].outputs = []
        finally:
            restore()
            shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    windows = [w for r in rounds for w in r.windows]
    work = sum(r.work for r in rounds)
    work_per_s = work / sum(probe.scaled(*w) for w in windows)
    if trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["tracing.work_per_s"] = (work_per_s, "1/s")
    else:
        metrics = {
            "setup_s": (statistics.median(probe.scaled(*w) for w in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "work_per_s": (work_per_s, "1/s"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env["load1_end"] = os.getloadavg()[0]
    env["rounds"] = len(rounds)
    # The same figures unscaled, and the probe's own times.
    env["wall_work_per_s"] = work / sum(e - s for s, e in windows)
    env["wall_setup_s"] = statistics.median(e - s for s, e in setups)
    env["probe_ms"] = probe.mean_ms()
    env["probes"] = len(probe.samples)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "conditions": env, "problems": problems,
              "notes": getattr(wl, "notes", []), "result": result}
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.save(results / f"{tag}-spans.npz")
    return record


WORKLOADS = ("train-offline", "track-easy", "checks")


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS;
    prints every metric by name with its unit, and the operations."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        results[workload] = result
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_program()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for note in record["notes"]:
        print(f"perfbench: note: {note}", file=sys.stderr)
    print(json.dumps({"conditions": record["conditions"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
