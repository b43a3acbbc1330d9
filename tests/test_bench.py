"""Tests for scripts/bench.py on fake benchmark records; no benchmark
run is started."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def fake_record(workload, trace, busy=False, correct=True, failed=0):
    metrics = (
        {"net.self_s": {"value": 1.5, "unit": "s"}} if trace
        else {"work_per_s": {"value": 25.0, "unit": "1/s"},
              "setup_s": {"value": 2.0, "unit": "s"}}
    )
    return {
        "workload": workload, "seed": 0, "seconds": 15, "trace": bool(trace),
        "conditions": {"nproc": 2, "load1_start": 2.4 if busy else 0.1, "busy": busy},
        "problems": [] if correct else ["loss did not halve"],
        "notes": [],
        "result": {"correct": correct, "attempted": 10, "failed": failed,
                   "metrics": metrics},
    }


@pytest.fixture
def fake_runs(monkeypatch, tmp_path):
    """Point the script at tmp_path and replace each run by a fake
    record: `records[(workload, trace)]` overrides one, and `calls`
    lists the runs made."""
    runs = SimpleNamespace(records={}, calls=[])

    def run(workload, seed, trace):
        runs.calls.append((workload, seed, trace))
        return runs.records.get((workload, trace)) or fake_record(workload, trace)

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "run_workload", run)
    return runs


class TestAssemble:
    def test_splits_metrics_by_trace(self):
        records = {"track-easy": [fake_record("track-easy", 0),
                                  fake_record("track-easy", 1, failed=2)]}
        workloads, refusals = bench.assemble(records)
        assert refusals == []
        entry = workloads["track-easy"]
        assert entry["end_to_end"] == {"work_per_s": {"value": 25.0, "unit": "1/s"},
                                       "setup_s": {"value": 2.0, "unit": "s"}}
        assert entry["per_layer"] == {"net.self_s": {"value": 1.5, "unit": "s"}}
        assert (entry["correct"], entry["attempted"], entry["failed"]) == (True, 20, 2)
        assert set(entry["conditions"]) == {"trace0", "trace1"}

    @pytest.mark.parametrize("kwargs, reason", [
        ({"busy": True}, "checks trace1: busy, load average 2.40 on 2 CPUs"),
        ({"correct": False}, "checks trace1: not correct: ['loss did not halve']"),
    ])
    def test_refuses_busy_or_incorrect(self, kwargs, reason):
        records = {"checks": [fake_record("checks", 0), fake_record("checks", 1, **kwargs)]}
        workloads, refusals = bench.assemble(records)
        assert refusals == [reason]
        assert workloads["checks"]["correct"] is kwargs.get("correct", True)


class TestMain:
    def test_writes_every_workload(self, fake_runs, tmp_path, capsys):
        assert bench.main(["--label", "after", "--seed", "2"]) == 0
        doc = json.loads((tmp_path / "BENCH_after.json").read_text())
        assert (doc["label"], doc["seed"]) == ("after", 2)
        assert list(doc["workloads"]) == list(bench.WORKLOADS)
        assert fake_runs.calls == [(w, 2, t) for w in bench.WORKLOADS for t in (0, 1)]
        assert "wrote BENCH_after.json" in capsys.readouterr().out

    @pytest.mark.parametrize("kwargs", [{"busy": True}, {"correct": False}])
    def test_writes_nothing_on_refusal(self, fake_runs, tmp_path, capsys, kwargs):
        fake_runs.records[("track-easy", 0)] = fake_record("track-easy", 0, **kwargs)
        assert bench.main(["--label", "after"]) == 1
        assert not list(tmp_path.iterdir())
        assert "bench: track-easy trace0:" in capsys.readouterr().err

    def test_label_must_be_a_file_name_part(self, fake_runs, tmp_path):
        with pytest.raises(SystemExit) as exc:
            bench.main(["--label", "../x"])
        assert exc.value.code == 2
        assert fake_runs.calls == []
