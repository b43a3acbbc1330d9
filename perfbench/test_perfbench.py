"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from slowtrack import geometry, net, train, tracker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_TRAIN = workloads.TrainSize(
    T=8, frame=(64, 48), target=16.0, dims=(64, 16, 8, 8, 4, 2), iterations=12,
    window=4, held_out_frames=(2, 5), min_accuracy=0.0,
)
TINY_TRACK = workloads.TrackSize(
    T=5, frame=(96, 72), target=16.0,
    motions=(((1.0, 0.0), (20.0, 20.0)), ((0.0, 1.0), (50.0, 20.0))),
    model_iterations=4, train=TINY_TRAIN, min_auc=0.0,
    tracker=tracker.TrackerConfig(
        m=30, top_k=3, update_period=2, update_score_threshold=0.0,
        init_train=train.TrainConfig(iterations=3, optimizer="sgd", batch_size=8),
        update_train=train.TrainConfig(iterations=2, optimizer="sgd", batch_size=8),
    ),
)
TINY_CHECKS = workloads.ChecksSize(dims=(16, 8, 4, 4, 2, 2), models=1, trials=300)
TINY = {"train-offline": TINY_TRAIN, "track-easy": TINY_TRACK, "checks": TINY_CHECKS}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(workload, trace, tmp_path):
    record = run.run(workload, seed=3, seconds=0.0, trace=trace,
                     size=TINY[workload], out=tmp_path)
    result = record["result"]
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert (tmp_path / "results").is_dir()


def test_traced_run_counts_the_layers_it_ran(tmp_path):
    metrics = run.run("track-easy", seed=0, seconds=0.0, trace=True,
                      size=TINY_TRACK, out=tmp_path)["result"]["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["tracker.frames"] == 2 * (TINY_TRACK.T - 1)
    assert value["geometry.patches"] > 30 * value["tracker.frames"]
    assert value["net.fd_entries"] == 0 and value["bound.trials"] == 0
    assert value["train.finetune_initial_s"] > 0


def test_instrument_restores_the_program():
    before = (geometry.crop_many, tracker.crop_many, net.total_loss,
              workloads.sampler.Sampler.sample_candidates)
    restore = tracing.instrument(tracing.Tracer("t"))
    assert tracker.crop_many is not before[1]
    assert tracker.crop_many is geometry.crop_many
    restore()
    assert (geometry.crop_many, tracker.crop_many, net.total_loss,
            workloads.sampler.Sampler.sample_candidates) == before


@pytest.mark.parametrize("shift, failed", [(0.0, 0), (19.0, 0), (30.0, 8)])
def test_result_box_shifted_30px_fails_its_frame(shift, failed, monkeypatch, tmp_path):
    real = tracker.track_sequence

    def on_truth(model, seq, *args, **kwargs):
        model, records = real(model, seq, *args, **kwargs)
        for r in records:
            r.box = seq.groundtruth[r.frame - 1].shifted(shift, 0.0)
        return model, records

    wl = workloads.TrackEasy(0, TINY_TRACK)
    wl.setup(tmp_path)
    monkeypatch.setattr(tracker, "track_sequence", on_truth)
    out = wl.run_round()
    assert out.attempted == 2 * (TINY_TRACK.T - 1)
    assert out.failed == failed


def test_gradient_entry_off_by_one_percent_fails(monkeypatch, tmp_path):
    real = net.backward

    def skewed(*args, **kwargs):
        grads, value = real(*args, **kwargs)
        name = max(grads, key=lambda k: abs(grads[k]).max())
        g = grads[name].reshape(-1)  # a view: the entry changes in place
        g[abs(g).argmax()] *= 1.01
        return grads, value

    wl = workloads.Checks(0, TINY_CHECKS)
    wl.setup(tmp_path)
    clean = wl.run_round()
    assert clean.failed == 0 and not wl.check(clean)
    monkeypatch.setattr(net, "backward", skewed)
    out = wl.run_round()
    assert out.failed == len(workloads.SWEEPS) * TINY_CHECKS.models


def test_trace_row_off_its_terms_is_caught(monkeypatch, tmp_path):
    real = train.train_offline

    def skewed(*args, **kwargs):
        model, trace = real(*args, **kwargs)
        trace[3] = dataclasses.replace(trace[3], loss=trace[3].loss * (1 + 1e-6))
        return model, trace

    wl = workloads.TrainOffline(0, TINY_TRAIN)
    wl.setup(tmp_path)
    assert not oracle.trace_row_problems([], 10.0, 10.0)
    monkeypatch.setattr(train, "train_offline", skewed)
    problems = wl.check(wl.run_round())
    assert any("trace step 3" in p for p in problems)


def test_oracle_matches_hand_values():
    assert oracle.center_error((0, 0, 2, 2), (3, 4, 2, 2)) == 5.0
    assert oracle.overlap((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1 / 3)
    assert oracle.frame_failed((0, 0, 2, 2), (30, 0, 2, 2), 0.9)
    assert oracle.frame_failed((0, 0, 2, 2), (0, 0, 2, 2), float("nan"))
    assert not oracle.frame_failed((0, 0, 2, 2), (20, 0, 2, 2), 0.9)
    assert oracle.concentration_rho(4, 100, 1.0, 0.5) == pytest.approx(0.16)
    assert oracle.Z_99 == pytest.approx(2.3263478740408408, rel=1e-12)


def test_speed_probe_scales_each_stretch_by_its_probes():
    probe = speed.SpeedProbe()
    ref = speed.REF_MS / 1e3
    probe.samples = [(0.0, ref), (1.0, 1.0 + 2 * ref)]  # 1x, then 2x slower
    gap = 1.0 - ref
    assert probe.scaled(ref, 1.0) == pytest.approx(gap / 1.5)
    assert probe.scaled(0.5, 1.0) == pytest.approx(0.5 / 1.5)
    assert probe.scaled(1.0 + 2 * ref, 3.0 + 2 * ref) == pytest.approx(1.0)
    assert probe.scaled(0.0, ref) == 0.0  # probe time itself is left out


def test_run_refuses_without_the_program(tmp_path):
    import subprocess

    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
