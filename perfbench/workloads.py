"""The three workloads: their inputs, one round of operations each, and
the checks made on the program's outputs.

Every workload has the same shape. `setup` makes the inputs from the
workload seed and writes them to disk; `run_round` makes one round of
calls into slowtrack's public API, times the calls and counts
operations; `check` compares the round's outputs against the
benchmark's own computations in `oracle`, outside the timed and traced
region. Seed 0 gives exactly the inputs of the acceptance suite; seed s
shifts every synthetic-sequence and model seed by a fixed stride
times s.

slowtrack is reached through module attributes (`net.init_model`, not a
name imported from it), so a traced run sees every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slowtrack import bound, dataset, evaluate, geometry, loss, net, sampler, tracker, train

import oracle

SEQ_STRIDE = 1000  # synthetic-sequence seed shift per workload seed
MODEL_STRIDE = 10_000  # model and batch seed shift per workload seed


@dataclass
class Round:
    """What one round did: operations attempted and failed, the work the
    rate counts, the (start, end) of the calls that did it, and the
    outputs to check."""

    attempted: int = 0
    failed: int = 0
    work: int = 0
    windows: list[tuple[float, float]] = field(default_factory=list)
    outputs: list = field(default_factory=list)


# -- train-offline ------------------------------------------------------------


@dataclass(frozen=True)
class TrainSize:
    T: int = 40
    frame: tuple[int, int] = (160, 120)
    target: float = 24.0
    dims: tuple[int, ...] = (1024, 128, 32, 32, 16, 2)
    iterations: int = 500
    batch_size: int = 16
    window: int = 50
    held_out_frames: tuple[int, ...] = (10, 25)
    min_accuracy: float = 0.9


def corpus_specs(seed: int, size: TrainSize) -> list[dataset.SynthSpec]:
    """The acceptance suite's two training sequences."""
    common = dict(T=size.T, frame_w=size.frame[0], frame_h=size.frame[1],
                  target_w=size.target, target_h=size.target)
    return [
        dataset.SynthSpec(velocity=(1.0, 0.5), seed=100 + SEQ_STRIDE * seed, **common),
        dataset.SynthSpec(velocity=(-1.0, 1.0), seed=101 + SEQ_STRIDE * seed, **common),
    ]


def _train_config(size: TrainSize, iterations: int) -> train.TrainConfig:
    return train.TrainConfig(iterations=iterations, batch_size=size.batch_size, seed=1)


class TrainOffline:
    """Mirrors `slowtrack train`: load the corpus, init, train with Adam,
    save the model and the loss trace. One operation is one optimizer
    step."""

    name = "train-offline"

    def __init__(self, seed: int, size: TrainSize = TrainSize()):
        self.seed, self.size = seed, size

    def setup(self, workdir: Path) -> None:
        for i, spec in enumerate(corpus_specs(self.seed, self.size)):
            dataset.save_sequence(dataset.generate(spec), workdir / f"train-{i}")
        self.workdir = workdir

    def run_round(self) -> Round:
        size, out = self.size, Round()
        t0 = time.perf_counter()
        seqs = [dataset.load_sequence(self.workdir / f"train-{i}") for i in range(2)]
        model = net.init_model(size.dims, seed=0)
        trained, trace = train.train_offline(
            seqs, model, _train_config(size, size.iterations),
            sampler.SamplerConfig(seed=2), loss.LossWeights(),
        )
        net.save_model(trained, self.workdir / "model.txt")
        train.write_trace(trace, self.workdir / "loss.csv")
        out.windows = [(t0, time.perf_counter())]
        out.work = len(trace)
        out.attempted = size.iterations
        out.failed = sum(not math.isfinite(row.loss) for row in trace)
        out.outputs = [seqs, trained, trace]
        return out

    def check(self, out: Round) -> list[str]:
        seqs, trained, trace = out.outputs
        size, weights = self.size, loss.LossWeights()
        problems = []
        if len(trace) != size.iterations:
            problems.append(f"trace has {len(trace)} rows, expected {size.iterations}")
        problems += oracle.trace_row_problems(trace, weights.lam, weights.mu)
        if not oracle.loss_halves([r.loss for r in trace], size.window):
            problems.append("mean loss over the last window is not below half the first")
        if train_csv_rows(self.workdir / "loss.csv") != [
            (r.step, r.loss, r.loss_c, r.loss_d, r.loss_s) for r in trace
        ]:
            problems.append("loss.csv does not hold the trace")
        saved = net.load_model(self.workdir / "model.txt")
        if any(not np.array_equal(a, b) for (_, a), (_, b) in zip(saved.params(), trained.params())):
            problems.append("the saved model does not load back equal")
        accuracy, label_problems = held_out_accuracy(trained, seqs, size)
        problems += label_problems
        if accuracy < size.min_accuracy:
            problems.append(f"held-out accuracy {accuracy:.3f} < {size.min_accuracy}")
        return problems


def train_csv_rows(path: Path) -> list[tuple]:
    lines = path.read_text().splitlines()[1:]
    rows = []
    for line in lines:
        step, *vals = line.split(",")
        rows.append((int(step), *(float(v) for v in vals)))
    return rows


def held_out_accuracy(model, seqs, size: TrainSize) -> tuple[float, list[str]]:
    """Share of positives scored > 0.5 and negatives scored <= 0.5, on
    boxes drawn with sampler seeds that training did not use, and the
    boxes that break the sampler's label contract (a positive is the
    ground truth moved by 1-2 whole pixels; a negative overlaps it by
    0.2-0.6, by the benchmark's own overlap code)."""
    side = math.isqrt(size.dims[0])
    correct = total = 0
    problems = []
    for i, seq in enumerate(seqs):
        for t in size.held_out_frames:
            draw = sampler.Sampler(sampler.SamplerConfig(seed=990 + 10 * i + t))
            frame, gt = seq.frames[t], seq.groundtruth[t]
            pos = draw.sample_positives(gt, frame.width, frame.height)
            neg, _ = draw.sample_negatives(gt)
            g = gt.as_tuple()
            if not all(oracle.is_positive(b.as_tuple(), g) for b in pos):
                problems.append(f"{seq.name} frame {t}: a positive is not a 1-2 px shift")
            if not all(0.2 <= oracle.overlap(b.as_tuple(), g) <= 0.6 for b in neg):
                problems.append(f"{seq.name} frame {t}: a negative leaves the 0.2-0.6 band")
            for boxes, want_high in ((pos, True), (neg, False)):
                X = geometry.crop_many(frame.pixels, boxes, side).reshape(len(boxes), -1)
                p = net.forward_classifier(model, net.forward_features(model, X))
                correct += int(((p > 0.5) if want_high else (p <= 0.5)).sum())
                total += len(boxes)
    return correct / total, problems


# -- track-easy ---------------------------------------------------------------


@dataclass(frozen=True)
class TrackSize:
    T: int = 100
    frame: tuple[int, int] = (360, 240)
    target: float = 24.0
    # (velocity, start) of the first two of the acceptance suite's three
    # easy sequences; the third would add 25 s to every run
    motions: tuple = (((2.0, 0.0), (50.0, 110.0)),
                      ((1.0, 1.5), (60.0, 40.0)))
    model_iterations: int = 200
    train: TrainSize = TrainSize()
    tracker: tracker.TrackerConfig = tracker.TrackerConfig()
    min_auc: float = 0.6


def easy_specs(seed: int, size: TrackSize) -> list[dataset.SynthSpec]:
    return [
        dataset.SynthSpec(T=size.T, frame_w=size.frame[0], frame_h=size.frame[1],
                          target_w=size.target, target_h=size.target,
                          velocity=v, start_x=s[0], start_y=s[1],
                          seed=i + SEQ_STRIDE * seed)
        for i, (v, s) in enumerate(size.motions)
    ]


class TrackEasy:
    """Mirrors `slowtrack track` over the easy suite, with a model trained
    offline in set-up. One operation is one tracked frame (2..T)."""

    name = "track-easy"

    def __init__(self, seed: int, size: TrackSize = TrackSize()):
        self.seed, self.size = seed, size
        self.notes: list[str] = []

    def setup(self, workdir: Path) -> None:
        size = self.size
        self.dirs = []
        for spec in easy_specs(self.seed, size):
            seq = dataset.generate(spec)
            self.dirs.append(workdir / seq.name)
            dataset.save_sequence(seq, self.dirs[-1])
        corpus = [dataset.generate(s) for s in corpus_specs(self.seed, size.train)]
        model, _ = train.train_offline(
            corpus, net.init_model(size.train.dims, seed=0),
            _train_config(size.train, size.model_iterations),
            sampler.SamplerConfig(seed=2), loss.LossWeights(),
        )
        net.save_model(model, workdir / "model.txt")
        self.workdir = workdir

    def run_round(self) -> Round:
        out = Round()
        model = net.load_model(self.workdir / "model.txt")
        for d in self.dirs:
            seq = dataset.load_sequence(d)
            t0 = time.perf_counter()
            _, records = tracker.track_sequence(model, seq, self.size.tracker, loss.LossWeights())
            out.windows.append((t0, time.perf_counter()))
            path = self.workdir / f"results-{seq.name}.csv"
            tracker.write_results(records, path)
            out.work += len(records)
            out.attempted += len(records)
            preds = [r.box for r in records]
            truth = [seq.groundtruth[r.frame - 1] for r in records]
            out.failed += sum(
                oracle.frame_failed(p.as_tuple(), g.as_tuple(), r.score)
                for p, g, r in zip(preds, truth, records)
            )
            scores = (evaluate.precision_at(evaluate.precision_curve(preds, truth)),
                      evaluate.auc(evaluate.success_curve(preds, truth)))
            out.outputs.append((seq, records, path, scores))
        return out

    def check(self, out: Round) -> list[str]:
        return [p for item in out.outputs for p in self._check_sequence(*item)]

    def _check_sequence(self, seq, records, path: Path, scores) -> list[str]:
        problems = []
        name = seq.name
        if [r.frame for r in records] != list(range(2, seq.T + 1)):
            problems.append(f"{name}: records do not cover frames 2..{seq.T}")
        back = tracker.read_results(path)
        if [_record_key(r) for r in back] != [_record_key(r) for r in records]:
            problems.append(f"{name}: read_results differs from the records written")
        preds = [r.box for r in records]
        truth = [seq.groundtruth[r.frame - 1] for r in records]
        p20 = oracle.precision_at_20([b.as_tuple() for b in preds], [g.as_tuple() for g in truth])
        area = oracle.success_auc([b.as_tuple() for b in preds], [g.as_tuple() for g in truth])
        lib_p20, lib_auc = scores
        if abs(lib_p20 - p20) > 1e-12 or abs(lib_auc - area) > 1e-12:
            problems.append(
                f"{name}: evaluate gives Prec@20 {lib_p20!r}, AUC {lib_auc!r}; "
                f"the benchmark gives {p20!r}, {area!r}")
        if p20 != 1.0:
            problems.append(f"{name}: Prec@20 {p20} != 1.0")
        if area < self.size.min_auc:
            # The acceptance suite pins AUC >= 0.6 on its own sequences
            # (seed 0). Other seeds draw other textures, on some of which
            # the box size drifts while the center holds; that is noted,
            # not failed.
            msg = f"{name}: success AUC {area:.4f} < {self.size.min_auc}"
            (problems if self.seed == 0 else self.notes).append(msg)
        return problems


def _record_key(r) -> tuple:
    score = "nan" if math.isnan(r.score) else r.score
    return (r.frame, r.box.as_tuple(), score, r.updated)


# -- checks -------------------------------------------------------------------


SWEEPS = (
    ("combined", dict(), "full"),
    ("pair-term only", dict(lam=0.0, mu=0.0), "full"),
    ("pair + separation", dict(lam=10.0, mu=0.0), "full"),
    ("classification only", dict(), "SlossOnly"),
)


@dataclass(frozen=True)
class ChecksSize:
    dims: tuple[int, ...] = (64, 32, 16, 16, 8, 2)
    models: int = 5
    trials: int = 10_000
    bound: dict = field(default_factory=lambda: dict(n=4, m=100, delta=0.5, K=0.1,
                                                     dt=1.0, max_var=1.0))
    tol: float = 1e-4


class Checks:
    """Mirrors `slowtrack gradcheck` and `verify-bound` at acceptance
    sizes. One operation is one finite-difference or Monte Carlo report."""

    name = "checks"

    def __init__(self, seed: int, size: ChecksSize = ChecksSize()):
        self.seed, self.size = seed, size

    def setup(self, workdir: Path) -> None:
        shift = MODEL_STRIDE * self.seed
        for i in range(self.size.models):
            model = net.init_model(self.size.dims, seed=2000 + i + shift)
            batch = net.conditioned_batch(model, np.random.default_rng(1000 + i + shift))
            net.save_model(model, workdir / f"model-{i}.txt")
            np.savez(workdir / f"batch-{i}.npz", a=batch.a, b=batch.b, n=batch.n)
        self.workdir = workdir

    def run_round(self) -> Round:
        size, out = self.size, Round()
        models, batches = [], []
        for i in range(size.models):
            models.append(net.load_model(self.workdir / f"model-{i}.txt"))
            with np.load(self.workdir / f"batch-{i}.npz") as z:
                batches.append(net.TripletBatch(a=z["a"], b=z["b"], n=z["n"]))
        reports = []
        for model, batch in zip(models, batches):
            for label, kw, variant in SWEEPS:
                t0 = time.perf_counter()
                rep = net.finite_diff_check(model, batch, loss.LossWeights(**kw),
                                            tol=size.tol, variant=variant)
                out.windows.append((t0, time.perf_counter()))
                out.work += rep.entries_checked
                reports.append(rep)
                out.attempted += 1
                out.failed += not (rep.passed and rep.max_rel_err < size.tol)
        params = bound.BoundParams(**size.bound)
        mc = []
        for gen in bound.GENERATORS:
            mc.append(bound.verify_chebyshev(params, noise=gen, trials=size.trials,
                                             seed=7 + self.seed))
        for predictor, scale in (("noisy", 1.0), ("adversarial", 50.0)):
            scenario = bound.standard_scenario(params, predictor=predictor,
                                               predictor_scale=scale)
            mc.append(bound.verify_error_bound(params, scenario, trials=size.trials,
                                               seed=11 + self.seed))
        out.attempted += len(mc)
        out.failed += sum(not r.passed for r in mc)
        out.outputs = [models[0], batches[0], reports, mc, params]
        return out

    def check(self, out: Round) -> list[str]:
        model, batch, reports, mc, params = out.outputs
        size = self.size
        problems = []
        n_params = sum(arr.size for _, arr in model.params())
        for rep in reports:
            if rep.entries_checked != n_params:
                problems.append(f"a report checked {rep.entries_checked} of {n_params} entries")
        problems += fault_problems(model, batch, size.tol)
        want_rho = oracle.concentration_rho(params.n, params.m, params.max_var, params.delta)
        for r in mc:
            if not math.isclose(r.rho, want_rho, rel_tol=1e-12):
                problems.append(f"{r.label}: rho {r.rho!r} != {want_rho!r}")
            limit = oracle.violation_limit(want_rho, r.trials)
            if r.trials != size.trials:
                problems.append(f"{r.label}: {r.trials} trials, expected {size.trials}")
            if r.violation_rate > limit:
                problems.append(f"{r.label}: violation rate {r.violation_rate} > {limit}")
            if r.passed != (r.violation_rate <= limit + 1e-12):
                problems.append(f"{r.label}: verdict {r.passed} disagrees with the limit")
        return problems


def fault_problems(model, batch, tol: float) -> list[str]:
    """A gradient set with its largest W5 entry off by 1% must fail."""
    grads, _ = net.backward(model, batch, loss.LossWeights())
    bad = {k: v.copy() for k, v in grads.items()}
    idx = np.unravel_index(np.argmax(np.abs(bad["W5"])), bad["W5"].shape)
    bad["W5"][idx] *= 1.01
    rep = net.finite_diff_check(model, batch, loss.LossWeights(), tol=tol,
                                params=["W5"], analytic=bad)
    if rep.passed or not any(f.index == idx for f in rep.failures):
        return ["a gradient entry off by 1% was not reported as a failure"]
    return []


WORKLOADS = {w.name: w for w in (TrainOffline, TrackEasy, Checks)}
