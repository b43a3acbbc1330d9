"""Training loops: offline joint learning over synthetic sequences,
first-frame finetuning, the periodic online update, and the optimizers
they share.

The ablation switchboard lives here: "wo-C-learning" feeds same-frame
positive pairs instead of consecutive-frame ones, "tarspec" freezes the
classifier layers during offline training, and the loss-term variants
are forwarded to the loss/net layer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .dataset import Frame, Sequence
from .errors import ConfigError, NumericalError, SamplerExhausted
from .geometry import BBox, crop_many
from .loss import VARIANTS, LossWeights
from .net import Model, TripletBatch, backward
from .sampler import Sampler, SamplerConfig

log = logging.getLogger(__name__)

OPTIMIZERS = ("adam", "sgd")

# Parameters frozen by the "tarspec" variant during offline training and
# the ones kept when finetuning is restricted to the classifier.
CLASSIFIER_PARAMS = ("W3", "b3", "W4", "b4", "W5", "b5")
FEATURE_PARAMS = ("W1", "b1", "W2", "b2")


@dataclass(frozen=True)
class TrainConfig:
    """One training phase's knobs. Defaults fit the offline phase; the
    online phases construct their own instances (SGD, fewer steps)."""

    iterations: int = 2000
    learning_rate: float = 0.001
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 16
    variant: str = "full"
    seed: int = 0
    skip_occluded: bool = True
    classifier_only: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be > 0")


@dataclass
class TraceRow:
    """Per-step loss record. Term columns hold the unweighted batch-mean
    value of each active term; dropped terms record 0.0."""

    step: int
    loss: float
    loss_c: float
    loss_d: float
    loss_s: float


TRACE_HEADER = "step,loss,loss_c,loss_d,loss_s"


def write_trace(trace: Iterable[TraceRow], path: str | Path) -> None:
    """Loss-trace CSV with repr floats, byte-stable across re-runs."""
    lines = [TRACE_HEADER]
    for row in trace:
        lines.append(
            f"{row.step},{float(row.loss)!r},{float(row.loss_c)!r},"
            f"{float(row.loss_d)!r},{float(row.loss_s)!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class OptState:
    """Adam moment estimates, plus two scratch rows reused by every step
    (fresh arrays each step cost more than the arithmetic); empty and
    unused for SGD."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)))


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], OptState]:
    """Apply one SGD or Adam step in place; returns (params, state)."""
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise ValueError(
                f"gradient shape {grads[name].shape} != parameter shape "
                f"{p.shape} for {name}"
            )
    lr = config.learning_rate
    if config.optimizer == "sgd":
        for name, p in params.items():
            p -= lr * grads[name]
        return params, state

    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    size = max((p.size for p in params.values()), default=0)
    if state.scratch.shape[1] < size:
        state.scratch = np.empty((2, size))
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        # Same operations in the same order as
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), bit for bit.
        step, denom = (row[: p.size].reshape(p.shape) for row in state.scratch)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=step)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=denom), 1.0 - b2, out=denom)
        np.multiply(np.divide(m, c1, out=step), lr, out=step)
        np.sqrt(np.divide(v, c2, out=denom), out=denom)
        denom += config.adam_eps
        p -= np.divide(step, denom, out=step)
    return params, state


def _patch_side(model: Model, frame: Frame) -> int:
    channels = frame.pixels.shape[2] if frame.pixels.ndim == 3 else 1
    r = model.dims[0]
    if r % channels:
        raise ConfigError(
            f"model input size {r} is not divisible by {channels} channels"
        )
    side = math.isqrt(r // channels)
    if side * side * channels != r:
        raise ConfigError(
            f"model input size {r} with {channels} channels is not a square patch"
        )
    return side


def _patch_matrix(frame: Frame, boxes: list[BBox], side: int) -> np.ndarray:
    """One flattened patch per box: an (n, r) matrix."""
    return crop_many(frame.pixels, boxes, side).reshape(len(boxes), -1)


def _triplet_batch(
    sampler: Sampler, a: np.ndarray, b: np.ndarray, n: np.ndarray, count: int
) -> TripletBatch:
    """count random triplets drawn from three (n, r) patch matrices."""
    js, ks, ls = sampler.build_triplets(len(a), len(b), len(n), count)
    return TripletBatch(a=a[js], b=b[ks], n=n[ls])


def _freeze(grads: dict[str, np.ndarray], names: tuple[str, ...]) -> None:
    for name in names:
        grads[name][:] = 0.0


def _step(
    model: Model,
    batch: TripletBatch,
    weights: LossWeights,
    tc: TrainConfig,
    state: OptState,
    params: dict[str, np.ndarray],
    variant: str,
    freeze: tuple[str, ...],
) -> TraceRow:
    grads, terms = backward(model, batch, weights, variant=variant)
    if freeze:
        _freeze(grads, freeze)
    optimizer_step(params, grads, state, tc)
    model.assert_finite()
    return TraceRow(0, *terms)


def train_offline(
    sequences: list[Sequence],
    model: Model,
    train_config: TrainConfig,
    sampler_config: SamplerConfig,
    weights: LossWeights = LossWeights(),
) -> tuple[Model, list[TraceRow]]:
    """Joint offline training: each step samples a consecutive frame pair
    from a random sequence, draws positives/negatives, and applies one
    optimizer step on the batch-mean combined loss. Returns a trained
    copy of the model and the per-step loss trace."""
    if not sequences:
        raise ConfigError("train_offline needs at least one sequence")
    for seq in sequences:
        if seq.T < 2:
            raise ConfigError(f"sequence {seq.name!r} has fewer than 2 frames")

    tc = train_config
    variant = tc.variant
    same_frame_pairs = variant == "wo-C-learning"
    pairs = [
        (si, t)
        for si, seq in enumerate(sequences)
        for t in range(seq.T - 1)
        if not (tc.skip_occluded and (seq.occluded[t] or seq.occluded[t + 1]))
    ]
    if not pairs:
        raise ConfigError("no usable frame pairs (everything occluded?)")

    model = model.copy()
    model.assert_finite()
    params = dict(model.params())
    state = OptState()
    sampler = Sampler(sampler_config)
    rng = np.random.default_rng(tc.seed)
    freeze: tuple[str, ...] = CLASSIFIER_PARAMS if variant == "tarspec" else ()
    if tc.classifier_only:
        freeze = freeze + FEATURE_PARAMS

    trace: list[TraceRow] = []
    for step in range(tc.iterations):
        si, t = pairs[int(rng.integers(len(pairs)))]
        seq = sequences[si]
        frame_t, gt_t = seq.frames[t], seq.groundtruth[t]
        side = _patch_side(model, frame_t)
        fw, fh = frame_t.width, frame_t.height
        b_t = t if same_frame_pairs else t + 1

        a_boxes = sampler.sample_positives(gt_t, fw, fh, frame=t)
        b_boxes = sampler.sample_positives(seq.groundtruth[b_t], fw, fh, frame=b_t)
        neg_boxes, _ = sampler.sample_negatives(gt_t, frame=t)
        pos_a = _patch_matrix(frame_t, a_boxes, side)
        negs = _patch_matrix(frame_t, neg_boxes, side)

        if variant == "SlossOnly":
            batch = _triplet_batch(sampler, pos_a, pos_a, negs, tc.batch_size)
            batch.b = None
        else:
            pos_b = _patch_matrix(seq.frames[b_t], b_boxes, side)
            batch = _triplet_batch(sampler, pos_a, pos_b, negs, tc.batch_size)
        row = _step(model, batch, weights, tc, state, params, variant, freeze)
        row.step = step
        trace.append(row)
    return model, trace


def finetune_initial(
    model: Model,
    frame: Frame,
    gt: BBox,
    train_config: TrainConfig,
    sampler_config: SamplerConfig,
    weights: LossWeights = LossWeights(),
) -> Model:
    """First-frame finetuning: same-frame positive pairs (two positive
    pools), negatives from the usual IoU window, full combined loss."""
    clipped = gt.clipped(frame.width, frame.height)
    if gt.w <= 0 or gt.h <= 0 or clipped.w <= 0 or clipped.h <= 0:
        raise ConfigError(f"first-frame ground truth {gt} is not a visible box")
    tc = train_config
    model = model.copy()
    model.assert_finite()
    params = dict(model.params())
    state = OptState()
    sampler = Sampler(sampler_config)
    side = _patch_side(model, frame)
    freeze = FEATURE_PARAMS if tc.classifier_only else ()

    for step in range(tc.iterations):
        a_boxes = sampler.sample_positives(gt, frame.width, frame.height)
        b_boxes = sampler.sample_positives(gt, frame.width, frame.height)
        neg_boxes, _ = sampler.sample_negatives(gt)
        pos_a = _patch_matrix(frame, a_boxes, side)
        pos_b = _patch_matrix(frame, b_boxes, side)
        negs = _patch_matrix(frame, neg_boxes, side)
        batch = _triplet_batch(sampler, pos_a, pos_b, negs, tc.batch_size)
        _step(model, batch, weights, tc, state, params, "full", freeze)
    return model


def finetune_update(
    model: Model,
    frame: Frame,
    pred: BBox,
    train_config: TrainConfig,
    sampler_config: SamplerConfig,
    weights: LossWeights = LossWeights(),
    frame_index: int | None = None,
) -> Model:
    """Periodic online update: draw one update batch around the current
    prediction, then take the configured number of SGD/Adam steps on it.
    Tracking must not die here: sampler exhaustion skips the update, and
    an update that diverges (NumericalError) is rolled back; in both
    cases the model passed in is returned as it is."""
    tc = train_config
    try:
        sampler = Sampler(sampler_config)
        pos_boxes, neg_boxes = sampler.sample_update_batch(
            pred, frame.width, frame.height, frame=frame_index
        )
    except SamplerExhausted as exc:
        log.warning("online update skipped: %s", exc)
        return model
    side = _patch_side(model, frame)
    pos = _patch_matrix(frame, pos_boxes, side)
    negs = _patch_matrix(frame, neg_boxes, side)

    updated = model.copy()
    params = dict(updated.params())
    state = OptState()
    freeze = FEATURE_PARAMS if tc.classifier_only else ()
    try:
        for step in range(tc.iterations):
            batch = _triplet_batch(sampler, pos, pos, negs, tc.batch_size)
            _step(updated, batch, weights, tc, state, params, "full", freeze)
    except NumericalError as exc:
        log.warning("online update rolled back: %s", exc)
        return model
    return updated
