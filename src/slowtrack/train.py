"""Training loops: offline joint learning over synthetic sequences,
first-frame finetuning, the periodic online update, and the optimizers
they share.

The ablation switchboard lives here: "wo-C-learning" feeds same-frame
positive pairs instead of consecutive-frame ones, "tarspec" freezes the
classifier layers during offline training, and the loss-term variants
are forwarded to the loss/net layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .dataset import Frame, Sequence
from .errors import ConfigError, NumericalError, SamplerExhausted, write_rows
from .geometry import BBox, crop_many, on_frame, usable
from .loss import LossWeights, uses_pair
from .net import (
    CLASSIFIER_PARAMS,
    FEATURE_PARAMS,
    PARAM_NAMES,
    FlatParams,
    Model,
    TripletBatch,
    backward,
    check_finite,
    forward_classifier,
    forward_features,
    gradients,
)
from .sampler import Sampler, SamplerConfig

OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class StepConfig:
    """The step loop's knobs, all that the online phases read. Defaults
    fit the offline phase; TrackerConfig holds the online ones."""

    iterations: int = 2000
    learning_rate: float = 0.001
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 16
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
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be > 0")


@dataclass(frozen=True)
class TrainConfig(StepConfig):
    """The offline phase's knobs: the step loop's plus the loss variant,
    the frame-pair seed and whether occluded pairs are skipped."""

    variant: str = "full"
    seed: int = 0
    skip_occluded: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        uses_pair(self.variant)  # raises ConfigError for an unknown variant
        if self.variant == "tarspec" and self.classifier_only:
            raise ConfigError(
                "variant 'tarspec' freezes the classifier and classifier_only the "
                "features; together they train nothing"
            )


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
    rows = ((r.step, *map(float, (r.loss, r.loss_c, r.loss_d, r.loss_s))) for r in trace)
    write_rows(path, rows, TRACE_HEADER)


# Entries per block of optimizer_step. Adam makes 14 elementwise passes
# per step; over one block its six arrays (parameter, gradient, two
# moments, two scratch rows) stay in a core's 2 MiB L2 from pass to
# pass, where the train-offline model's W1 alone is six 1 MiB arrays.
# Measured on that model's 137k-entry Adam step (2-vCPU Xeon, medians
# of seven runs of 300 steps): 1.22 ms unblocked, 1.07 ms at 65,536,
# 1.06 ms at 32,768 and 1.08 ms at 16,384 entries. Smaller blocks pay
# the Python cost of 14 calls per block more often.
STEP_BLOCK = 32768


@dataclass
class OptState:
    """Adam's step count and moment estimates, each a FlatParams laid out
    like the parameters when first stepped, plus two scratch rows of at
    most STEP_BLOCK entries reused by every step. SGD uses only the
    scratch."""

    t: int = 0
    m: FlatParams | None = None
    v: FlatParams | None = None
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)))


def optimizer_step(
    params: FlatParams, grads: FlatParams, state: OptState, config: StepConfig
) -> tuple[FlatParams, OptState]:
    """Apply one SGD or Adam step in place to the vector of params, whose
    gradients grads holds laid out alike; returns (params, state).

    It runs block by block, STEP_BLOCK entries at a time, and every pass
    is elementwise, so each entry sees the same operations, in the same
    order, as when each array is stepped alone."""
    if params.shapes() != grads.shapes():
        raise ValueError(
            f"gradient layout {grads.shapes()} != parameter layout {params.shapes()}"
        )
    p, g = params.vec, grads.vec
    width = min(p.size, STEP_BLOCK)
    if state.scratch.shape[1] < width:
        state.scratch = np.empty((2, width))
    lr = config.learning_rate
    adam = config.optimizer == "adam"
    if adam:
        state.t += 1
        if state.m is None:
            state.m, state.v = params.zeros(), params.zeros()
        b1, b2 = config.adam_beta1, config.adam_beta2
        c1 = 1.0 - b1**state.t
        c2 = 1.0 - b2**state.t
    for start in range(0, p.size, STEP_BLOCK):
        block = slice(start, start + STEP_BLOCK)
        pb, gb = p[block], g[block]
        step, denom = state.scratch[:, : pb.size]
        if not adam:
            pb -= np.multiply(gb, lr, out=step)
            continue
        m, v = state.m.vec[block], state.v.vec[block]
        # Same operations in the same order as
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), bit for bit.
        m *= b1
        m += np.multiply(gb, 1.0 - b1, out=step)
        v *= b2
        v += np.multiply(np.multiply(gb, gb, out=denom), 1.0 - b2, out=denom)
        np.multiply(np.divide(m, c1, out=step), lr, out=step)
        np.sqrt(np.divide(v, c2, out=denom), out=denom)
        denom += config.adam_eps
        pb -= np.divide(step, denom, out=step)
    return params, state


def _patch_side(model: Model, frame: Frame) -> int:
    channels = frame.pixels.shape[2] if frame.pixels.ndim == 3 else 1
    r = model.dims[0]
    if r % channels:
        raise ConfigError(f"model input size {r} is not divisible by {channels} channels")
    side = math.isqrt(r // channels)
    if side * side * channels != r:
        raise ConfigError(f"model input size {r} with {channels} channels is not a square patch")
    return side


def _sequence_side(model: Model, seq: Sequence) -> int:
    """_patch_side of seq's frames, which share one shape, after the one
    check that seq has a frame pair. Raises ConfigError naming seq."""
    if seq.T < 2:
        raise ConfigError(f"sequence {seq.name!r} has {seq.T} frame(s); need >= 2")
    try:
        return _patch_side(model, seq.frames[0])
    except ConfigError as exc:
        raise ConfigError(f"sequence {seq.name!r}: {exc}") from None


def _check_first_box(frame: Frame, gt: BBox) -> None:
    """Raises ConfigError unless gt, the box the first-frame finetune
    draws around, is usable and overlaps frame."""
    if not (usable([gt]) & on_frame([gt], frame.width, frame.height))[0]:
        raise ConfigError(f"first-frame ground truth {gt} is not a visible box")


def _patches(side: int, frame: Frame, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flattened patches of the distinct boxes on frame, cropped in one
    crop_many call: the (d, r) matrix `rows`, in the boxes' byte order,
    and the row of each box, `at`, so that rows[at] is the (n, r) matrix
    of boxes. Boxes are distinct when their bytes differ. Every row is
    bit-equal to cropping its box alone, because crop_many of a box does
    not depend on the other boxes in the call."""
    keys = np.ascontiguousarray(boxes).view(np.dtype((np.void, 4 * boxes.itemsize))).ravel()
    _, first, at = np.unique(keys, return_index=True, return_inverse=True)
    return crop_many(frame.pixels, boxes[first], side).reshape(len(first), -1), at


def _draw_boxes(sampler: Sampler, count: int, anchor: tuple, pair: tuple):
    """The boxes of `count` random triplets, one (count, 4) row array each
    for anchors, paired positives and negatives. `anchor` and `pair` are
    (frame, box) pairs: positives and negatives around the anchor box,
    paired positives around the pair box."""
    frame, gt = anchor
    pair_gt = pair[1]
    a_boxes = sampler.positive_rows(gt, frame.width, frame.height)
    b_boxes = sampler.positive_rows(pair_gt, frame.width, frame.height)
    neg_boxes = sampler.negative_rows(gt, frame.width, frame.height)
    js, ks, ls = sampler.build_triplets(len(a_boxes), len(b_boxes), len(neg_boxes), count)
    return a_boxes[js], b_boxes[ks], neg_boxes[ls]


def _draw_triplets(
    sampler: Sampler,
    side: int,
    count: int,
    anchor: tuple,
    pair: tuple,
    paired: bool = True,
) -> TripletBatch:
    """One offline batch of the boxes _draw_boxes draws. Only the rows the
    triplets use are cropped: anchors and negatives in one _patches call,
    paired positives in one on their own frame. Without `paired` the
    paired positives are drawn, keeping the sampler's stream, but not
    cropped, and the batch has no `b`."""
    a, b, n = _draw_boxes(sampler, count, anchor, pair)
    an = np.take(*_patches(side, anchor[0], np.concatenate([a, n])), axis=0)
    pb = np.take(*_patches(side, pair[0], b), axis=0) if paired else None
    return TripletBatch(a=an[:count], b=pb, n=an[count:])


# Triplets the first-frame finetune draws ahead, their boxes cropped in
# one _patches call: its draws do not depend on the model, and a
# crop_many call costs about 110 us on top of its patches, which are also
# slower per patch in small calls. 160 was faster than 80 or 320 and kept
# track-easy's peak RSS flat; ROADMAP "Settled" has the timings.
DRAW_AHEAD_ROWS = 160


def _first_frame_batches(sampler: Sampler, side: int, count: int, view: tuple, steps: int):
    """The first-frame finetune's `steps` batches: _draw_triplets' draws
    with `view`, a (frame, box) pair, as both anchor and pair, and the
    same patches bit for bit. A window of DRAW_AHEAD_ROWS // count steps
    makes its sampler calls together, in the steps' order, and crops all
    its boxes in one _patches call; each step gathers its batch from the
    rows as it comes due. A SamplerExhausted raised while a window draws
    is raised again when the step whose draw failed comes due, after the
    steps before it have run. Nothing is drawn before the first batch is
    asked for."""
    window = max(1, DRAW_AHEAD_ROWS // count)
    for start in range(0, steps, window):
        drawn, failed = [], None
        for _ in range(min(window, steps - start)):
            try:
                drawn.extend(_draw_boxes(sampler, count, view, view))
            except SamplerExhausted as exc:
                failed = exc
                break
        if drawn:
            rows, at = _patches(side, view[0], np.concatenate(drawn))
            # each step's anchors, paired positives and negatives in turn
            for i in range(0, len(at), 3 * count):
                batch = rows[at[i : i + 3 * count]]
                yield TripletBatch(batch[:count], batch[count : 2 * count], batch[2 * count :])
        if failed is not None:
            raise failed


def _quiet():
    """numpy's floating-point warnings off: in training, the NumericalError
    checks decide what an overflow or a NaN means."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _fit(
    model: Model,
    tc: StepConfig,
    weights: LossWeights,
    variant: str,
    draw: Callable,
    pool: tuple[np.ndarray, np.ndarray] | None = None,
    traced: bool = True,
) -> tuple[Model, list[TraceRow]]:
    """The step loop of all three training phases: tc.iterations optimizer
    steps on a copy of model, each on a fresh draw(). "tarspec" freezes
    the classifier layers, tc.classifier_only the feature layers. Returns
    the copy and its loss trace, which is empty unless `traced`: the
    online phases drop it, so their steps compute gradients alone. Raises
    NumericalError on a non-finite parameter or trained gradient. Frozen
    layers are not differentiated, and only the arrays a step changed are
    checked after it.

    The frozen layers are a run at one end of the copy's vector, so the
    trained arrays are one slice: their gradients are written into one
    flat vector allocated here, and the optimizer step and the checks of
    both run once over a vector each.

    A `pool` is a fixed (K, r) matrix of patches and its (K, h1) product
    U = pool·W1; draw() then returns index arrays (a, b, n) into its
    rows. Under SGD with fc1 trained, a step moves W1 by -lr·poolᵀ·D,
    where D is du1 summed onto the pool rows, and so U by
    -lr·(pool·poolᵀ)·D. The loop steps the pool model
    Model((K,) + dims[1:], [U | b1…b5]) instead of the copy: its batches
    are one-hot rows over the pool, so its fc1 weights are U and the W1
    gradient backward returns is D. It steps U with (pool·poolᵀ)·D as
    the gradient, checks it as W1, sums D and forms W1₀ - lr·poolᵀ·ΣD
    once, after the last step. Adam's per-entry step would leave the
    pool's span, so under Adam, or with fc1 frozen, the rows are
    gathered into a TripletBatch."""
    freeze = CLASSIFIER_PARAMS if variant == "tarspec" else ()
    if tc.classifier_only:
        freeze += FEATURE_PARAMS
    names = [name for name in PARAM_NAMES if name not in freeze]
    span = pool is not None and tc.optimizer == "sgd" and "W1" in names
    if pool is not None:
        pool, pre = pool
    if span:
        rest = model.vec[model["W1"].size :]  # b1…b5
        fitted = Model((len(pool),) + model.dims[1:], np.concatenate([pre.ravel(), rest]))
        rows, gram, summed = np.eye(len(pool)), pool @ pool.T, np.zeros_like(pre)
    else:
        fitted, rows = model.copy(), pool
    # Before any step; on the span path W1's slot holds pool·W1, which is
    # not finite where W1 is not (0·inf is NaN).
    check_finite(fitted)
    params = fitted.run(names)
    grads = params.zeros()
    state = OptState()
    trace: list[TraceRow] = []
    with _quiet():
        for step in range(tc.iterations):
            batch = draw()
            if pool is not None:
                batch = TripletBatch(*(rows[i] for i in batch))
            if traced:
                terms = backward(fitted, batch, weights, variant, grads)[1]
                trace.append(TraceRow(step, *terms))
            else:
                gradients(fitted, batch, weights, variant, grads)
            if span:
                summed += grads["W1"]
                np.matmul(gram, grads["W1"], out=grads["W1"])
            optimizer_step(params, grads, state, tc)
            check_finite(params)
        if span:
            # W1₀ - lr·poolᵀ·ΣD in the returned model's W1 slot
            out = Model(model.dims)
            W1 = np.matmul(pool.T, summed, out=out["W1"])
            W1 *= tc.learning_rate
            np.subtract(model["W1"], W1, out=W1)
            out.vec[W1.size :] = fitted.vec[pre.size :]
            check_finite(out.run(["W1"]))
            fitted = out
    return fitted, trace


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
    copy of the model and the per-step loss trace. A sequence
    _sequence_side rejects raises ConfigError before any step. SamplerExhausted
    names the sequence and the pair's first frame, numbered from 1."""
    if not sequences:
        raise ConfigError("train_offline needs at least one sequence")
    sides = [_sequence_side(model, seq) for seq in sequences]

    tc = train_config
    pairs = [
        (si, t)
        for si, seq in enumerate(sequences)
        for t in range(seq.T - 1)
        if not (tc.skip_occluded and (seq.occluded[t] or seq.occluded[t + 1]))
    ]
    if not pairs:
        raise ConfigError("no usable frame pairs (everything occluded?)")

    sampler = Sampler(sampler_config)
    rng = np.random.default_rng(tc.seed)
    paired = uses_pair(tc.variant)

    def draw() -> TripletBatch:
        si, t = pairs[int(rng.integers(len(pairs)))]
        seq = sequences[si]
        b_t = t if tc.variant == "wo-C-learning" else t + 1
        try:
            return _draw_triplets(
                sampler,
                sides[si],
                tc.batch_size,
                (seq.frames[t], seq.groundtruth[t]),
                (seq.frames[b_t], seq.groundtruth[b_t]),
                paired=paired,
            )
        except SamplerExhausted as exc:
            raise SamplerExhausted(f"{seq.name} frame {t + 1}: {exc}") from exc

    return _fit(model, tc, weights, tc.variant, draw)


def finetune_initial(
    model: Model,
    frame: Frame,
    gt: BBox,
    train_config: StepConfig,
    sampler_config: SamplerConfig,
    weights: LossWeights = LossWeights(),
) -> Model:
    """First-frame finetuning: same-frame positive pairs (two positive
    pools), negatives from the usual IoU window, full combined loss."""
    _check_first_box(frame, gt)
    batches = _first_frame_batches(
        Sampler(sampler_config), _patch_side(model, frame), train_config.batch_size,
        (frame, gt), train_config.iterations,
    )
    return _fit(model, train_config, weights, "full", batches.__next__, traced=False)[0]


def finetune_update(
    model: Model,
    frame: Frame,
    pred: BBox,
    train_config: StepConfig,
    sampler_config: SamplerConfig,
    weights: LossWeights = LossWeights(),
) -> Model:
    """Periodic online update: draw one update batch around the current
    prediction (`Sampler.sample_update_batch`, two box arrays), crop it
    once, then take the configured number of SGD/Adam steps on random
    triplets of those patches, positives paired with positives. The
    patches are a fixed pool, so under SGD fc1 trains in their span and
    no step forms a W1-sized product (see _fit).
    Raises SamplerExhausted when the batch cannot be drawn, and
    NumericalError when the update diverges: a parameter or gradient
    turns non-finite, or the batch's positives no longer outscore its
    negatives on average by more than 0 and more than half their margin
    before the update. The caller decides what to keep."""
    tc = train_config
    sampler = Sampler(sampler_config)
    pos_boxes, neg_boxes = sampler.sample_update_batch(pred, frame.width, frame.height)
    side = _patch_side(model, frame)
    # Not _patches: these draws never repeat, and its byte-ordered rows
    # would reorder the pool whose rows poolᵀ·ΣD sums over (see _fit).
    boxes = np.concatenate([pos_boxes, neg_boxes])
    patches = crop_many(frame.pixels, boxes, side).reshape(len(boxes), -1)
    n_pos, n_neg = len(pos_boxes), len(neg_boxes)

    def draw() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        js, ks, ls = sampler.build_triplets(n_pos, n_pos, n_neg, tc.batch_size)
        return js, ks, n_pos + ls

    def margin(m: Model, pre: np.ndarray | None = None) -> float:
        scores = forward_classifier(m, forward_features(m, patches, pre))
        return scores[:n_pos].mean() - scores[n_pos:].mean()

    with _quiet():
        # fc1 of the pool, formed once: the first margin's and _fit's
        pre = patches @ model["W1"]
        before = margin(model, pre)
        model = _fit(model, tc, weights, "full", draw, pool=(patches, pre), traced=False)[0]
        after = margin(model)
    # A finite update can still wreck the model: after a huge step the
    # ReLUs die and nearly every patch scores alike. NaN fails here too.
    if not after > max(before, 0.0) / 2:
        raise NumericalError(f"update cut the score margin from {before:.3g} to {after:.3g}")
    return model
