"""Online tracking loop: candidate scoring, top-k box averaging, and
periodic online finetuning.

Frame 1 is given; its ground-truth box seeds an initial finetune. Each
later frame draws candidate boxes around the previous prediction and
snaps them to a scale ladder, so that most are slices of a few
resampled windows (`crop_candidates`). It scores them all with a frozen
forward pass in SCORE_DTYPE (float32), ranked by fc5 logit margin, and
re-scores in float64 the box that `select` chooses on arrays: the
anchored average of the top-k candidates (ties broken by candidate
index, lowest first; a NaN in the top k raises). That float64 score is
the record's. Every update_period-th frame whose score clears the
update threshold triggers a short finetune on samples drawn around the
current prediction, in float64 like all training. A frame whose
candidate sampling fails, whose model does not fit float32, or whose
top-k margins include NaN, carries the previous box forward, and a
failed update is dropped — tracking never aborts mid-sequence.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .dataset import Frame, Sequence
from .errors import (
    ConfigError, FormatError, NumericalError, SamplerExhausted, read_text, write_rows
)
from .geometry import (
    BBox, average_boxes, box_array, clip_outside, crop_many, inside_frame, usable
)
from .loss import LossWeights
from .net import Model, forward_classifier, forward_features, forward_margins
from .sampler import Sampler, SamplerConfig
from .train import StepConfig, _patch_side, finetune_initial, finetune_update

log = logging.getLogger(__name__)

# The precision the m candidates are cropped and scored in. On 800 boxes
# of a 360x240 frame (one BLAS thread, medians of 60 interleaved calls),
# float32 cut the crop from 9.9 to 7.5 ms and the 1024-input forward from
# 4.9 to 2.2 ms; its patches lie within 2e-7 of the float64 ones.
# Candidates are ranked by logit margin, which float32 resolves where the
# softmax saturates (see net.forward_margins). The averaged box is
# re-scored in float64, as training scores patches.
SCORE_DTYPE = np.float32

# The log-scale step of the ladder the candidates are snapped to: level
# l holds the previous box scaled by exp(l * LADDER_STEP), so a snapped
# box is off its drawn size by at most 1.3%. At the default sigma_scale
# of 0.05, 800 candidates fall on 11-15 levels, and on the tracking
# benchmark 98.8% of them are slices of a level window. Chosen on the
# held-out easy motions (seeds 1-10) and the scale_rate 0.99 and 1.01
# rows (seeds 1-6); their mean AUCs at steps 0.0125, 0.025 and 0.05 read
# 0.743, 0.749, 0.748; 0.761, 0.765, 0.760; and 0.735, 0.755, 0.743,
# against 0.739, 0.758 and 0.738 cropping every drawn box.
LADDER_STEP = 0.025


@dataclass(frozen=True)
class TrackerConfig:
    """Candidate count, selection width, update schedule, and the
    sub-configs for sampling and the two online training phases."""

    m: int = 800
    top_k: int = 5
    update_period: int = 5
    update_score_threshold: float = 0.95
    sampler: SamplerConfig = SamplerConfig()
    init_train: StepConfig = StepConfig(iterations=300, optimizer="sgd")
    update_train: StepConfig = StepConfig(iterations=50, optimizer="sgd")

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if not 1 <= self.top_k <= self.m:
            raise ConfigError(
                f"top_k must lie in [1, m={self.m}], got {self.top_k}"
            )
        if self.update_period < 1:
            raise ConfigError(
                f"update_period must be >= 1, got {self.update_period}"
            )


@dataclass
class TrackResult:
    """One tracked frame: 1-based frame number (2..T), the predicted
    box, its classifier score, and whether the update condition fired."""

    frame: int
    box: BBox
    score: float
    updated: bool


def select(candidates: np.ndarray, scores: np.ndarray, top_k: int) -> tuple[np.ndarray, BBox]:
    """The (top_k,) indices of the highest of (m,) scores, in descending
    order with exact ties in index order, and the anchored average of
    those rows of the (m, 4) candidates. Higher is better; any score
    that orders the candidates will do, and track_frame passes logit
    margins. NaN sorts last, so a NaN among the top k means fewer than
    top_k scores are numbers: that raises NumericalError rather than
    average unranked boxes at random."""
    top = np.argsort(-scores, kind="stable")[:top_k]
    nan = int(np.isnan(scores[top]).sum())
    if nan:
        raise NumericalError(f"{nan} of the top {len(top)} candidate scores are NaN")
    return top, average_boxes(candidates[top])


def _ladder(level: np.ndarray, prev: BBox, side: int):
    """At each of (n,) ladder levels: the box size, the origin of the
    level's grid of one output pixel (the previous box scaled about its
    center), and that grid's pitch, as three (n, 2) x/y arrays. Level 0
    gives back the previous box bit for bit."""
    base = np.array([prev.w, prev.h])
    size = np.exp(level * LADDER_STEP)[:, None] * base
    return size, np.array([prev.x, prev.y]) + (base - size) / 2, size / side


def _windows(levels, which, cell, prev: BBox, side: int, frame_wh: np.ndarray):
    """Plan the windows of the ladder levels in (L,) levels, whose
    candidates sit at (n, 2) grid cells, candidate i in level which[i].
    All windows share one side D, in cells. A level gets a window if its
    candidates' cells fit in D x D, D x D cells of its grid fit on the
    frame, and D^2 is fewer samples than its candidates' patches; D is
    the level extent that saves the most samples. Returns D, the (L, 2)
    first cell of each window, the (L, 4) window boxes, and the (L,)
    mask of the levels that get one (all False when no window pays).
    Needs at least one candidate."""
    count = np.bincount(which)
    cell, bounds = cell[np.argsort(which, kind="stable")], np.cumsum(count) - count
    lo = np.minimum.reduceat(cell, bounds, axis=0)
    hi = np.maximum.reduceat(cell, bounds, axis=0)
    _, origin, pitch = _ladder(levels, prev, side)
    first = np.ceil(-origin / pitch)
    room = (np.floor((frame_wh - origin) / pitch) - first).min(axis=1)
    extent = (hi - lo).max(axis=1) + side
    samples = count * side**2
    sides = np.unique(extent)[:, None]
    fits = (extent <= sides) & (sides <= room) & (sides**2 < samples)
    best = int(np.argmax(np.where(fits, samples - sides**2, 0).sum(axis=1)))
    wide = int(sides[best, 0])
    start = np.maximum(hi + side - wide, first)
    boxes = np.concatenate([origin + start * pitch, pitch * wide], axis=1)
    used = fits[best] & (start <= lo).all(axis=1) & inside_frame(boxes, *frame_wh)
    return wide, start, boxes, used


def crop_candidates(
    image: np.ndarray, drawn: np.ndarray, prev: BBox, side: int, dtype=SCORE_DTYPE
) -> tuple[np.ndarray, np.ndarray]:
    """The boxes track_frame ranks, as an (m, 4) array, and their
    (m, S, S[, C]) patches in dtype, normalized as crop_many normalizes.

    Each drawn candidate is snapped to the nearest ladder level of its
    width, then to that level's grid of one output pixel. A level's
    candidates are then S x S slices of one window, a box of D x D grid
    cells that covers them. One crop_many call resamples the windows of
    the levels where that pays (see _windows), and each slice has its
    own mean subtracted. Every other candidate keeps its drawn box and is
    cropped per box in one more call: a snapped box that would leave the
    frame, a candidate the sampler clipped at the frame edge, or one in
    a sparse level.
    """
    img = np.asarray(image)
    m, frame_wh = len(drawn), np.array(img.shape[1::-1], dtype=np.float64)
    level = np.rint(np.log(drawn[:, 2] / prev.w) / LADDER_STEP)
    size, origin, pitch = _ladder(level, prev, side)
    cell = np.rint((drawn[:, :2] - origin) / pitch)
    boxes = np.concatenate([origin + cell * pitch, size], axis=1)
    # The sampler's clip of a box at the frame edge changes its shape.
    shaped = np.isclose(drawn[:, 2] * prev.h, drawn[:, 3] * prev.w, rtol=1e-9, atol=0.0)
    ok = np.flatnonzero(shaped & inside_frame(boxes, *frame_wh))
    if len(ok):
        levels, which = np.unique(level[ok], return_inverse=True)
        wide, start, windows, used = _windows(levels, which, cell[ok], prev, side, frame_wh)
        ok, which = ok[used[which]], which[used[which]]
    if not len(ok):
        return drawn.copy(), crop_many(img, drawn, side, dtype)
    rest = np.ones(m, dtype=bool)
    rest[ok] = False
    crops = crop_many(img, windows[used], wide, dtype)
    # The runs of S pixels (with their channels) along each window row;
    # a candidate's patch is S of them, one per row. A candidate cropped
    # per box reads window 0's first patch until it is overwritten.
    depth = int(np.prod(img.shape[2:], dtype=int))
    runs = np.lib.stride_tricks.sliding_window_view(
        crops.reshape(len(crops), wide, -1), side * depth, axis=2
    )
    at = np.zeros((m, 3), dtype=np.intp)
    at[ok, 0] = (np.cumsum(used) - 1)[which]
    at[ok, 1:] = (cell[ok] - start[which])[:, ::-1]
    at[:, 2] *= depth
    patches = runs[at[:, :1], at[:, 1:2] + np.arange(side), at[:, 2:]]
    flat = patches.reshape(m, -1)
    flat -= flat.mean(axis=1, keepdims=True)
    patches = patches.reshape((m, side, side) + img.shape[2:])
    boxes[rest] = drawn[rest]
    if rest.any():
        patches[rest] = crop_many(img, drawn[rest], side, dtype)
    return boxes, patches


def track_frame(
    model: Model,
    frame: Frame,
    prev_box: BBox,
    config: TrackerConfig,
    sampler: Sampler,
) -> tuple[BBox, float, np.ndarray]:
    """Predict the target box in one frame.

    Draws config.m candidates around prev_box, crops them with
    crop_candidates (snapped to the scale ladder where a window serves
    them, as drawn elsewhere), ranks them by float32 logit margin and
    averages the top k. Returns (predicted box, float64 score of the
    averaged patch, the (top_k,) indices of the selected candidates in
    selection order). The model is only read. Raises SamplerExhausted when no usable candidate
    can be drawn around prev_box, and NumericalError when a parameter is
    not finite in SCORE_DTYPE or a selected top-k margin is NaN.
    """
    if not usable([prev_box])[0]:
        raise ValueError(f"previous box must be finite with positive size, got {prev_box}")
    drawn = sampler.sample_candidates(prev_box, config.m, frame.width, frame.height)
    side = _patch_side(model, frame)
    candidates, patches = crop_candidates(frame.pixels, drawn, prev_box, side)
    margins = forward_margins(model, patches.reshape(config.m, -1))
    top, pred = select(candidates, margins, config.top_k)
    patch = crop_many(frame.pixels, [pred], side).ravel()
    score = float(forward_classifier(model, forward_features(model, patch)))
    return pred, score, top


def track_sequence(
    model: Model,
    sequence: Sequence,
    config: TrackerConfig,
    weights: LossWeights = LossWeights(),
) -> tuple[Model, list[TrackResult]]:
    """Run the full loop over a sequence: initial finetune on frame 1,
    then one TrackResult per frame t = 2..T. Returns the final model
    (it evolves through updates) and the records.

    Tracking never aborts mid-sequence: once frame 2 is reached, a
    frame that fails carries the previous box forward, and an update
    that raises SamplerExhausted or NumericalError is dropped; both are
    logged. The first-frame finetune runs before that and is not
    covered: its SamplerExhausted or NumericalError propagates, and no
    record is returned."""
    if sequence.T < 2:
        raise ConfigError(
            f"sequence {sequence.name!r} has {sequence.T} frame(s); need >= 2"
        )
    first = sequence.frames[0]
    fw, fh = first.width, first.height
    model = finetune_initial(
        model, first, sequence.groundtruth[0], config.init_train, config.sampler, weights
    )
    sampler = Sampler(config.sampler)
    prev = BBox(*clip_outside(box_array(sequence.groundtruth[:1]), fw, fh)[0].tolist())

    records: list[TrackResult] = []
    for t in range(2, sequence.T + 1):
        frame = sequence.frames[t - 1]
        try:
            pred, score, _ = track_frame(model, frame, prev, config, sampler)
        except (SamplerExhausted, NumericalError) as exc:
            log.warning("frame %d: %s; carrying previous box", t, exc)
            pred, score = prev, math.nan
        updated = (
            t % config.update_period == 0 and score > config.update_score_threshold
        )
        if updated:
            # A per-frame seed keeps update draws independent of each
            # other while leaving the candidate stream untouched.
            update_sampler = replace(config.sampler, seed=config.sampler.seed + t)
            try:
                model = finetune_update(
                    model, frame, pred, config.update_train, update_sampler, weights
                )
            except (SamplerExhausted, NumericalError) as exc:
                log.warning("frame %d: online update dropped: %s", t, exc)
        records.append(TrackResult(t, pred, float(score), updated))
        prev = pred
    return model, records


RESULTS_HEADER = "frame,x,y,w,h,score,updated"


def write_results(records: Iterable[TrackResult], path: str | Path) -> None:
    """Per-sequence results CSV. Floats are written with repr so a
    re-run with the same seeds is byte-identical."""
    rows = ((r.frame, *map(float, r.box.as_tuple()), float(r.score), r.updated) for r in records)
    write_rows(path, rows, RESULTS_HEADER)


def read_results(path: str | Path) -> list[TrackResult]:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        raise FormatError(f"{path}: expected header {RESULTS_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise FormatError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            x, y, w, h, score = (float(v) for v in parts[1:6])
            updated = {"0": False, "1": True}[parts[6]]
        except (ValueError, KeyError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        box = BBox(x, y, w, h)
        # a NaN score is legal (carried-forward frames); a NaN box is not
        if not usable([box])[0]:
            raise FormatError(f"{path}:{lineno}: box {x},{y},{w},{h} is not a valid box")
        records.append(TrackResult(frame, box, score, updated))
    return records
