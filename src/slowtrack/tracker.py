"""Online tracking loop: candidate scoring, top-k box averaging, and
periodic online finetuning.

Frame 1 is given; its ground-truth box seeds an initial finetune. Each
later frame draws candidate boxes around the previous prediction,
crops and scores them all with a frozen forward pass in SCORE_DTYPE
(float32), ranked by fc5 logit margin, and re-scores in float64 the box
that `select` chooses on arrays: the anchored average of the top-k
candidates (ties broken by candidate index, lowest first; a NaN in the
top k raises). That float64 score is the record's. Every
update_period-th frame whose score clears the update threshold triggers
a short finetune on samples drawn around the current prediction, in
float64 like all training. A frame whose candidate sampling fails, whose
model does not fit float32, or whose top-k margins include NaN, carries
the previous box forward, and a failed update is dropped — tracking
never aborts mid-sequence.
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
from .geometry import BBox, average_boxes, box_array, clip_outside, crop_many, usable
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


def track_frame(
    model: Model,
    frame: Frame,
    prev_box: BBox,
    config: TrackerConfig,
    sampler: Sampler,
) -> tuple[BBox, float, np.ndarray]:
    """Predict the target box in one frame.

    Returns (predicted box, float64 score of the averaged patch, the
    (top_k,) indices of the selected candidates in selection order). The
    model is only read. Raises SamplerExhausted when no usable candidate
    can be drawn around prev_box, and NumericalError when a parameter is
    not finite in SCORE_DTYPE or a selected top-k margin is NaN.
    """
    if not usable([prev_box])[0]:
        raise ValueError(f"previous box must be finite with positive size, got {prev_box}")
    candidates = sampler.sample_candidates(prev_box, config.m, frame.width, frame.height)
    side = _patch_side(model, frame)
    patches = crop_many(frame.pixels, candidates, side, SCORE_DTYPE).reshape(config.m, -1)
    top, pred = select(candidates, forward_margins(model, patches), config.top_k)
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
