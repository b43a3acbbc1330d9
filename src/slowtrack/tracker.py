"""Online tracking loop: candidate scoring, top-k box averaging, and
periodic online finetuning.

Frame 1 is given; its ground-truth box seeds an initial finetune. Each
later frame draws candidate boxes around the previous prediction,
scores them all with a frozen forward pass, averages the top-k boxes
(ties broken by candidate index, lowest first), and re-scores the
averaged box through the classifier. Every update_period-th frame whose
score clears the update threshold triggers a short finetune on samples
drawn around the current prediction. A frame whose candidate sampling
fails, or whose top-k scores include NaN, carries the previous box
forward, and a failed update is dropped — tracking never aborts mid-sequence.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .dataset import Frame, Sequence
from .errors import ConfigError, FormatError, NumericalError, SamplerExhausted
from .geometry import BBox, average_boxes, box_array, clip_outside, crop_many, usable
from .loss import LossWeights
from .net import Model, forward_classifier, forward_features
from .sampler import Sampler, SamplerConfig
from .train import StepConfig, _patch_side, finetune_initial, finetune_update

log = logging.getLogger(__name__)


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


def track_frame(
    model: Model,
    frame: Frame,
    prev_box: BBox,
    config: TrackerConfig,
    sampler: Sampler,
) -> tuple[BBox, float, list[tuple[int, float, BBox]]]:
    """Predict the target box in one frame.

    Returns (predicted box, score of the averaged patch, top-k detail
    as (candidate index, score, box) in selection order). The model is
    only read. Raises SamplerExhausted when no usable candidate can be
    drawn around prev_box, and NumericalError when a selected top-k
    score is NaN.
    """
    if not usable([prev_box])[0]:
        raise ValueError(f"previous box must be finite with positive size, got {prev_box}")
    candidates = sampler.sample_candidates(prev_box, config.m, frame.width, frame.height)
    side = _patch_side(model, frame)
    patches = crop_many(frame.pixels, candidates, side).reshape(config.m, -1)
    scores = forward_classifier(model, forward_features(model, patches))
    # Stable sort on descending score = index order among exact ties.
    order = np.argsort(-scores, kind="stable")[: config.top_k]
    # NaN sorts last, so a NaN here means fewer than top_k scores are
    # numbers; averaging unranked candidates would move the box at random.
    nan = int(np.isnan(scores[order]).sum())
    if nan:
        raise NumericalError(f"{nan} of the top {len(order)} candidate scores are NaN")
    top = [(int(i), float(scores[i]), BBox(*candidates[i])) for i in order]
    pred = average_boxes([box for _, _, box in top])
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
    lines = [RESULTS_HEADER]
    for r in records:
        b = r.box
        lines.append(
            f"{r.frame},{float(b.x)!r},{float(b.y)!r},{float(b.w)!r},"
            f"{float(b.h)!r},{float(r.score)!r},{int(r.updated)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_results(path: str | Path) -> list[TrackResult]:
    lines = Path(path).read_text().splitlines()
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
