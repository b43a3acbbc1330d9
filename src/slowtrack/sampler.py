"""Sample-drawing protocols used by training and tracking.

Four protocols live here, all owned by a single seeded Sampler so every
draw is a deterministic function of (inputs, seed, call order):

* positives: the ground-truth box shifted by a small integer offset,
* negatives: rejection-sampled boxes whose IoU with the ground truth
  falls in a fixed window,
* candidates: Gaussian center / log-normal scale proposals around the
  previous prediction,
* update batches: positives and negatives drawn inside a search window
  of twice the predicted box size.

All four draw through one capped rejection loop, Sampler._draw_until.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, SamplerExhausted
from .geometry import BBox, clip_outside, iou_many, on_frame, usable


@dataclass(frozen=True)
class SamplerConfig:
    """The sampling protocols' settings. max_rejections caps the
    proposals of one positive, negative or update draw; a candidate draw
    of m boxes is capped at 1000 * m proposals instead."""

    lo: float = 0.2
    hi: float = 0.6
    shift_max: int = 2
    m_p: int = 16
    m_n: int = 32
    sigma_xy: float = 0.25
    sigma_scale: float = 0.05
    max_rejections: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.lo < self.hi <= 1.0):
            raise ConfigError(
                f"need 0 < lo < hi <= 1, got lo={self.lo}, hi={self.hi}"
            )
        if self.shift_max not in (1, 2):
            raise ConfigError(f"shift_max must be 1 or 2, got {self.shift_max}")
        if self.m_p < 1 or self.m_n < 1:
            raise ConfigError("m_p and m_n must be >= 1")
        if self.sigma_xy < 0 or self.sigma_scale < 0:
            raise ConfigError("sigmas must be non-negative")
        if self.max_rejections < 1:
            raise ConfigError("max_rejections must be >= 1")


# Update-time label thresholds. Proposals between the two are discarded
# rather than labeled.
UPDATE_POS_IOU = 0.9
UPDATE_NEG_IOU = 0.6

# Translation std for update-time positive proposals, as a fraction of
# box size. IoU >= 0.9 tolerates center offsets of only ~5% of the box
# side, so proposing much wider would waste nearly every draw.
_UPDATE_POS_SIGMA = 0.03


def _positive_offsets(shift_max: int) -> list[tuple[int, int]]:
    return [
        (dx, dy)
        for dx in range(-shift_max, shift_max + 1)
        for dy in range(-shift_max, shift_max + 1)
        if max(abs(dx), abs(dy)) >= 1
    ]


class Sampler:
    """Owns one RNG stream; not meant to be shared across workers."""

    def __init__(self, config: SamplerConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self._offsets = np.array(_positive_offsets(config.shift_max), dtype=np.float64)

    # -- positives ---------------------------------------------------------

    def sample_positives(self, gt: BBox, frame_w: float, frame_h: float) -> list[BBox]:
        """The draw of positive_rows as BBox objects."""
        rows = self.positive_rows(gt, frame_w, frame_h)
        return [BBox(*row) for row in rows.tolist()]

    def positive_rows(self, gt: BBox, frame_w: float, frame_h: float) -> np.ndarray:
        """Draw m_p copies of gt shifted by a uniform integer offset with
        1 <= max(|dx|,|dy|) <= shift_max, as an (m_p, 4) x/y/w/h array.
        Size is never changed; a copy with no overlap with the frame is
        redrawn, up to max_rejections draws in all."""

        def propose(k: int) -> np.ndarray:
            d = self._offsets[self.rng.integers(len(self._offsets), size=k)]
            return np.stack(
                [gt.x + d[:, 0], gt.y + d[:, 1], np.full(k, gt.w), np.full(k, gt.h)], axis=1
            )

        return self._draw_until(
            self.config.m_p, propose, lambda prop: on_frame(prop, frame_w, frame_h),
            "positive sampling", overdraw=False,
        )

    # -- negatives ---------------------------------------------------------

    def sample_negatives(self, gt: BBox) -> tuple[list[BBox], np.ndarray]:
        """The draw of negative_rows, on a frame with no right or bottom
        edge, as BBox objects, together with their recorded IoUs."""
        rows = self.negative_rows(gt, math.inf, math.inf)
        return [BBox(*row) for row in rows.tolist()], iou_many(rows, gt)

    def negative_rows(self, gt: BBox, frame_w: float, frame_h: float) -> np.ndarray:
        """Rejection-sample m_n boxes with lo <= IoU(box, gt) <= hi and
        some overlap with the frame from a Gaussian translation /
        log-normal scale perturbation of gt, as an (m_n, 4) x/y/w/h
        array."""
        cfg = self.config
        sigma = cfg.sigma_xy * max(gt.w, gt.h)
        return self._draw_until(
            cfg.m_n,
            lambda k: self._perturb(gt, k, sigma, cfg.sigma_scale),
            lambda p: _iou_between(p, gt, cfg.lo, cfg.hi) & on_frame(p, frame_w, frame_h),
            "negative sampling",
        )

    # -- candidates ----------------------------------------------------------

    def sample_candidates(
        self, prev: BBox, m: int, frame_w: float, frame_h: float
    ) -> np.ndarray:
        """Draw m candidate boxes around prev as an (m, 4) x/y/w/h array:
        centers jittered by a zero-mean Gaussian with std
        sigma_xy * max(w, h), sizes scaled by exp(N(0, sigma_scale)),
        clipped to the frame. A draw whose clipped box has no positive
        size, which crop_many would reject, is redrawn, up to 1000 * m
        draws in all."""
        cfg = self.config
        step = cfg.sigma_xy * max(prev.w, prev.h)

        return self._draw_until(
            m,
            lambda k: clip_outside(self._perturb(prev, k, step, cfg.sigma_scale), frame_w, frame_h),
            lambda prop: on_frame(prop, frame_w, frame_h),
            "candidate sampling", overdraw=False, cap=1000 * max(m, 1),
        )

    # -- online update batches ---------------------------------------------

    def sample_update_batch(
        self, pred: BBox, frame_w: float, frame_h: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw the online-update training batch inside a window of twice
        pred's size centered on pred (clipped to the frame): an (m_p, 4)
        x/y/w/h array of positives with IoU >= 0.9 and an (m_n, 4) array
        of negatives with lo <= IoU <= 0.6. Proposals in the (0.6, 0.9)
        gap are discarded. Positives are drawn first, each half with its
        own max_rejections budget."""
        cfg = self.config
        window = BBox(
            pred.x - pred.w / 2, pred.y - pred.h / 2, 2 * pred.w, 2 * pred.h
        ).clipped(frame_w, frame_h)
        if not usable([window])[0]:
            raise SamplerExhausted(f"update window off-frame for {pred}")

        def propose_negatives(k: int) -> np.ndarray:
            cx = self.rng.uniform(window.x, window.x + window.w, size=k)
            cy = self.rng.uniform(window.y, window.y + window.h, size=k)
            s = np.exp(self.rng.normal(0.0, cfg.sigma_scale, size=k))
            w, h = pred.w * s, pred.h * s
            return np.stack([cx - w / 2, cy - h / 2, w, h], axis=1)

        sigma_pos = _UPDATE_POS_SIGMA * max(pred.w, pred.h)
        positives = self._draw_until(
            cfg.m_p,
            lambda k: self._perturb(pred, k, sigma_pos, 0.0),
            lambda prop: (iou_many(prop, pred) >= UPDATE_POS_IOU) & _centers_in(prop, window),
            "update positives",
        )
        negatives = self._draw_until(
            cfg.m_n,
            propose_negatives,
            lambda prop: _iou_between(prop, pred, cfg.lo, UPDATE_NEG_IOU),
            "update negatives",
        )
        return positives, negatives

    # -- triplets ------------------------------------------------------------

    def build_triplets(
        self, n_pos_t: int, n_pos_t1: int, n_neg_t: int, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pair three pools of the given sizes into `count` uniformly
        random triplets; returns one index array into each pool. An empty
        pool raises ValueError unless count is 0."""
        js = self.rng.integers(n_pos_t, size=count)
        ks = self.rng.integers(n_pos_t1, size=count)
        ls = self.rng.integers(n_neg_t, size=count)
        return js, ks, ls

    # -- internals -----------------------------------------------------------

    def _draw_until(
        self, need: int, propose: Callable, accept: Callable, what: str,
        overdraw: bool = True, cap: int | None = None,
    ) -> np.ndarray:
        """The capped rejection loop of every protocol: propose(k) gives a
        (k, 4) box array and the rows the mask accept(prop) selects are
        kept in order until `need` are found. A round asks for
        max(4 * remaining, 64) boxes, or with overdraw=False only the
        remaining ones (then it makes no draw that one draw per box would
        not), and at most the unspent cap, max_rejections by default.
        Returns a (need, 4) array; raises SamplerExhausted as "<what>
        found n/need in k attempts" once the cap is spent."""
        cap = self.config.max_rejections if cap is None else cap
        out = np.empty((need, 4))
        n = attempts = 0
        while n < need:
            rem = need - n
            k = min(max(4 * rem, 64) if overdraw else rem, cap - attempts)
            if k <= 0:
                raise SamplerExhausted(f"{what} found {n}/{need} in {attempts} attempts")
            attempts += k
            prop = propose(k)
            kept = prop[accept(prop)][: need - n]
            out[n : n + len(kept)] = kept
            n += len(kept)
        return out

    def _perturb(
        self, base: BBox, k: int, sigma_center: float, sigma_scale: float
    ) -> np.ndarray:
        """(k, 4) array of boxes: centers shifted by N(0, sigma_center),
        both sides scaled by a shared exp(N(0, sigma_scale)) per box.

        Built corner-relative so the zero-noise case reproduces `base`
        bitwise (center round trips are not exact in floating point).
        """
        dx = self.rng.normal(0.0, sigma_center, size=k) if sigma_center > 0 else np.zeros(k)
        dy = self.rng.normal(0.0, sigma_center, size=k) if sigma_center > 0 else np.zeros(k)
        if sigma_scale > 0:
            s = np.exp(self.rng.normal(0.0, sigma_scale, size=k))
        else:
            s = np.ones(k)
        w = base.w * s
        h = base.h * s
        x = base.x + dx + (base.w - w) / 2
        y = base.y + dy + (base.h - h) / 2
        return np.stack([x, y, w, h], axis=1)


def _iou_between(boxes: np.ndarray, ref: BBox, lo: float, hi: float) -> np.ndarray:
    iou = iou_many(boxes, ref)
    return (iou >= lo) & (iou <= hi)


def _centers_in(boxes: np.ndarray, window: BBox) -> np.ndarray:
    cx = boxes[:, 0] + boxes[:, 2] / 2
    cy = boxes[:, 1] + boxes[:, 3] / 2
    return (
        (cx >= window.x)
        & (cx <= window.x + window.w)
        & (cy >= window.y)
        & (cy <= window.y + window.h)
    )
