"""The benchmark's own computations, used to check slowtrack's outputs.

Nothing here imports slowtrack: boxes are plain (x, y, w, h) tuples, so
a fault in the program's geometry or evaluation code cannot hide itself
by agreeing with its own check.
"""

from __future__ import annotations

import math
from statistics import NormalDist

CENTER_LIMIT_PX = 20.0
# One-sided 99% standard-normal quantile, computed here rather than
# read from slowtrack.bound.
Z_99 = NormalDist().inv_cdf(0.99)


def center_error(pred, gt) -> float:
    """Distance in pixels between the centers of two x/y/w/h boxes."""
    px, py, pw, ph = pred
    gx, gy, gw, gh = gt
    return math.hypot((px + pw / 2) - (gx + gw / 2), (py + ph / 2) - (gy + gh / 2))


def overlap(pred, gt) -> float:
    """Intersection over union of two x/y/w/h boxes."""
    px, py, pw, ph = pred
    gx, gy, gw, gh = gt
    ix = max(min(px + pw, gx + gw) - max(px, gx), 0.0)
    iy = max(min(py + ph, gy + gh) - max(py, gy), 0.0)
    inter = ix * iy
    return inter / (pw * ph + gw * gh - inter)


def frame_failed(pred, gt, score: float) -> bool:
    """A tracked frame fails when its center misses by more than 20 px or
    its score is NaN (the tracker carried the previous box forward)."""
    return math.isnan(score) or center_error(pred, gt) > CENTER_LIMIT_PX


def is_positive(box, gt) -> bool:
    """The box is gt moved by whole pixels, 1 or 2 along some axis."""
    dx, dy = box[0] - gt[0], box[1] - gt[1]
    return (box[2:] == gt[2:] and dx == int(dx) and dy == int(dy)
            and 1 <= max(abs(dx), abs(dy)) <= 2)


def precision_at_20(preds, gts) -> float:
    """Share of frames whose center error is at most 20 px."""
    hits = sum(center_error(p, g) <= CENTER_LIMIT_PX for p, g in zip(preds, gts))
    return hits / len(gts)


def success_auc(preds, gts) -> float:
    """Mean over IoU thresholds 0, 0.05, ..., 1 of the share of frames
    whose overlap exceeds the threshold."""
    ious = [overlap(p, g) for p, g in zip(preds, gts)]
    taus = [i / 20 for i in range(21)]
    return sum(sum(v > t for v in ious) / len(ious) for t in taus) / len(taus)


def trace_row_problems(rows, lam: float, mu: float, rel: float = 1e-9) -> list[str]:
    """Rows whose loss is not loss_c + lam * loss_d + mu * loss_s."""
    problems = []
    for row in rows:
        want = row.loss_c + lam * row.loss_d + mu * row.loss_s
        if not math.isclose(row.loss, want, rel_tol=rel, abs_tol=0.0):
            problems.append(f"trace step {row.step}: loss {row.loss!r} != terms {want!r}")
    return problems


def loss_halves(losses, window: int) -> bool:
    """Mean loss over the last window is below half that of the first."""
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    return last < 0.5 * first


def concentration_rho(n: int, m: int, max_var: float, delta: float) -> float:
    """rho = n * max_var / (m * delta^2)."""
    return n * max_var / (m * delta * delta)


def violation_limit(rho: float, trials: int) -> float:
    """Highest violation rate a sound bound allows at 99% confidence."""
    return rho + Z_99 * math.sqrt(rho * (1.0 - rho) / trials)
