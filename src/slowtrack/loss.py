"""Loss terms for joint appearance-continuity / centroid-discrimination
training, and their weighted combination.

All functions accept single feature vectors (n,) or batches (B, n) and
return a scalar or (B,) array accordingly. Batch reduction is left to
the caller and is an arithmetic mean throughout this package: a mean
(rather than a sum over all index pairs) keeps the learning rate
meaningful independent of batch size. This is a deliberate deviation
from the summed form of the original objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

VARIANTS = ("full", "wo-C-learning", "wo-Dloss", "SlossOnly", "tarspec")


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights and stabilizers for the combined loss."""

    lam: float = 10.0
    mu: float = 10.0
    beta: float = 1.0
    p_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.lam < 0 or self.mu < 0:
            raise ConfigError(f"lam and mu must be >= 0, got {self.lam}, {self.mu}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if not (0.0 < self.p_floor < 0.5):
            raise ConfigError(f"p_floor must be in (0, 0.5), got {self.p_floor}")


def _pair(fa: np.ndarray, fb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    fa = np.asarray(fa, dtype=np.float64)
    fb = np.asarray(fb, dtype=np.float64)
    if fa.shape != fb.shape:
        raise ValueError(f"feature shape mismatch: {fa.shape} vs {fb.shape}")
    return fa, fb


def _squared_norm(diff: np.ndarray) -> np.ndarray:
    # np.add.reduce is what np.sum calls, without its Python wrapper
    return np.add.reduce(diff * diff, axis=-1)


def _clamped(p: np.ndarray, p_floor: float) -> np.ndarray:
    # np.clip's bits, NaN included, without its Python wrapper
    return np.minimum(np.maximum(np.asarray(p, dtype=np.float64), p_floor), 1.0 - p_floor)


def _closeness(diff: np.ndarray, beta: float) -> np.ndarray:
    return np.exp(-beta * _squared_norm(diff))


def _cross_entropy(pp: np.ndarray, pn: np.ndarray) -> np.ndarray:
    return -(np.log1p(-pn) + np.log(pp))


def loss_c(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between a consecutive-frame positive
    pair: small when the embedding respects temporal appearance
    continuity."""
    fa, fb = _pair(fa, fb)
    return _squared_norm(fa - fb)


def loss_d(fp: np.ndarray, fn: np.ndarray, beta: float = LossWeights.beta) -> np.ndarray:
    """exp(-beta * ||fp - fn||^2): near 1 when a positive/negative pair
    collapses together, decaying to 0 as they separate."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    fp, fn = _pair(fp, fn)
    return _closeness(fp - fn, beta)


def loss_s(
    p_pos: np.ndarray, p_neg: np.ndarray, p_floor: float = LossWeights.p_floor
) -> np.ndarray:
    """Pairwise cross entropy -log((1 - p_neg) * p_pos), with both
    probabilities clamped into [p_floor, 1 - p_floor] to guard log(0)."""
    return _cross_entropy(_clamped(p_pos, p_floor), _clamped(p_neg, p_floor))


def loss_p(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """The paper's same-frame pair term (first-frame finetuning, and the
    ablation that replaces cross-frame continuity learning). It is the
    loss_c kernel, so total_loss uses loss_c for every pair."""
    return loss_c(fa, fb)


def uses_pair(variant: str) -> bool:
    """Whether the variant's loss has the pair term, so that a batch
    needs paired positives. Raises ConfigError for an unknown variant."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return variant != "SlossOnly"


class LossPass(NamedTuple):
    """What the gradient of the loss reads, from one evaluation on a
    batch: the clamped probabilities, the feature differences f_a - f_b
    (`pair`) and f_a - f_neg (`apart`), and the loss_d rows; None where
    the variant drops the term. loss_rows turns it into the loss."""

    p_pos: np.ndarray
    p_neg: np.ndarray
    pair: np.ndarray | None
    apart: np.ndarray | None
    d: np.ndarray | None


def loss_pass(
    f_a: np.ndarray | None,
    f_b: np.ndarray | None,
    f_neg: np.ndarray | None,
    p_pos: np.ndarray,
    p_neg: np.ndarray,
    weights: LossWeights,
    variant: str = "full",
) -> LossPass:
    """What the loss and its gradient read, and the one place that
    decides which terms a variant uses. Unused feature arguments may be
    None; missing required ones raise ValueError."""
    pp, pn = _clamped(p_pos, weights.p_floor), _clamped(p_neg, weights.p_floor)
    if not uses_pair(variant):
        return LossPass(pp, pn, None, None, None)
    if f_a is None or f_b is None:
        raise ValueError(f"variant {variant!r} needs the positive pair")
    f_a, f_b = _pair(f_a, f_b)
    if variant == "wo-Dloss":
        return LossPass(pp, pn, f_a - f_b, None, None)
    if f_neg is None:
        raise ValueError(f"variant {variant!r} needs negative features")
    f_a, f_neg = _pair(f_a, f_neg)
    apart = f_a - f_neg
    return LossPass(pp, pn, f_a - f_b, apart, _closeness(apart, weights.beta))


def loss_rows(
    lp: LossPass, weights: LossWeights
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray]:
    """(total, loss_c, loss_d, loss_s) per row of a loss_pass, each term
    unweighted and None where the variant drops it; total is total_loss."""
    s = _cross_entropy(lp.p_pos, lp.p_neg)
    total = weights.mu * s
    if lp.pair is None:
        return total, None, None, s
    c = _squared_norm(lp.pair)
    total = c + total
    if lp.d is not None:
        total = total + weights.lam * lp.d
    return total, c, lp.d, s


def total_loss(
    f_a: np.ndarray | None,
    f_b: np.ndarray | None,
    f_neg: np.ndarray | None,
    p_pos: np.ndarray,
    p_neg: np.ndarray,
    weights: LossWeights,
    variant: str = "full",
) -> np.ndarray:
    """Weighted combination: pair term + lam * discrimination + mu *
    classification.

    The pair term is loss_c(f_a, f_b) wherever the positive pair comes
    from: consecutive frames offline, the same frame when finetuning
    (loss_p is the same kernel). The variant switchboard zeroes terms:
    "wo-Dloss" drops the discrimination term, "SlossOnly" keeps only the
    classification term. ("wo-C-learning" and "tarspec" change *what the
    trainer feeds and updates*, not this formula.)

    Unused feature arguments may be None; missing required ones raise
    ValueError.
    """
    return loss_rows(loss_pass(f_a, f_b, f_neg, p_pos, p_neg, weights, variant), weights)[0]
