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


def loss_c(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between a consecutive-frame positive
    pair: small when the embedding respects temporal appearance
    continuity."""
    fa, fb = _pair(fa, fb)
    d = fa - fb
    return np.sum(d * d, axis=-1)


def loss_d(fp: np.ndarray, fn: np.ndarray, beta: float = LossWeights.beta) -> np.ndarray:
    """exp(-beta * ||fp - fn||^2): near 1 when a positive/negative pair
    collapses together, decaying to 0 as they separate."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    return np.exp(-beta * loss_c(fp, fn))


def loss_s(
    p_pos: np.ndarray, p_neg: np.ndarray, p_floor: float = LossWeights.p_floor
) -> np.ndarray:
    """Pairwise cross entropy -log((1 - p_neg) * p_pos), with both
    probabilities clamped into [p_floor, 1 - p_floor] to guard log(0)."""
    pp = np.clip(np.asarray(p_pos, dtype=np.float64), p_floor, 1.0 - p_floor)
    pn = np.clip(np.asarray(p_neg, dtype=np.float64), p_floor, 1.0 - p_floor)
    return -(np.log1p(-pn) + np.log(pp))


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


def loss_terms(
    f_a: np.ndarray | None,
    f_b: np.ndarray | None,
    f_neg: np.ndarray | None,
    p_pos: np.ndarray,
    p_neg: np.ndarray,
    weights: LossWeights,
    variant: str = "full",
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray]:
    """(total, loss_c, loss_d, loss_s) per row, each term unweighted and
    None where the variant drops it; total is total_loss. The one place
    that decides which terms a variant uses."""
    s = loss_s(p_pos, p_neg, weights.p_floor)
    total = weights.mu * s
    if not uses_pair(variant):
        return total, None, None, s
    if f_a is None or f_b is None:
        raise ValueError(f"variant {variant!r} needs the positive pair")
    c = loss_c(f_a, f_b)
    total = c + total
    d = None
    if variant != "wo-Dloss":
        if f_neg is None:
            raise ValueError(f"variant {variant!r} needs negative features")
        d = loss_d(f_a, f_neg, weights.beta)
        total = total + weights.lam * d
    return total, c, d, s


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
    return loss_terms(f_a, f_b, f_neg, p_pos, p_neg, weights, variant)[0]
