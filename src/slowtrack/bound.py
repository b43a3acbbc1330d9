"""Monte Carlo checks for the tracker's feature-error guarantee.

The guarantee, in plain terms: draw m noisy samples of the target's
n-dimensional feature vector, each dimension with variance at most
``max_var``. With probability at least 1 - rho, where
rho = n * max_var / (m * delta^2), every per-dimension sample mean
lands within delta of the true feature; and whenever that happens, the
distance between an arbitrary predicted feature and the next frame's
true feature is at most

    mean_j sqrt(L_j)  +  n * (delta + K * dt)

with L_j the squared distance from the prediction to the j-th sample
and K a cap on the per-dimension feature drift per unit time. The two
verifiers below estimate both probabilities by direct simulation and
compare them against the closed forms, with a one-sided binomial slack
so a tight bound does not flake on finite trials.

The noise comes from ``np.random.default_rng(seed)``, at variance
``max_var``; the error-bound verifier draws its predictions from a
second generator spawned from the same seed, so neither stream depends
on how the trials are split up.

The error-bound verifier's blind spot: by the triangle inequality and
the convexity of the norm, a trial can fail only when the sample mean
strays from the truth by more than n * delta in L2 norm, which for
Gaussian noise at n >= 3 is a chi-squared(n) > n^3 event (about 6e-6 at
n = 3, below 1e-12 at the default n = 4). A pass there carries no
information; at n = 1 the verifier can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, write_rows

# One-sided 99% standard-normal quantile, hardcoded so the binomial
# slack needs no scipy.
Z_99 = 2.3263478740408408

GENERATORS = ("gaussian", "uniform", "bernoulli")
PREDICTORS = ("truth", "noisy", "adversarial")
TRIALS = 10_000  # default trial count of both verifiers

# Float64 elements per block (4 MiB). Each verifier allocates one block
# per call and fills it in place for every run of whole trials: the
# noise is drawn into it and, in the error-bound verifier, differenced
# and squared there too, and every other array it forms is a fraction of
# the block. So its memory does not grow with trials, and each random
# stream continues across runs, so the size changes no report.
# Not below 1 MiB: freeing a block raises glibc's heap trim threshold
# to twice its size. Each pass of `net.finite_diff_check` allocates and
# frees up to about 1 MiB of activations; until the threshold is above
# that, the heap gives them back and the next pass page-faults them
# afresh (checking a 1024-128-32-32-16-2 model in a fresh process takes
# about 690k faults, 21k after freeing a 512 KiB block, 500 after 1 or
# 4 MiB).
_BLOCK_ELEMS = 1 << 19


@dataclass(frozen=True)
class BoundParams:
    """Knobs of the feature-error guarantee.

    n is the feature dimension, m the number of samples per frame,
    delta the per-dimension deviation allowance, K the largest
    per-dimension feature change per unit time, dt the time between
    frames, and max_var the declared cap on per-dimension feature
    variance. delta must strictly exceed sqrt(n/m * max_var), which
    also keeps rho below 1.
    """

    n: int = 4
    m: int = 100
    delta: float = 0.5
    K: float = 0.1
    dt: float = 1.0
    max_var: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.delta <= 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if self.K < 0:
            raise ConfigError(f"K must be >= 0, got {self.K}")
        if self.dt < 0:
            raise ConfigError(f"dt must be >= 0, got {self.dt}")
        if self.max_var < 0:
            raise ConfigError(f"max_var must be >= 0, got {self.max_var}")
        floor = math.sqrt(self.n / self.m * self.max_var)
        if self.delta <= floor:
            raise ConfigError(
                f"delta={self.delta} gives no guarantee: it must exceed "
                f"sqrt(n/m * max_var) = {floor}"
            )


def rho(params: BoundParams) -> float:
    """Failure probability of the sample-mean concentration event."""
    return params.n * params.max_var / (params.m * params.delta**2)


def bound_value(continuity_losses, params: BoundParams):
    """Closed-form error ceiling from m squared prediction-to-sample
    distances: a float for an (m,) array, one ceiling per row of a
    (..., m) array."""
    losses = np.asarray(continuity_losses, dtype=float)
    if losses.ndim < 1 or losses.shape[-1] != params.m:
        raise ValueError(
            f"expected {params.m} continuity losses, got shape {losses.shape}"
        )
    if losses.size and losses.min() < 0:
        raise ValueError(f"continuity losses must be >= 0, min is {losses.min()}")
    ceiling = _ceiling(np.sqrt(losses), params)
    return float(ceiling) if losses.ndim == 1 else ceiling


def _ceiling(roots: np.ndarray, params: BoundParams) -> np.ndarray:
    """bound_value from the square roots of the losses, unchecked."""
    return roots.mean(axis=-1) + params.n * (params.delta + params.K * params.dt)


def sample_noise(
    kind: str, var: float, rng: np.random.Generator, shape
) -> np.ndarray:
    """Zero-mean noise with per-dimension variance exactly ``var``."""
    return _fill_noise(kind, var, rng, np.empty(shape))


def _fill_noise(kind: str, var: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Write sample_noise's draws into the C-contiguous float64 ``out``,
    with the operations numpy's normal and uniform apply: the same values
    bit for bit, and the stream left where sample_noise of out's shape
    leaves it."""
    if var < 0:
        raise ConfigError(f"noise variance must be >= 0, got {var}")
    if kind == "gaussian":
        rng.standard_normal(out=out)
        out *= math.sqrt(var)
        out += 0.0  # normal's loc; at scale 0 it turns -0.0 into 0.0
        return out
    if kind == "uniform":
        high = math.sqrt(3.0 * var)
        low = -high
        rng.random(out=out)
        out *= high - low
        out += low
        return out
    if kind == "bernoulli":
        # Symmetric two-point mass at +-sqrt(var). integers has no out=,
        # so its draws come in slices of at most an eighth of out; the
        # stream continues across calls, so the slices change no value.
        scale, flat = math.sqrt(var), out.reshape(-1)
        step = max(1, flat.size // 8)
        for i in range(0, flat.size, step):
            part = flat[i : i + step]
            np.multiply(rng.integers(0, 2, size=part.size), 2.0, out=part)
            part -= 1.0
            part *= scale
        return out
    raise ConfigError(f"unknown noise generator {kind!r}; pick one of {GENERATORS}")


@dataclass
class BoundReport:
    """Outcome of one Monte Carlo verification run."""

    label: str
    trials: int
    rho: float
    violation_rate: float
    satisfaction_rate: float
    slack: float
    passed: bool


CSV_HEADER = "trial_param_set,rho,violation_rate,satisfaction_rate,pass"


def write_reports(reports: Iterable[BoundReport], path: str | Path) -> None:
    rows = ((r.label, r.rho, r.violation_rate, r.satisfaction_rate, r.passed) for r in reports)
    write_rows(path, rows, CSV_HEADER)


def _binomial_slack(level: float, trials: int) -> float:
    return Z_99 * math.sqrt(level * (1.0 - level) / trials)


def _trial_blocks(trials: int, m: int, n: int):
    """One (run, m, n) float64 block of at most _BLOCK_ELEMS elements (at
    least one trial), allocated once; yields its first k trials as a view
    for each consecutive run of k trials, so a run refills the block."""
    run = min(trials, max(1, _BLOCK_ELEMS // (m * n)))
    block = np.empty((run, m, n))
    for done in range(0, trials, run):
        yield block[: min(run, trials - done)]


def verify_chebyshev(
    params: BoundParams,
    noise: str = "gaussian",
    trials: int = TRIALS,
    seed: int = 0,
    label: str | None = None,
) -> BoundReport:
    """Estimate how often any per-dimension sample mean strays from the
    truth by delta or more; the rate must stay at or below rho.

    A trial draws m feature vectors with noise at the variance cap,
    averages them per dimension, and is flagged if any dimension's mean
    misses by >= delta.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    n, m = params.n, params.m
    flagged = 0
    for draws in _trial_blocks(trials, m, n):
        _fill_noise(noise, params.max_var, rng, draws)
        deviated = np.abs(draws.mean(axis=1)) >= params.delta
        flagged += int(np.count_nonzero(deviated.any(axis=1)))
    level = rho(params)
    violation = flagged / trials
    slack = _binomial_slack(level, trials)
    return BoundReport(
        label=label or f"chebyshev-{noise}",
        trials=trials,
        rho=level,
        violation_rate=violation,
        satisfaction_rate=1.0 - violation,
        slack=slack,
        passed=violation <= level + slack,
    )


@dataclass
class Scenario:
    """One simulated tracking step in feature space.

    The true feature vector is 0 at time t and ``drift`` at time t+1;
    each dimension of the drift must stay within K*dt. The m positive
    samples are ``noise`` at the variance cap max_var. ``predictor``
    controls the simulated tracker output: "truth" returns the t+1
    feature itself, "noisy" perturbs it with Gaussian noise of std
    ``predictor_scale``, and "adversarial" shoves it a fixed distance
    ``predictor_scale`` in a random direction.
    """

    drift: np.ndarray
    noise: str = "gaussian"
    predictor: str = "noisy"
    predictor_scale: float = 1.0


def standard_scenario(
    params: BoundParams,
    noise: str = "gaussian",
    predictor: str = "noisy",
    predictor_scale: float = 1.0,
) -> Scenario:
    """Scenario at the guarantee's edge: truth at 0, drift of K*dt in
    every dimension with alternating sign, noise at the variance cap."""
    drift = params.K * params.dt * (-1.0) ** np.arange(params.n)
    return Scenario(drift, noise, predictor, predictor_scale)


def _predict(
    scenario: Scenario, truth_next: np.ndarray, rng: np.random.Generator, k: int
) -> np.ndarray:
    n = truth_next.shape[0]
    if scenario.predictor == "truth":
        return np.tile(truth_next, (k, 1))
    if scenario.predictor == "noisy":
        return truth_next + rng.normal(0.0, scenario.predictor_scale, size=(k, n))
    direction = rng.normal(size=(k, n))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    direction /= np.where(norms == 0.0, 1.0, norms)
    return truth_next + scenario.predictor_scale * direction


def _block_ceilings(pred: np.ndarray, block: np.ndarray, params: BoundParams) -> np.ndarray:
    """bound_value of each trial's prediction against its samples, a
    (k, n) and a (k, m, n) array; the squared distances are formed in the
    block, which is overwritten. The (k, m) losses die on return, so no
    run's losses are alive while the next run forms its own."""
    np.subtract(pred[:, None, :], block, out=block)
    losses = np.square(block, out=block).sum(axis=2)
    return _ceiling(np.sqrt(losses, out=losses), params)


def verify_error_bound(
    params: BoundParams,
    scenario: Scenario,
    trials: int = TRIALS,
    seed: int = 0,
    label: str | None = None,
) -> BoundReport:
    """Simulate prediction errors and count how often the distance to
    the next true feature stays under the closed-form ceiling; the
    fraction must reach 1 - rho.

    Per trial: draw the m samples, produce a prediction, measure its
    distance to the t+1 truth, and compare against ``bound_value`` of
    the squared prediction-to-sample distances.

    At n >= 3 a trial fails only on a chi-squared(n) > n^3 event (see
    the module docstring), so a pass there carries no information; at
    n = 1 the verifier can fail.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    n, m = params.n, params.m
    truth_next = np.asarray(scenario.drift, dtype=float)
    if truth_next.shape != (n,):
        raise ConfigError(f"scenario drift must have shape ({n},), got {truth_next.shape}")
    cap = params.K * params.dt
    if np.abs(truth_next).max() > cap:
        raise ConfigError(
            f"per-dimension drift must stay within K*dt = {cap}, "
            f"largest is {np.abs(truth_next).max()}"
        )
    if scenario.predictor not in PREDICTORS:
        raise ConfigError(
            f"unknown predictor {scenario.predictor!r}; pick one of {PREDICTORS}"
        )
    if scenario.predictor_scale < 0:
        raise ConfigError("predictor_scale must be >= 0")

    noise_rng = np.random.default_rng(seed)
    pred_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    satisfied = 0
    for block in _trial_blocks(trials, m, n):
        _fill_noise(scenario.noise, params.max_var, noise_rng, block)
        pred = _predict(scenario, truth_next, pred_rng, len(block))
        err = np.linalg.norm(pred - truth_next, axis=1)
        satisfied += int(np.count_nonzero(err <= _block_ceilings(pred, block, params)))
    level = rho(params)
    satisfaction = satisfied / trials
    slack = _binomial_slack(level, trials)
    return BoundReport(
        label=label or f"error-bound-{scenario.noise}-{scenario.predictor}",
        trials=trials,
        rho=level,
        violation_rate=1.0 - satisfaction,
        satisfaction_rate=satisfaction,
        slack=slack,
        passed=satisfaction >= 1.0 - level - slack,
    )
