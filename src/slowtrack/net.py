"""The learnable model: a feature embedding (fc1-fc2) feeding a
two-class centroid classifier (fc3-fc5), with manual forward/backward
passes in double precision and a finite-difference gradient checker.

Everything is plain numpy; no autodiff. Layout convention: an input
batch is (B, r) and weights are (fan_in, fan_out), so layers compose as
`X @ W + b`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, NumericalError
from .loss import LossWeights, loss_terms, total_loss, uses_pair

PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "W4", "b4", "W5", "b5")
# The two layer groups: the feature embedding and the centroid classifier.
FEATURE_PARAMS = PARAM_NAMES[:4]
CLASSIFIER_PARAMS = PARAM_NAMES[4:]

# FeatureVec is a plain (n,) float64 array; no wrapper class.


@dataclass
class Model:
    """Five fully-connected layers: dims = (r, h1, n, h3, h4, 2).

    fc1-fc2 map a flattened patch to the n-dim feature space (fc2 output
    is linear); fc3-fc5 map a feature vector to two class logits.
    """

    dims: tuple[int, int, int, int, int, int]
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray
    W4: np.ndarray
    b4: np.ndarray
    W5: np.ndarray
    b5: np.ndarray

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_NAMES]

    def n_params(self) -> int:
        return sum(arr.size for _, arr in self.params())

    def copy(self) -> "Model":
        kw = {name: arr.copy() for name, arr in self.params()}
        return Model(dims=self.dims, **kw)

    def assert_finite(self) -> None:
        check_finite(self.params())


class FlatParams(dict):
    """Named arrays laid end to end in one flat float64 vector, `vec`:
    each value is a view of its stretch of `vec`, in insertion order, so
    one call on `vec` runs an elementwise pass or a check over all of
    them. `shapes` lists (name, shape) pairs whose sizes add up to
    `vec.size`."""

    def __init__(self, vec: np.ndarray, shapes: Iterable[tuple[str, tuple[int, ...]]]):
        super().__init__()
        self.vec = vec
        start = 0
        for name, shape in shapes:
            size = math.prod(shape)
            self[name] = vec[start : start + size].reshape(shape)
            start += size
        if start != vec.size:
            raise ValueError(f"shapes hold {start} entries, the vector {vec.size}")

    @classmethod
    def of(cls, arrays: Iterable[tuple[str, np.ndarray]]) -> "FlatParams":
        """A FlatParams holding a copy of each (name, array) pair."""
        arrays = list(arrays)
        vec = np.concatenate([np.ravel(arr) for _, arr in arrays] or [np.empty(0)])
        return cls(vec, [(name, np.shape(arr)) for name, arr in arrays])

    def zeros(self) -> "FlatParams":
        """A FlatParams of zeros laid out like this one."""
        return FlatParams(np.zeros_like(self.vec), self.shapes())

    def run(self, names: Iterable[str]) -> "FlatParams":
        """The arrays `names`, consecutive here, as a FlatParams whose
        vector is a slice of this one's."""
        names, keys = list(names), list(self)
        first = keys.index(names[0]) if names else 0
        if keys[first : first + len(names)] != names:
            raise ValueError(f"{names} are not consecutive in {keys}")
        start = sum(self[name].size for name in keys[:first])
        size = sum(self[name].size for name in names)
        return FlatParams(self.vec[start : start + size], self.shapes(names))

    def shapes(self, names: Iterable[str] | None = None) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, self[name].shape) for name in (self if names is None else names)]


def _first_non_finite(
    arrays: Iterable[tuple[str, np.ndarray]], vec: np.ndarray | None = None
) -> str | None:
    """The name of the first (name, array) pair holding a non-finite
    value, or None. `vec`, one flat array of exactly the pairs' entries,
    is checked first with one reduction, and the pairs are searched only
    when that fails: vec·vec is NaN or inf when an entry is, and finite
    otherwise unless it overflows (entries past about 1e154), a false
    alarm that the search clears."""
    if vec is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(np.dot(vec, vec)):
                return None
    for name, arr in arrays:
        if not np.all(np.isfinite(arr)):
            return name
    return None


def check_finite(
    params: Iterable[tuple[str, np.ndarray]], vec: np.ndarray | None = None
) -> None:
    """Raise NumericalError naming the first (name, array) pair that
    holds a non-finite value. With `vec`, a flat array of exactly the
    pairs' entries, the check is one reduction unless it fails."""
    name = _first_non_finite(params, vec)
    if name is not None:
        raise NumericalError(f"non-finite values in parameter {name}")


def _checked_dims(dims) -> tuple[int, ...]:
    """dims as ints: six positive layer sizes ending in the two classes."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 6:
        raise ConfigError(f"dims must have 6 entries, got {dims}")
    if any(d <= 0 for d in dims):
        raise ConfigError(f"all dims must be positive, got {dims}")
    if dims[5] != 2:
        raise ConfigError(f"the classifier is two-class; dims[5] must be 2, got {dims[5]}")
    return dims


def init_model(dims: tuple[int, ...], seed: int) -> Model:
    """Fan-in-scaled uniform init (limit sqrt(6/fan_in), i.e. std
    sqrt(2/fan_in)), zero biases. Deterministic given seed."""
    dims = _checked_dims(dims)
    rng = np.random.default_rng(seed)
    kw = {}
    for i in range(5):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / fan_in)
        kw[f"W{i + 1}"] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        kw[f"b{i + 1}"] = np.zeros(fan_out)
    return Model(dims=dims, **kw)


def _as_batch(X: np.ndarray, r: int, what: str) -> tuple[np.ndarray, bool]:
    """Coerce (r,) or (B, r) input to (B, r); returns (array, was_single)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
        single = True
    elif X.ndim == 2:
        single = False
    else:
        raise ValueError(f"{what}: expected 1-D or 2-D input, got shape {X.shape}")
    if X.shape[1] != r:
        raise ValueError(f"{what}: expected length {r}, got {X.shape[1]}")
    return X, single


def _feat_forward(model: Model, X: np.ndarray, pre: np.ndarray | None = None):
    u1 = (X @ model.W1 if pre is None else pre) + model.b1
    r1 = np.maximum(u1, 0.0)
    f = r1 @ model.W2 + model.b2
    return f, (X, u1, r1)


def _clf_forward(model: Model, F: np.ndarray):
    u3 = F @ model.W3 + model.b3
    r3 = np.maximum(u3, 0.0)
    u4 = r3 @ model.W4 + model.b4
    r4 = np.maximum(u4, 0.0)
    z = r4 @ model.W5 + model.b5
    zs = z - z.max(axis=-1, keepdims=True)
    e = np.exp(zs)
    P = e / e.sum(axis=-1, keepdims=True)
    return P, (F, u3, r3, u4, r4)


def forward_features(
    model: Model, patch: np.ndarray, pre: np.ndarray | None = None
) -> np.ndarray:
    """Embed flattened patches: fc2(relu(fc1(x))). Accepts (r,) or (B, r).
    A caller that holds the patches' fc1 products `patch @ W1` passes
    them as `pre`, which skips that GEMM and changes no bit."""
    X, single = _as_batch(patch, model.dims[0], "forward_features")
    f, _ = _feat_forward(model, X, pre)
    return f[0] if single else f


def forward_classifier(model: Model, feat: np.ndarray) -> np.ndarray:
    """Probability that a feature vector is a centered-object sample:
    softmax over the two fc5 logits, class-1 component."""
    F, single = _as_batch(feat, model.dims[2], "forward_classifier")
    P, _ = _clf_forward(model, F)
    p = P[:, 1]
    return float(p[0]) if single else p


@dataclass
class TripletBatch:
    """Flattened patch arrays for one step: positive anchors `a`, their
    paired positives `b` (consecutive-frame or same-frame), negatives
    `n`. `b` may be None only when the variant ignores the pair term."""

    a: np.ndarray
    b: np.ndarray | None
    n: np.ndarray


@dataclass
class PoolBatch:
    """A triplet batch of rows of a fixed pool of K patches: `pre` is the
    pool's (K, h1) fc1 pre-activations without the bias, and a, b, n are
    index arrays into its rows, b None without a pair term.

    The rows enter fc1 as one-hot selectors over the pool with `pre` as
    fc1's weights, so u1 = S·pre + b1 picks each row's pre-activations
    exactly, and the "W1" gradient backward returns is Sᵀ·du1: the (K, h1)
    matrix D of du1 summed onto the pool rows. The gradient of W1 itself
    is poolᵀ·D, so an SGD step moves W1 only within the pool's span."""

    pre: np.ndarray
    a: np.ndarray
    b: np.ndarray | None
    n: np.ndarray


class LossTerms(NamedTuple):
    """Batch means from one backward pass: the combined loss and the
    unweighted value of each term, 0.0 for a term the variant drops."""

    loss: float
    loss_c: float
    loss_d: float
    loss_s: float


def _forward(model: Model, batch: TripletBatch | PoolBatch, variant: str):
    """The one forward pass of a triplet or pool batch. The streams are stacked
    as rows a | n | b, b only when the variant has a pair term, and go
    through one feature pass; a | n go through one classifier pass.
    Returns the features (f_a, f_b, f_n), f_b None without a pair term;
    the softmax outputs (P_a, P_n) of anchors and negatives, all as row
    views of the stacked outputs; and the (feature, classifier) layer
    caches of the stacked rows, which keep the pre-activations u1, u3
    and u4.

    The parameters may carry a leading stack axis (one model per slice):
    the passes broadcast over it, so the views slice the row axis with
    `...` in front. A PoolBatch's rows are one-hot selectors over the
    pool, through an fc1 whose weights are its pre-activations.
    """
    pair = uses_pair(variant)  # an unknown variant raises before any forward
    if isinstance(batch, PoolBatch):
        select = np.eye(batch.pre.shape[0])
        rows = (None if i is None else select[i] for i in (batch.a, batch.b, batch.n))
        model = replace(model, dims=(len(select),) + model.dims[1:], W1=batch.pre)
        batch = TripletBatch(*rows)
    r = model.dims[0]
    A, _ = _as_batch(batch.a, r, "triplet anchors")
    N, _ = _as_batch(batch.n, r, "triplet negatives")
    B = A.shape[0]
    if N.shape[0] != B:
        raise ValueError("anchor/negative batch size mismatch")
    streams = [A, N]
    if pair:
        if batch.b is None:
            raise ValueError(f"variant {variant!r} needs the paired positives")
        Bp, _ = _as_batch(batch.b, r, "paired positives")
        if Bp.shape[0] != B:
            raise ValueError("pair batch size mismatch")
        streams.append(Bp)
    F, feat_cache = _feat_forward(model, np.concatenate(streams))
    P, clf_cache = _clf_forward(model, F[..., : 2 * B, :])
    f_b = F[..., 2 * B :, :] if pair else None
    feats = F[..., :B, :], f_b, F[..., B : 2 * B, :]
    return feats, (P[..., :B, :], P[..., B:, :]), (feat_cache, clf_cache)


def backward(
    model: Model,
    batch: TripletBatch | PoolBatch,
    weights: LossWeights,
    variant: str = "full",
    names: tuple[str, ...] | FlatParams = PARAM_NAMES,
) -> tuple[dict[str, np.ndarray], LossTerms]:
    """Analytic gradients of the batch-mean combined loss for the
    parameters in `names`, and the LossTerms of the batch, all from one
    forward pass and one loss_terms evaluation. Without a feature
    parameter in `names` the feature layers are not differentiated.
    When `names` is a FlatParams, each gradient is written into its
    view, by the same operations, and all are checked with one
    reduction over its vector.

    LossTerms.loss is the mean of total_loss; loss_c, loss_d and loss_s
    are the means of the pair, discrimination and classification terms
    before weighting. For a PoolBatch, "W1" holds the pool coefficients
    D of the fc1 gradient (see PoolBatch). Raises NumericalError naming
    the first parameter in `names` whose gradient is not finite.
    """
    (f_a, f_b, f_n), (P_a, P_n), (feat_cache, clf_cache) = _forward(model, batch, variant)
    p_a, p_n = P_a[:, 1], P_n[:, 1]
    rows = loss_terms(f_a, f_b, f_n, p_a, p_n, weights, variant)
    terms = LossTerms(*(0.0 if t is None else float(np.mean(t)) for t in rows))
    _, c, d, _ = rows
    B = f_a.shape[0]

    # Classification term: d/dp of -log(p_a_c) and -log(1 - p_n_c), gated
    # to zero where the probability clamp is active, then through softmax
    # via dP1/dz_j = P1 (1[j=1] - P_j).
    floor = weights.p_floor
    e1 = np.array([0.0, 1.0])
    dLdp_a = np.where(
        (p_a > floor) & (p_a < 1.0 - floor),
        -1.0 / np.clip(p_a, floor, 1.0 - floor),
        0.0,
    ) * (weights.mu / B)
    dLdp_n = np.where(
        (p_n > floor) & (p_n < 1.0 - floor),
        1.0 / (1.0 - np.clip(p_n, floor, 1.0 - floor)),
        0.0,
    ) * (weights.mu / B)
    dz = np.concatenate([
        dLdp_a[:, None] * P_a[:, 1:2] * (e1 - P_a),
        dLdp_n[:, None] * P_n[:, 1:2] * (e1 - P_n),
    ])

    grads: dict[str, np.ndarray] = dict(names) if isinstance(names, FlatParams) else {}
    df_clf = _clf_backward(model, grads, clf_cache, dz)
    if not set(names).isdisjoint(FEATURE_PARAMS):
        # one gradient row per stacked feature row, a | n | b as in _forward
        df = np.zeros((feat_cache[0].shape[0], f_a.shape[1]))
        df_a, df_n, df_b = df[:B], df[B : 2 * B], df[2 * B :]
        if c is not None:
            diff = (2.0 / B) * (f_a - f_b)
            df_a += diff
            df_b -= diff
        if d is not None:
            # d is exp(-beta * ||f_a - f_n||^2), the factor of its gradient
            dd = f_a - f_n
            coef = (-2.0 * weights.beta * weights.lam / B) * d
            df_a += coef[:, None] * dd
            df_n -= coef[:, None] * dd
        df[: 2 * B] += df_clf
        _feat_backward(model, grads, feat_cache, df)

    # In parameter order, so the error names the first non-finite layer.
    grads = {name: grads[name] for name in PARAM_NAMES if name in names}
    bad = _first_non_finite(grads.items(), names.vec if isinstance(names, FlatParams) else None)
    if bad is not None:
        raise NumericalError(f"non-finite gradient in layer {bad}")
    return grads, terms


# The two layer backwards write each gradient into the array `grads`
# already holds under its name, if any, and add it otherwise.


def _clf_backward(model: Model, grads, cache, dz: np.ndarray) -> np.ndarray:
    F, _, r3, _, r4 = cache
    grads["W5"] = np.matmul(r4.T, dz, out=grads.get("W5"))
    grads["b5"] = np.sum(dz, axis=0, out=grads.get("b5"))
    du4 = (dz @ model.W5.T) * (r4 > 0)
    grads["W4"] = np.matmul(r3.T, du4, out=grads.get("W4"))
    grads["b4"] = np.sum(du4, axis=0, out=grads.get("b4"))
    du3 = (du4 @ model.W4.T) * (r3 > 0)
    grads["W3"] = np.matmul(F.T, du3, out=grads.get("W3"))
    grads["b3"] = np.sum(du3, axis=0, out=grads.get("b3"))
    return du3 @ model.W3.T


def _feat_backward(model: Model, grads, cache, df: np.ndarray) -> None:
    X, _, r1 = cache
    grads["W2"] = np.matmul(r1.T, df, out=grads.get("W2"))
    grads["b2"] = np.sum(df, axis=0, out=grads.get("b2"))
    du1 = (df @ model.W2.T) * (r1 > 0)
    grads["W1"] = np.matmul(X.T, du1, out=grads.get("W1"))
    grads["b1"] = np.sum(du1, axis=0, out=grads.get("b1"))


@dataclass
class FDFailure:
    param: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class FDReport:
    passed: bool
    max_rel_err: float
    entries_checked: int
    per_param: dict[str, float]
    failures: list[FDFailure]

    def __str__(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"gradient check {state}: {self.entries_checked} entries, "
            f"max relative error {self.max_rel_err:.3e}"
            + (f", {len(self.failures)} failures" if self.failures else "")
        )


# Bytes of stacked parameter copies evaluated per forward pass in
# finite_diff_check; caps the check's extra memory at any model size.
FD_CHUNK_BYTES = 2 << 20
FD_TOL = 1e-4  # default relative-error tolerance of finite_diff_check

# finite_diff_check's central-difference step, and conditioned_batch's
# batch: COND_ROWS rows of N(0, COND_SCALE) entries, on which a step moves
# a pre-activation by at most ~FD_STEP * ||x|| ~ 3e-5. COND_KINK_MARGIN
# keeps a ~30x safety factor over that while staying findable even for
# wide layers (hundreds of taps must all clear it).
FD_STEP = 1e-5
COND_KINK_MARGIN = 1e-3
COND_P_MARGIN = 0.01
COND_ROWS = 4
COND_SCALE = 0.3


def finite_diff_check(
    model: Model,
    batch: TripletBatch,
    weights: LossWeights,
    tol: float = FD_TOL,
    variant: str = "full",
    params: list[str] | None = None,
    analytic: dict[str, np.ndarray] | None = None,
) -> FDReport:
    """Compare analytic gradients against central finite differences of
    step h = FD_STEP.

    The +h and -h copies of one parameter array are stacked along a
    leading axis and evaluated in chunks through the ordinary forward
    pass, one pass per chunk; the other parameters stay unstacked, so
    layers upstream of the perturbed one run once. A chunk holds at
    most FD_CHUNK_BYTES of stacked copies (at least one entry's pair),
    which caps the check's extra memory. The model is not modified.

    Error metric per entry: |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-4), which behaves like a relative error with an
    absolute-tolerance floor of 1e-4 * tol for near-zero gradients.
    Failures are collected in the report, never raised. `params` limits
    the check to a subset of parameter names; `analytic` substitutes an
    externally supplied gradient set (for fault-injection tests).
    """
    names = PARAM_NAMES if params is None else tuple(params)
    for name in names:
        if name not in PARAM_NAMES:
            raise ConfigError(f"unknown parameter name {name!r}")
    if sum(getattr(model, name).size for name in names) == 0:
        return FDReport(True, 0.0, 0, {n: 0.0 for n in names}, [])

    if analytic is None:
        analytic, _ = backward(model, batch, weights, variant, names)
    max_rel = 0.0
    per_param: dict[str, float] = {}
    failures: list[FDFailure] = []
    checked = 0
    for name in names:
        arr = getattr(model, name)
        grad = analytic[name].reshape(-1)
        # a bias (m,) stacks as (P, 1, m) so it broadcasts over the batch rows
        stack_shape = (1,) * (2 - arr.ndim) + arr.shape
        chunk = max(1, FD_CHUNK_BYTES // (2 * arr.nbytes))
        # One buffer of copies per parameter: each chunk perturbs its
        # entries in place and restores them after its forward. Copying the
        # parameter afresh for every chunk made the check about 10% slower.
        copies = np.repeat(arr.reshape(1, -1), 2 * min(chunk, arr.size), axis=0)
        worst = 0.0
        for start in range(0, arr.size, chunk):
            flat = np.arange(start, min(start + chunk, arr.size))
            k = flat.size
            stack = copies[: 2 * k]
            rows, cols = np.arange(2 * k), np.tile(flat, 2)
            stack[rows[:k], flat] += FD_STEP
            stack[rows[k:], flat] -= FD_STEP
            perturbed = replace(model, **{name: stack.reshape((2 * k,) + stack_shape)})
            (f_a, f_b, f_n), (P_a, P_n), _ = _forward(perturbed, batch, variant)
            p_a, p_n = P_a[..., 1], P_n[..., 1]
            loss = total_loss(f_a, f_b, f_n, p_a, p_n, weights, variant).mean(axis=-1)
            stack[rows, cols] = arr.reshape(-1)[cols]
            numeric = (loss[:k] - loss[k:]) / (2.0 * FD_STEP)
            a = grad[flat]
            rel = np.abs(a - numeric) / np.maximum(
                np.maximum(np.abs(a), np.abs(numeric)), 1e-4
            )
            # np.maximum and ~(rel < tol) let a NaN error fail the check
            worst = float(np.maximum(worst, rel.max()))
            for j in np.flatnonzero(~(rel < tol)):
                idx = tuple(int(i) for i in np.unravel_index(flat[j], arr.shape))
                failures.append(
                    FDFailure(name, idx, float(a[j]), float(numeric[j]), float(rel[j]))
                )
            checked += k
        per_param[name] = worst
        max_rel = float(np.maximum(max_rel, worst))
    return FDReport(max_rel < tol, max_rel, checked, per_param, failures)


def conditioned_batch(
    model: Model, rng: np.random.Generator, max_tries: int = 200
) -> TripletBatch:
    """Draw a random triplet batch on which finite differences are a
    trustworthy oracle.

    Central differences break down near ReLU kinks (the secant straddles
    the corner) and in saturated softmax regions (1/p blows up the
    curvature), so batches whose pre-activations come within
    COND_KINK_MARGIN of zero or whose class probabilities leave
    [COND_P_MARGIN, 1 - COND_P_MARGIN] are redrawn. A NaN pre-activation
    or probability redraws the batch too.
    """
    r = model.dims[0]
    for _ in range(max_tries):
        batch = TripletBatch(*(rng.normal(0.0, COND_SCALE, (COND_ROWS, r)) for _ in range(3)))
        _, (P_a, P_n), (feat_cache, clf_cache) = _forward(model, batch, "full")
        # u1 of all three streams; u3, u4 of anchors and negatives
        pre = (feat_cache[1], clf_cache[1], clf_cache[3])
        p = np.concatenate([P_a[:, 1], P_n[:, 1]])
        if all(np.all(np.abs(u) >= COND_KINK_MARGIN) for u in pre) and np.all(
            (p >= COND_P_MARGIN) & (p <= 1.0 - COND_P_MARGIN)
        ):
            return batch
    raise NumericalError(
        f"no well-conditioned batch found in {max_tries} tries; "
        "the model may be saturated"
    )


MAGIC = "CDNN1"


def save_model(model: Model, path: str | Path) -> None:
    """Text format: magic, dims line, the nonlinearity line (always
    "relu"), then one line of round-trip-exact decimal floats per
    weight-matrix row / bias vector."""
    lines = [MAGIC, " ".join(str(d) for d in model.dims), "relu"]
    for _, arr in model.params():
        for row in np.atleast_2d(arr):
            lines.append(" ".join(map(repr, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path: str | Path) -> Model:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != MAGIC:
        got = lines[0] if lines else "<empty>"
        raise FormatError(f"{path}:1: bad magic {got!r}, expected {MAGIC!r}")
    if len(lines) < 3:
        raise FormatError(f"{path}: truncated header")
    try:
        dims = _checked_dims(lines[1].split())
    except ValueError:
        raise FormatError(f"{path}:2: unparsable dims line {lines[1]!r}") from None
    except ConfigError as exc:
        raise FormatError(f"{path}:2: {exc}") from None
    nonlinearity = lines[2].strip()
    if nonlinearity != "relu":
        raise FormatError(f"{path}:3: unknown nonlinearity {nonlinearity!r}")

    shapes = []
    for i in range(5):
        shapes.append((f"W{i + 1}", (dims[i], dims[i + 1])))
        shapes.append((f"b{i + 1}", (dims[i + 1],)))
    kw = {}
    lineno = 3
    for name, shape in shapes:
        rows = shape[0] if len(shape) == 2 else 1
        cols = shape[-1]
        mat = np.empty((rows, cols))
        for j in range(rows):
            lineno += 1
            if lineno > len(lines):
                raise FormatError(f"{path}: truncated in {name} (line {lineno} missing)")
            toks = lines[lineno - 1].split()
            if len(toks) != cols:
                raise FormatError(
                    f"{path}:{lineno}: expected {cols} values for {name}, got {len(toks)}"
                )
            try:
                mat[j] = [float(t) for t in toks]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
        kw[name] = mat.reshape(shape)
    for extra in lines[lineno:]:
        if extra.strip():
            raise FormatError(f"{path}: trailing content after parameters")
    model = Model(dims=dims, **kw)
    model.assert_finite()
    return model
