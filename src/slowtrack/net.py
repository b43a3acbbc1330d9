"""The learnable model: a feature embedding (fc1-fc2) feeding a
two-class centroid classifier (fc3-fc5), with manual forward/backward
passes in double precision and a finite-difference gradient checker.

Everything is plain numpy; no autodiff. Layout convention: an input
batch is (B, r) and weights are (fan_in, fan_out), so layers compose as
`X @ W + b`.
"""

from __future__ import annotations

import base64
import binascii
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, NumericalError
from .loss import LossPass, LossWeights, loss_pass, loss_rows, total_loss, uses_pair

PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "W4", "b4", "W5", "b5")
# The two layer groups: the feature embedding and the centroid classifier.
FEATURE_PARAMS = PARAM_NAMES[:4]
CLASSIFIER_PARAMS = PARAM_NAMES[4:]


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

    def zeros(self, names: Iterable[str] | None = None) -> "FlatParams":
        """Zeros in a FlatParams laid out like this one's arrays `names`
        (all when None), in this one's order."""
        keep = self.keys() if names is None else set(names)
        shapes = self.shapes([name for name in self if name in keep])
        return FlatParams(np.zeros(sum(math.prod(shape) for _, shape in shapes)), shapes)

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


def _layout(dims) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) of each parameter of a model of dims, in
    PARAM_NAMES order: layer i's (fan_in, fan_out) weights, then its bias."""
    shapes = []
    for i in range(5):
        shapes += [(f"W{i + 1}", (dims[i], dims[i + 1])), (f"b{i + 1}", (dims[i + 1],))]
    return shapes


class Model(FlatParams):
    """Five fully-connected layers: dims = (r, h1, n, h3, h4, 2).

    fc1-fc2 map a flattened patch to the n-dim feature space (fc2 output
    is linear); fc3-fc5 map a feature vector to two class logits. The
    parameters W1, b1, ..., W5, b5 are views of one vector `vec`, zeros
    when none is given, laid out by _layout; `model["W1"]` reads one,
    and `model.W1` cannot be bound."""

    def __init__(self, dims, vec: np.ndarray | None = None):
        self.dims = tuple(dims)
        shapes = _layout(self.dims)
        if vec is None:
            vec = np.zeros(sum(math.prod(shape) for _, shape in shapes))
        super().__init__(vec, shapes)

    def __setattr__(self, name: str, value) -> None:
        # A rebound W1 would leave model["W1"], which the passes read, as it was.
        if name in PARAM_NAMES:
            raise AttributeError(f"{name} is a view of the model's vector; write into it")
        super().__setattr__(name, value)

    def params(self) -> list[tuple[str, np.ndarray]]:
        return list(self.items())

    def copy(self) -> "Model":
        return Model(self.dims, self.vec.copy())


def _first_non_finite(params: FlatParams) -> str | None:
    """The name of the first array of params holding a non-finite value,
    or None. The vector is checked first with one reduction, and the
    arrays are searched only when that fails: vec·vec is NaN or inf when
    an entry is, and finite otherwise unless it overflows (entries past
    about 1e154), a false alarm that the search clears."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.dot(params.vec, params.vec)):
            return None
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            return name
    return None


def check_finite(params: FlatParams) -> None:
    """Raise NumericalError naming the first array of params that holds a
    non-finite value; one reduction unless the check fails."""
    name = _first_non_finite(params)
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
    sqrt(2/fan_in)), zero biases. Deterministic given seed.

    Each weight array is drawn in place into its view of the model's
    vector, as rng.uniform(-limit, limit) draws it: a uniform [0, 1)
    draw times high - low, plus low, the same bits without a copy."""
    dims = _checked_dims(dims)
    rng = np.random.default_rng(seed)
    model = Model(dims)
    for i in range(5):
        W = model[f"W{i + 1}"]
        limit = np.sqrt(6.0 / dims[i])
        rng.random(out=W)
        W *= limit - (-limit)
        W += -limit
    return model


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


def _layers(model: Model, x: np.ndarray, first: int, last: int, pre: np.ndarray | None):
    """Layers first..last on x, the input of layer first, with a ReLU
    after each but the last. `pre`, when given, stands for x @ W_first
    and skips that GEMM; it may hold more rows than x. Returns layer
    last's pre-activation and the cache (x, u, relu(u), ...) of the
    layers before it."""
    cache = [x]
    for i in range(first, last + 1):
        u = (x @ model[f"W{i}"] if pre is None else pre) + model[f"b{i}"]
        pre = None
        if i < last:
            x = np.maximum(u, 0.0)
            cache += [u, x]
    return u, tuple(cache)


def _clf_forward(model: Model, F: np.ndarray, pre: np.ndarray | None = None, first: int = 3):
    """fc3-fc5 and the softmax on features F: the class probabilities and
    the cache (F, u3, r3, u4, r4). Entered at layer first (3, 4 or 5), F
    is that layer's input."""
    z, cache = _layers(model, F, first, 5, pre)
    # The max and the sum of the two columns, not reductions over an axis
    # of length 2, which cost more per row; the bits are the same.
    e = np.exp(z - np.maximum(z[:, :1], z[:, 1:]))
    P = e / (e[:, :1] + e[:, 1:])
    return P, cache


def forward_features(
    model: Model, patch: np.ndarray, pre: np.ndarray | None = None
) -> np.ndarray:
    """Embed flattened patches: fc2(relu(fc1(x))). Accepts (r,) or (B, r).
    A caller that holds the patches' fc1 products `patch @ W1` passes
    them as `pre`, which skips that GEMM and changes no bit."""
    X, single = _as_batch(patch, model.dims[0], "forward_features")
    f, _ = _layers(model, X, 1, 2, pre)
    return f[0] if single else f


def forward_classifier(model: Model, feat: np.ndarray) -> np.ndarray:
    """Probability that a feature vector is a centered-object sample:
    softmax over the two fc5 logits, class-1 component."""
    F, single = _as_batch(feat, model.dims[2], "forward_classifier")
    P, _ = _clf_forward(model, F)
    p = P[:, 1]
    return float(p[0]) if single else p


def forward_margins(model: Model, patches: np.ndarray) -> np.ndarray:
    """The fc5 logit margins z1 - z0 of a (B, r) batch of flattened
    patches, computed in the patches' floating dtype: the model's vector
    is cast to it once per call. The margin ranks patches as the class-1
    probability does, since that is its logistic function, but it does
    not saturate: just below 1, float32 p steps by 6e-8 and would tie
    candidates that differ by less. Raises NumericalError naming the
    first parameter that is not finite after the cast (in float32, any
    magnitude past 3.4e38)."""
    with np.errstate(over="ignore"):
        cast = Model(model.dims, model.vec.astype(patches.dtype, copy=False))
    name = _first_non_finite(cast)
    if name is not None:
        raise NumericalError(f"parameter {name} is not finite in {patches.dtype}")
    F, _ = _layers(cast, patches, 1, 2, None)
    z, _ = _layers(cast, F, 3, 5, None)
    return z[:, 1] - z[:, 0]


@dataclass
class TripletBatch:
    """Flattened patch arrays for one step: positive anchors `a`, their
    paired positives `b` (consecutive-frame or same-frame), negatives
    `n`. `b` may be None only when the variant ignores the pair term."""

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


def _forward(model: Model, batch: TripletBatch, variant: str):
    """The one forward pass of a triplet batch. The streams are stacked
    as rows a | n | b, b only when the variant has a pair term, and go
    through one feature pass; a | n go through one classifier pass.
    Returns the features (f_a, f_b, f_n), f_b None without a pair term;
    the softmax outputs (P_a, P_n) of anchors and negatives, all as row
    views of the stacked outputs; and the (feature, classifier) layer
    caches of the stacked rows, which keep the pre-activations u1, u3
    and u4.
    """
    pair = uses_pair(variant)  # an unknown variant raises before any forward
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
    F, feat_cache = _layers(model, np.concatenate(streams), 1, 2, None)
    P, clf_cache = _clf_forward(model, F[: 2 * B])
    return _streams(F, B, pair), (P[:B], P[B:]), (feat_cache, clf_cache)


def _streams(F: np.ndarray, B: int, pair: bool):
    """The features (f_a, f_b, f_n) of rows a | n | b stacked as _forward
    stacks them, on the second-to-last axis of F; f_b None without a
    pair term."""
    f_b = F[..., 2 * B :, :] if pair else None
    return F[..., :B, :], f_b, F[..., B : 2 * B, :]


def backward(
    model: Model,
    batch: TripletBatch,
    weights: LossWeights,
    variant: str = "full",
    grads: FlatParams | None = None,
) -> tuple[FlatParams, LossTerms]:
    """Analytic gradients of the batch-mean combined loss, and the
    LossTerms of the batch, all from one forward pass and one loss_pass.
    Each gradient is written into its view in `grads`, whose names are
    the parameters differentiated (all ten when None, in a fresh buffer);
    without a feature parameter in it the feature layers are not
    differentiated. Returns `grads`.

    LossTerms.loss is the mean of total_loss; loss_c, loss_d and loss_s
    are the means of the pair, discrimination and classification terms
    before weighting. Raises NumericalError naming the first parameter in
    `grads` whose gradient is not finite, checked with one reduction
    over its vector.
    """
    grads, lp = _gradient_pass(model, batch, weights, variant, grads)
    B = len(lp.p_pos)
    # np.add.reduce(t) / B is np.mean(t) for these 1-D rows, bit for bit
    rows = loss_rows(lp, weights)
    terms = LossTerms(*(0.0 if t is None else float(np.add.reduce(t) / B) for t in rows))
    return grads, terms


def gradients(
    model: Model,
    batch: TripletBatch,
    weights: LossWeights,
    variant: str = "full",
    grads: FlatParams | None = None,
) -> FlatParams:
    """backward's gradients, bit for bit, without the loss values: the
    online phases keep no loss trace, so they skip the logs and means."""
    return _gradient_pass(model, batch, weights, variant, grads)[0]


# the one-hot row of class 1, which the softmax's derivative reads
_CLASS1 = np.array([0.0, 1.0])


def _gradient_pass(
    model: Model,
    batch: TripletBatch,
    weights: LossWeights,
    variant: str,
    grads: FlatParams | None,
) -> tuple[FlatParams, LossPass]:
    """backward's gradients, and the loss_pass they read."""
    if grads is None:
        grads = model.zeros()
    (f_a, f_b, f_n), (P_a, P_n), (feat_cache, clf_cache) = _forward(model, batch, variant)
    p_a, p_n = P_a[:, 1], P_n[:, 1]
    lp = loss_pass(f_a, f_b, f_n, p_a, p_n, weights, variant)
    B = f_a.shape[0]

    # Classification term: d/dp of -log(p_a_c) and -log(1 - p_n_c), gated
    # to zero where the probability clamp is active, then through softmax
    # via dP1/dz_j = P1 (1[j=1] - P_j).
    floor = weights.p_floor
    dLdp_a = np.where(
        (p_a > floor) & (p_a < 1.0 - floor), -1.0 / lp.p_pos, 0.0
    ) * (weights.mu / B)
    dLdp_n = np.where(
        (p_n > floor) & (p_n < 1.0 - floor), 1.0 / (1.0 - lp.p_neg), 0.0
    ) * (weights.mu / B)
    dz = np.concatenate([
        dLdp_a[:, None] * P_a[:, 1:2] * (_CLASS1 - P_a),
        dLdp_n[:, None] * P_n[:, 1:2] * (_CLASS1 - P_n),
    ])

    df_clf = _layers_backward(model, clf_cache, 3, 5, dz, grads)
    if not grads.keys().isdisjoint(FEATURE_PARAMS):
        # one gradient row per stacked feature row, a | n | b as in _forward
        df = np.zeros((feat_cache[0].shape[0], f_a.shape[1]))
        df_a, df_n, df_b = df[:B], df[B : 2 * B], df[2 * B :]
        if lp.pair is not None:
            diff = (2.0 / B) * lp.pair
            df_a += diff
            df_b -= diff
        if lp.d is not None:
            # d is exp(-beta * ||f_a - f_n||^2), the factor of its gradient
            coef = (-2.0 * weights.beta * weights.lam / B) * lp.d
            df_a += coef[:, None] * lp.apart
            df_n -= coef[:, None] * lp.apart
        df[: 2 * B] += df_clf
        _layers_backward(model, feat_cache, 1, 2, df, grads)

    bad = _first_non_finite(grads)
    if bad is not None:
        raise NumericalError(f"non-finite gradient in layer {bad}")
    return grads, lp


def _layer_grads(grads: FlatParams, i: int, x: np.ndarray, du: np.ndarray) -> None:
    """Layer i's weight gradient xᵀ·du and bias gradient, du summed over
    rows, each written into grads if it holds that parameter."""
    if f"W{i}" in grads:
        np.matmul(x.T, du, out=grads[f"W{i}"])
    if f"b{i}" in grads:
        np.add.reduce(du, axis=0, out=grads[f"b{i}"])


def _layers_backward(model: Model, cache, first: int, last: int, du, grads: FlatParams):
    """_layers run backward: from the cache _layers returned for layers
    first..last and the gradient du of layer last's pre-activation, write
    each layer's gradients into grads (_layer_grads), taking du through
    the ReLU masks between layers. Returns the gradient of layer first's
    input, or None when that input is the patches (first = 1)."""
    for i in range(last, first - 1, -1):
        x = cache[2 * (i - first)]
        _layer_grads(grads, i, x, du)
        if i > first:
            du = (du @ model[f"W{i}"].T) * (x > 0)
    return du @ model[f"W{first}"].T if first > 1 else None


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


# Bytes of the stacked layer products and per-entry arrays of one pass
# of finite_diff_check (at least one entry's +h/-h pair); with the
# pass's activations the check holds a few times this, at any model
# size. 256 KiB, not 128, from two measurements of the acceptance
# gate's 64-32-16-16-8-2 checks: warm, in perfbench's `checks`, 128 KiB
# ran 16.5% slower (4 alternating pairs, none won); in a fresh process,
# where each pass's activations are page-faulted afresh (see
# bound._BLOCK_ELEMS), the gate's 20 checks took about 64k faults and
# 0.38-0.47 s at 256 KiB, against about 420 and 0.40-0.51 s at 128 KiB.
FD_CHUNK_BYTES = 256 << 10
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


def _stacked_loss(model, layer, x, copies, feats, weights, variant) -> np.ndarray:
    """The batch-mean total loss of each copy of layer `layer`'s product
    x @ W in `copies` (count, rows, fan_out). The layer forwards run from
    that layer on, on the copies' rows at once; a classifier layer's
    copies share the clean forward's features `feats`."""
    B, count = len(feats[0]), len(copies)
    rows = copies.reshape(-1, copies.shape[2])
    if layer <= 2:
        F = _layers(model, x, layer, 2, rows)[0].reshape(count, len(x), -1)
        P = _clf_forward(model, F[:, : 2 * B].reshape(count * 2 * B, -1))[0]
        feats = _streams(F, B, uses_pair(variant))
    else:
        P = _clf_forward(model, x, rows, first=layer)[0]
    P = P.reshape(count, 2 * B, 2)
    f_a, f_b, f_n = feats
    return total_loss(f_a, f_b, f_n, P[:, :B, 1], P[:, B:, 1], weights, variant).mean(axis=-1)


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

    A step in W_l[i, j] moves only column j of layer l's pre-activation,
    by h times column i of the layer's input; a step in b_l[j] moves it
    by h. So the clean forward runs once, and each chunk of k entries of
    a parameter stacks 2k copies of that layer's product x @ W_l, each
    with one column moved by +h or -h, and runs the layers from l on,
    through the layer forwards that backward differentiates, and the
    loss on the stack. Where a ReLU follows layer l (fc1, fc3 and fc4),
    the moved column j moves the next layer's product r_l @ W_{l+1} by
    the outer product of δ = relu(u_l[:, j] ± step) - r_l[:, j] and
    W_{l+1}[j, :], so the copies are of that narrower product and the
    layers run from l + 1 on. A chunk holds at most FD_CHUNK_BYTES of
    stacked products and per-entry arrays (at least one entry's pair),
    which caps the check's extra memory. The model is not modified.

    Error metric per entry: |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-4), which behaves like a relative error with an
    absolute-tolerance floor of 1e-4 * tol for near-zero gradients.
    Failures are collected in the report, never raised. `params` limits
    the check to a subset of parameter names, each named once; `analytic`
    substitutes an externally supplied gradient set (for fault-injection
    tests).
    """
    names = PARAM_NAMES if params is None else tuple(params)
    for name in names:
        if name not in PARAM_NAMES:
            raise ConfigError(f"unknown parameter name {name!r}")
        if names.count(name) > 1:
            raise ConfigError(f"parameter name {name!r} given more than once")
    if sum(model[name].size for name in names) == 0:
        return FDReport(True, 0.0, 0, {n: 0.0 for n in names}, [])

    if analytic is None:
        analytic, _ = backward(model, batch, weights, variant, model.zeros(names))
    feats, _, (feat_cache, clf_cache) = _forward(model, batch, variant)
    # each layer's input: X and r1 from the feature cache, F, r3 and r4
    # from the classifier's; and the pre-activations u1, u3, u4 of the
    # layers a ReLU follows
    inputs = feat_cache[::2] + clf_cache[::2]
    relu_pre = {1: feat_cache[1], 3: clf_cache[1], 4: clf_cache[3]}
    max_rel = 0.0
    per_param: dict[str, float] = {}
    failures: list[FDFailure] = []
    checked = 0
    for name in names:
        layer = int(name[1:])
        arr, W = model[name], model[f"W{layer}"]
        x = inputs[layer - 1]
        rows = len(x)
        # entry (i, j) moves column j of x @ W by FD_STEP * x[:, i]; a bias
        # entry moves it as a weight on an all-ones input would
        taps = x.T if name[0] == "W" else np.ones((1, rows))
        if layer in relu_pre:
            # a ReLU follows: the copies are of the next layer's product
            u, r, W_next = relu_pre[layer], inputs[layer], model[f"W{layer + 1}"]
            enter, x_enter, pre = layer + 1, r, r @ W_next
            # per entry: the moved columns and their δ (+h and -h), the
            # step, the clean columns of u and r and the row of W_next
            extra = 5 * rows + W_next.shape[1]
        else:
            enter, x_enter, pre = layer, x, x @ W
            extra = rows  # per entry: the step
        # a chunk's stacked products and the per-entry arrays beside them
        chunk = max(1, FD_CHUNK_BYTES // (8 * (2 * pre.size + extra)))
        grad = analytic[name].reshape(-1)
        worst = 0.0
        for start in range(0, arr.size, chunk):
            flat = np.arange(start, min(start + chunk, arr.size))
            k = flat.size
            i, j = np.divmod(flat, W.shape[1])
            step = FD_STEP * taps[i]
            if layer in relu_pre:
                delta = np.maximum(u[:, j].T + np.stack([step, -step]), 0.0)
                delta -= r[:, j].T
                copies = delta[..., None] * W_next[j][:, None, :]
                copies += pre
                copies = copies.reshape(2 * k, rows, -1)
            else:
                copies = np.repeat(pre[None], 2 * k, axis=0)
                plus = np.arange(k)
                copies[plus, :, j] += step
                copies[plus + k, :, j] -= step
            loss = _stacked_loss(model, enter, x_enter, copies, feats, weights, variant)
            numeric = (loss[:k] - loss[k:]) / (2.0 * FD_STEP)
            a = grad[flat]
            rel = np.abs(a - numeric) / np.maximum(
                np.maximum(np.abs(a), np.abs(numeric)), 1e-4
            )
            # np.maximum and ~(rel < tol) let a NaN error fail the check
            worst = float(np.maximum(worst, rel.max()))
            for e in np.flatnonzero(~(rel < tol)):
                idx = tuple(int(n) for n in np.unravel_index(flat[e], arr.shape))
                failures.append(
                    FDFailure(name, idx, float(a[e]), float(numeric[e]), float(rel[e]))
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


MAGIC = "CDNN2"


def save_model(model: Model, path: str | Path) -> None:
    """Write the model in the CDNN2 format: three lines, the magic, the
    six dims, and every parameter in PARAM_NAMES order as little-endian
    float64, base64-encoded (standard alphabet, padded). The format is
    exact: load_model returns bit-equal arrays."""
    vec = model.vec.astype("<f8", copy=False)
    with open(path, "wb") as f:
        f.write(f"{MAGIC}\n{' '.join(map(str, model.dims))}\n".encode())
        f.write(base64.b64encode(vec))
        f.write(b"\n")


def load_model(path: str | Path) -> Model:
    """Read a model written by save_model. Its arrays are views of one
    writable float64 vector. Raises FormatError naming the line at fault,
    and NumericalError naming a parameter that is not finite."""
    path = Path(path)
    lines = path.read_bytes().split(b"\n")
    if lines[0] != MAGIC.encode():
        raise FormatError(f"{path}:1: bad magic {lines[0][:16]!r}, expected {MAGIC!r}")
    if len(lines) < 4:
        raise FormatError(f"{path}:{len(lines)}: missing line or newline; a model has 3 lines")
    if len(lines) > 4 or lines[3]:
        raise FormatError(f"{path}:4: content after the payload line")
    try:
        dims = _checked_dims(lines[1].split())
    except ValueError:
        raise FormatError(f"{path}:2: unparsable dims line {lines[1]!r}") from None
    except ConfigError as exc:
        raise FormatError(f"{path}:2: {exc}") from None

    size = 8 * sum(math.prod(shape) for _, shape in _layout(dims))
    try:
        raw = base64.b64decode(lines[2], validate=True)
    except binascii.Error as exc:
        raise FormatError(f"{path}:3: payload is not base64: {exc}") from None
    if len(raw) != size:
        raise FormatError(f"{path}:3: payload holds {len(raw)} bytes, dims {dims} need {size}")
    # astype copies: frombuffer's view of the decoded bytes is read-only
    model = Model(dims, np.frombuffer(raw, "<f8").astype(np.float64))
    bad = _first_non_finite(model)
    if bad is not None:
        raise NumericalError(f"{path}:3: non-finite values in parameter {bad}")
    return model
