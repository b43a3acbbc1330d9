"""Tests for the model: init, forwards, analytic backward, FD checking,
and the model file format."""

import base64
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from slowtrack import loss as loss_module
from slowtrack import net as net_module
from slowtrack.errors import ConfigError, FormatError, NumericalError
from slowtrack.loss import (
    VARIANTS,
    LossWeights,
    loss_c,
    loss_d,
    loss_pass,
    loss_rows,
    loss_s,
    total_loss,
    uses_pair,
)
from slowtrack.net import (
    CLASSIFIER_PARAMS,
    FD_STEP,
    FEATURE_PARAMS,
    PARAM_NAMES,
    FlatParams,
    LossTerms,
    Model,
    TripletBatch,
    _clf_forward,
    _forward,
    _layers,
    _layers_backward,
    backward,
    check_finite,
    conditioned_batch,
    finite_diff_check,
    forward_classifier,
    forward_features,
    forward_margins,
    gradients,
    init_model,
    load_model,
    save_model,
)

DIMS = (6, 5, 4, 4, 3, 2)
BIG_DIMS = (1024, 128, 32, 32, 16, 2)  # the tracker's 32x32 grey model


def flat_of(arrays) -> FlatParams:
    """A FlatParams holding a copy of each (name, array) pair."""
    arrays = list(arrays)
    vec = np.concatenate([np.ravel(arr) for _, arr in arrays] or [np.empty(0)])
    return FlatParams(vec, [(name, np.shape(arr)) for name, arr in arrays])


def assert_one_vector(model: Model) -> None:
    """The model's arrays are views of model.vec, laid end to end in
    PARAM_NAMES order."""
    vec = model.vec
    assert vec.dtype == np.float64 and vec.ndim == 1 and vec.flags.c_contiguous
    assert [name for name, _ in model.params()] == list(PARAM_NAMES)
    start = vec.__array_interface__["data"][0]
    for name, arr in model.params():
        assert arr.__array_interface__["data"][0] == start, name
        assert arr.flags.c_contiguous and np.shares_memory(arr, vec), name
        start += arr.nbytes
    assert start == vec.__array_interface__["data"][0] + vec.nbytes


def rand_batch(rng, r=DIMS[0], B=3):
    return TripletBatch(
        a=rng.normal(size=(B, r)),
        b=rng.normal(size=(B, r)),
        n=rng.normal(size=(B, r)),
    )


def zero_model(dims=DIMS):
    m = init_model(dims, seed=0)
    for _, arr in m.params():
        arr[:] = 0.0
    return m


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_model(DIMS, seed=5), init_model(DIMS, seed=5)
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.params(), b.params()))

    def test_different_seed_differs(self):
        a, b = init_model(DIMS, seed=5), init_model(DIMS, seed=6)
        assert not np.array_equal(a["W1"], b["W1"])

    def test_param_count(self):
        assert init_model((4, 3, 2, 3, 3, 2), seed=0).vec.size == 52

    def test_biases_start_at_zero(self):
        m = init_model(DIMS, seed=1)
        for name in ("b1", "b2", "b3", "b4", "b5"):
            assert not m[name].any()

    def test_weight_std_near_fan_in_target(self):
        # 200*50 = 1e4 draws; uniform(-sqrt(6/fan_in), +) has std
        # sqrt(2/fan_in).
        m = init_model((200, 50, 4, 4, 3, 2), seed=2)
        target = math.sqrt(2.0 / 200)
        assert abs(m["W1"].std() - target) / target < 0.2

    @pytest.mark.parametrize(
        "dims",
        [(0, 3, 2, 3, 3, 2), (4, -1, 2, 3, 3, 2), (4, 3, 2, 3, 3, 3), (4, 3, 2, 3, 3)],
    )
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ConfigError):
            init_model(dims, seed=0)


class TestForwardFeatures:
    def test_zero_model_maps_everything_to_zero(self):
        m = zero_model()
        assert not forward_features(m, np.ones(DIMS[0])).any()

    def test_identity_configuration_reproduces_input(self):
        m = zero_model((4, 4, 4, 4, 3, 2))
        m["W1"][:] = np.eye(4)
        m["W2"][:] = np.eye(4)
        x = np.array([0.5, 0.0, 2.0, 1.25])  # non-negative: ReLU transparent
        assert np.array_equal(forward_features(m, x), x)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(7)
        m = init_model(DIMS, seed=3)
        for _ in range(20):
            x = rng.normal(size=DIMS[0])
            h = np.maximum(m["W1"].T @ x + m["b1"], 0.0)
            want = m["W2"].T @ h + m["b2"]
            assert np.max(np.abs(forward_features(m, x) - want)) <= 1e-12

    def test_batched_matches_single(self):
        rng = np.random.default_rng(8)
        m = init_model(DIMS, seed=4)
        X = rng.normal(size=(5, DIMS[0]))
        batched = forward_features(m, X)
        for i in range(5):
            # Not bit-exact: BLAS may pick different kernels for (1, r)
            # and (B, r) shapes. Purity (same call, same bits) is tested
            # separately.
            assert np.max(np.abs(batched[i] - forward_features(m, X[i]))) <= 1e-12

    def test_pure(self):
        m = init_model(DIMS, seed=4)
        x = np.linspace(-1, 1, DIMS[0])
        assert np.array_equal(forward_features(m, x), forward_features(m, x))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward_features(init_model(DIMS, seed=0), np.zeros(DIMS[0] + 1))

    def test_given_fc1_products_bit_equal(self):
        m = init_model(BIG_DIMS, seed=5)
        X = np.random.default_rng(9).normal(size=(48, BIG_DIMS[0]))
        assert forward_features(m, X, X @ m["W1"]).tobytes() == forward_features(m, X).tobytes()


class TestForwardClassifier:
    def test_equal_logits_give_half(self):
        m = zero_model()
        assert forward_classifier(m, np.ones(DIMS[2])) == 0.5

    def test_huge_logit_gap_saturates_without_overflow(self):
        m = zero_model()
        m["b5"][:] = [0.0, 100.0]
        p = forward_classifier(m, np.zeros(DIMS[2]))
        assert abs(p - 1.0) <= 1e-12

    def test_matches_softmax_oracle(self):
        rng = np.random.default_rng(9)
        m = init_model(DIMS, seed=5)
        for _ in range(20):
            f = rng.normal(size=DIMS[2])
            q3 = np.maximum(m["W3"].T @ f + m["b3"], 0.0)
            q4 = np.maximum(m["W4"].T @ q3 + m["b4"], 0.0)
            z = m["W5"].T @ q4 + m["b5"]
            mx = max(z[0], z[1])
            e0, e1 = math.exp(z[0] - mx), math.exp(z[1] - mx)
            assert abs(forward_classifier(m, f) - e1 / (e0 + e1)) <= 1e-12

    def test_class_probabilities_sum_to_one(self):
        rng = np.random.default_rng(10)
        m = init_model(DIMS, seed=6)
        P, _ = _clf_forward(m, rng.normal(size=(50, DIMS[2])))
        assert np.all(P > 0) and np.all(P < 1)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward_classifier(init_model(DIMS, seed=0), np.zeros(DIMS[2] + 1))


class TestForwardMargins:
    def test_float64_margin_is_the_logit_of_the_score(self):
        rng = np.random.default_rng(11)
        m = init_model(DIMS, seed=7)
        X = rng.normal(size=(40, DIMS[0]))
        margins = forward_margins(m, X)
        assert margins.dtype == np.float64
        p = forward_classifier(m, forward_features(m, X))
        assert np.max(np.abs(1.0 / (1.0 + np.exp(-margins)) - p)) <= 1e-12

    def test_runs_in_the_patches_dtype_and_leaves_the_model(self):
        rng = np.random.default_rng(12)
        m = init_model(BIG_DIMS, seed=1)
        before = m.vec.copy()
        X = rng.uniform(-0.5, 0.5, size=(64, BIG_DIMS[0]))
        wide = forward_margins(m, X)
        narrow = forward_margins(m, X.astype(np.float32))
        assert narrow.dtype == np.float32
        assert np.max(np.abs(narrow - wide)) <= 1e-4 * max(1.0, np.abs(wide).max())
        assert m.vec.dtype == np.float64 and np.array_equal(m.vec, before)

    def test_weight_past_float32_range_is_named(self):
        m = init_model(DIMS, seed=0)
        m["W3"][1, 2] = 1e300
        X = np.zeros((2, DIMS[0]))
        assert forward_margins(m, X).shape == (2,)  # float64 holds 1e300
        with pytest.raises(NumericalError, match="parameter W3 is not finite in float32"):
            forward_margins(m, X.astype(np.float32))
        # a large weight that float32 holds is no false alarm
        m["W3"][1, 2] = 1e30
        assert forward_margins(m, X.astype(np.float32)).shape == (2,)


def per_stream_backward(model, batch, weights, variant):
    """Reference for backward: each stream through its own layer passes,
    three feature forwards (two without a pair term) and two classifier
    forwards, and the weight gradients of the streams summed in the
    order a, n, b."""
    f_a, feat_a = _layers(model, batch.a, 1, 2, None)
    f_n, feat_n = _layers(model, batch.n, 1, 2, None)
    f_b = feat_b = None
    if uses_pair(variant):
        f_b, feat_b = _layers(model, batch.b, 1, 2, None)
    P_a, clf_a = _clf_forward(model, f_a)
    P_n, clf_n = _clf_forward(model, f_n)
    p_a, p_n = P_a[:, 1], P_n[:, 1]
    _, c, d, _ = loss_rows(loss_pass(f_a, f_b, f_n, p_a, p_n, weights, variant), weights)
    B = f_a.shape[0]
    df_a, df_n = np.zeros_like(f_a), np.zeros_like(f_n)
    if c is not None:
        df_a += (2.0 / B) * (f_a - f_b)
        df_b = -((2.0 / B) * (f_a - f_b))
    if d is not None:
        coef = (-2.0 * weights.beta * weights.lam / B) * d
        df_a += coef[:, None] * (f_a - f_n)
        df_n -= coef[:, None] * (f_a - f_n)
    lo, hi = weights.p_floor, 1.0 - weights.p_floor
    dLdp_a = np.where((p_a > lo) & (p_a < hi), -1.0 / np.clip(p_a, lo, hi), 0.0)
    dLdp_n = np.where((p_n > lo) & (p_n < hi), 1.0 / (1.0 - np.clip(p_n, lo, hi)), 0.0)
    e1 = np.array([0.0, 1.0])
    parts = []
    for feat, clf, df, dLdp, P in [
        (feat_a, clf_a, df_a, dLdp_a * (weights.mu / B), P_a),
        (feat_n, clf_n, df_n, dLdp_n * (weights.mu / B), P_n),
    ]:
        g = model.zeros()
        df = df + _layers_backward(model, clf, 3, 5, dLdp[:, None] * P[:, 1:2] * (e1 - P), g)
        _layers_backward(model, feat, 1, 2, df, g)
        parts.append(g)
    if c is not None:
        parts.append(model.zeros(FEATURE_PARAMS))
        _layers_backward(model, feat_b, 1, 2, df_b, parts[-1])
    grads = {}
    for g in parts:  # a, n, b
        for name, v in g.items():
            grads[name] = grads[name] + v if name in grads else v
    return grads


def reference_backward(model, batch, weights, variant="full", grads=None):
    """backward as it ran before its gradient reused the loss pass, kept
    as the reference: the loss rows from each term's own arithmetic
    (np.clip, np.sum), their means by np.mean, then the gradient
    recomputing the clamps and the feature differences."""
    if grads is None:
        grads = model.zeros()
    (f_a, f_b, f_n), (P_a, P_n), (feat_cache, clf_cache) = _forward(model, batch, variant)
    p_a, p_n = P_a[:, 1], P_n[:, 1]
    floor = weights.p_floor
    pp, pn = np.clip(p_a, floor, 1.0 - floor), np.clip(p_n, floor, 1.0 - floor)
    s = -(np.log1p(-pn) + np.log(pp))
    total, c, d = weights.mu * s, None, None
    if uses_pair(variant):
        c = np.sum((f_a - f_b) * (f_a - f_b), axis=-1)
        total = c + total
        if variant != "wo-Dloss":
            d = np.exp(-weights.beta * np.sum((f_a - f_n) * (f_a - f_n), axis=-1))
            total = total + weights.lam * d
    terms = LossTerms(*(0.0 if t is None else float(np.mean(t)) for t in (total, c, d, s)))
    B = f_a.shape[0]

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

    df_clf = _layers_backward(model, clf_cache, 3, 5, dz, grads)
    if not grads.keys().isdisjoint(FEATURE_PARAMS):
        df = np.zeros((feat_cache[0].shape[0], f_a.shape[1]))
        df_a, df_n, df_b = df[:B], df[B : 2 * B], df[2 * B :]
        if c is not None:
            diff = (2.0 / B) * (f_a - f_b)
            df_a += diff
            df_b -= diff
        if d is not None:
            dd = f_a - f_n
            coef = (-2.0 * weights.beta * weights.lam / B) * d
            df_a += coef[:, None] * dd
            df_n -= coef[:, None] * dd
        df[: 2 * B] += df_clf
        _layers_backward(model, feat_cache, 1, 2, df, grads)
    return grads, terms


class TestAgainstReference:
    """backward and gradients reuse one loss pass; their gradients are
    bit-equal to the reference's, and backward's LossTerms equal."""

    @staticmethod
    def assert_same(model, batch, weights, variant, names=PARAM_NAMES):
        want, want_terms = reference_backward(
            model, batch, weights, variant, model.zeros(names)
        )
        got, terms = backward(model, batch, weights, variant, model.zeros(names))
        assert terms == want_terms
        assert list(got) == list(want)
        assert got.vec.tobytes() == want.vec.tobytes()
        alone = gradients(model, batch, weights, variant, model.zeros(names))
        assert alone.vec.tobytes() == want.vec.tobytes()

    @pytest.mark.parametrize(
        "variant, names",
        [(variant, PARAM_NAMES) for variant in VARIANTS]
        + [("tarspec", FEATURE_PARAMS), ("full", CLASSIFIER_PARAMS)],
        ids=list(VARIANTS) + ["tarspec-trained", "classifier-only"],
    )
    @pytest.mark.parametrize("dims", [DIMS, BIG_DIMS], ids=["small", "1024-input"])
    def test_bit_equal(self, dims, variant, names):
        rng = np.random.default_rng(40)
        m = init_model(dims, seed=21)
        for B in (1, 4, 16):
            batch = TripletBatch(*(rng.normal(0.0, 0.3, (B, dims[0])) for _ in range(3)))
            if not uses_pair(variant):
                batch.b = None
            self.assert_same(m, batch, LossWeights(lam=3.0, mu=7.0, beta=0.5), variant, names)

    @pytest.mark.parametrize("names", [PARAM_NAMES, CLASSIFIER_PARAMS])
    def test_one_hot_pool_model(self, names):
        # the online update's model: fc1 weights are a pool's fc1 products,
        # and its batches one-hot rows over the pool
        rows = 48
        m = init_model((rows,) + BIG_DIMS[1:], seed=22)
        pool = np.eye(rows)
        rng = np.random.default_rng(41)
        batch = TripletBatch(*(pool[rng.integers(rows, size=16)] for _ in range(3)))
        self.assert_same(m, batch, LossWeights(), "full", names)

    def test_probabilities_on_the_clamp(self):
        # The class-0 bias centres the probabilities on 1/2, and a p_floor of
        # 0.4 clamps some at each end: both gates of the classification
        # gradient are hit, and some probabilities pass between them.
        rng = np.random.default_rng(42)
        m = init_model(DIMS, seed=23)
        batch = TripletBatch(*(rng.normal(0.0, 3.0, (16, DIMS[0])) for _ in range(3)))
        _, (P_a, P_n), _ = _forward(m, batch, "full")
        p = np.concatenate([P_a[:, 1], P_n[:, 1]])
        m["b5"][0] += np.median(np.log(p / (1.0 - p)))
        w = LossWeights(p_floor=0.4)
        _, (P_a, P_n), _ = _forward(m, batch, "full")
        p = np.concatenate([P_a[:, 1], P_n[:, 1]])
        assert (p <= 0.4).any() and (p >= 0.6).any() and ((p > 0.4) & (p < 0.6)).any()
        for variant in VARIANTS:
            self.assert_same(m, batch, w, variant)


class TestBackward:
    def test_identical_positives_zero_weights_zero_grads(self):
        rng = np.random.default_rng(11)
        m = init_model(DIMS, seed=7)
        a = rng.normal(size=(4, DIMS[0]))
        batch = TripletBatch(a=a, b=a.copy(), n=rng.normal(size=(4, DIMS[0])))
        grads, terms = backward(m, batch, LossWeights(lam=0.0, mu=0.0))
        assert terms.loss == 0.0
        for name in ("W1", "b1", "W2", "b2"):
            assert not grads[name].any()

    def test_loss_value_matches_loss_module(self):
        rng = np.random.default_rng(12)
        m = init_model(DIMS, seed=8)
        batch = rand_batch(rng)
        w = LossWeights()
        _, terms = backward(m, batch, w)
        f_a = forward_features(m, batch.a)
        f_b = forward_features(m, batch.b)
        f_n = forward_features(m, batch.n)
        p_a = forward_classifier(m, f_a)
        p_n = forward_classifier(m, f_n)
        assert terms.loss == float(np.mean(total_loss(f_a, f_b, f_n, p_a, p_n, w)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loss_terms_match_separate_forwards(self, variant):
        # Reference: the term means from separate forward passes, switched
        # off terms exactly 0.0; all equal bit for bit.
        rng = np.random.default_rng(24)
        m = init_model(DIMS, seed=12)
        batch = rand_batch(rng)
        w = LossWeights(lam=3.0, mu=7.0, beta=0.5)
        if variant == "SlossOnly":
            batch.b = None
        _, terms = backward(m, batch, w, variant=variant)
        assert isinstance(terms, LossTerms)
        f_a = forward_features(m, batch.a)
        f_n = forward_features(m, batch.n)
        f_b = None if batch.b is None else forward_features(m, batch.b)
        p_a = forward_classifier(m, f_a)
        p_n = forward_classifier(m, f_n)
        c_val = d_val = 0.0
        if variant != "SlossOnly":
            c_val = float(np.mean(loss_c(f_a, f_b)))
            if variant != "wo-Dloss":
                d_val = float(np.mean(loss_d(f_a, f_n, w.beta)))
        s_val = float(np.mean(loss_s(p_a, p_n, w.p_floor)))
        rows = total_loss(f_a, f_b, f_n, p_a, p_n, w, variant=variant)
        total = float(np.mean(rows))
        assert terms == (total, c_val, d_val, s_val)
        assert all(type(v) is float for v in terms)
        # loss_rows is total_loss bit for bit, None for a dropped term
        got = loss_rows(loss_pass(f_a, f_b, f_n, p_a, p_n, w, variant=variant), w)
        assert got[0].tobytes() == rows.tobytes()
        dropped = [variant == "SlossOnly", variant in ("SlossOnly", "wo-Dloss"), False]
        assert [t is None for t in got[1:]] == dropped

    def test_one_loss_evaluation_per_backward(self, monkeypatch):
        # Each loss kernel runs once per pass, counted where it is looked
        # up; gradients, which keeps no loss value, skips the logs.
        names = ("_clamped", "_closeness", "_cross_entropy", "_squared_norm")
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(loss_module, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(loss_module, name, counted)
        m = init_model(DIMS, seed=13)
        batch = rand_batch(np.random.default_rng(25))
        backward(m, batch, LossWeights())
        # two clamps, loss_d's norm inside its closeness and loss_c's norm
        assert calls == {"_clamped": 2, "_closeness": 1, "_cross_entropy": 1, "_squared_norm": 2}
        calls.update(dict.fromkeys(names, 0))
        gradients(m, batch, LossWeights())
        assert calls == {"_clamped": 2, "_closeness": 1, "_cross_entropy": 0, "_squared_norm": 1}

    @pytest.mark.parametrize("dims", [DIMS, BIG_DIMS])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_per_stream_reference(self, dims, variant):
        # The stacked streams reorder the sums inside each GEMM, so the
        # gradients may move in the last bits: the tolerance is fixed from
        # float64 at 1e-12 of each parameter's largest entry. B = 1 and 4
        # are sizes where stacked and per-stream forward rows differ.
        rng = np.random.default_rng(26)
        m = init_model(dims, seed=14)
        w = LossWeights(lam=3.0, mu=7.0, beta=0.5)
        for B in (1, 3, 4, 16):
            batch = TripletBatch(*(rng.normal(0.0, 0.3, (B, dims[0])) for _ in range(3)))
            if not uses_pair(variant):
                batch.b = None
            grads, _ = backward(m, batch, w, variant=variant)
            want = per_stream_backward(m, batch, w, variant)
            assert list(grads) == list(PARAM_NAMES)
            for name in PARAM_NAMES:
                err = np.max(np.abs(grads[name] - want[name]))
                assert err <= 1e-12 * np.max(np.abs(want[name])), (name, B)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_named_gradients_bit_equal_to_full(self, variant):
        rng = np.random.default_rng(28)
        m = init_model(DIMS, seed=15)
        batch = rand_batch(rng)
        if not uses_pair(variant):
            batch.b = None
        w = LossWeights(lam=3.0, mu=7.0, beta=0.5)
        full, full_terms = backward(m, batch, w, variant)
        for names in (FEATURE_PARAMS, CLASSIFIER_PARAMS, ("W1",), ("b5", "W2"), ()):
            out = m.zeros(names)
            grads, terms = backward(m, batch, w, variant, out)
            assert grads is out
            assert list(grads) == [n for n in PARAM_NAMES if n in names]
            assert terms == full_terms
            for name, g in grads.items():
                assert g.tobytes() == full[name].tobytes(), (names, name)

    @pytest.mark.parametrize("names", [PARAM_NAMES, FEATURE_PARAMS, CLASSIFIER_PARAMS])
    def test_flat_gradients_written_in_place_bit_equal(self, names):
        rng = np.random.default_rng(30)
        m = init_model(DIMS, seed=17)
        batch = rand_batch(rng)
        want, want_terms = backward(m, batch, LossWeights(), "full")
        out = flat_of((name, np.full_like(want[name], np.nan)) for name in names)
        grads, terms = backward(m, batch, LossWeights(), "full", out)
        assert terms == want_terms
        assert grads is out and list(grads) == list(names)
        for name, g in grads.items():
            assert np.shares_memory(g, out.vec)
            assert g.tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("value, named", [(np.nan, "W4"), (np.inf, "W4"), (1e200, None)])
    def test_flat_gradient_check_names_first_bad_layer(self, monkeypatch, value, named):
        real = net_module._layers_backward

        def poisoned(model, cache, first, last, du, grads):
            out = real(model, cache, first, last, du, grads)
            if (first, last) == (3, 5):
                grads["W4"].flat[0] = grads["b5"].flat[-1] = value
            return out

        monkeypatch.setattr(net_module, "_layers_backward", poisoned)
        m = init_model(DIMS, seed=18)
        out = flat_of(m.params())
        batch = rand_batch(np.random.default_rng(31))
        if named is None:  # huge but finite: squaring overflows, the search clears it
            backward(m, batch, LossWeights(), "full", out)
        else:
            with pytest.raises(NumericalError, match=f"^non-finite gradient in layer {named}$"):
                backward(m, batch, LossWeights(), "full", out)

    def test_feature_layers_differentiated_only_when_named(self, monkeypatch):
        walks = layer_ranges(monkeypatch, "_layers_backward")
        m = init_model(DIMS, seed=16)
        batch = rand_batch(np.random.default_rng(29))
        for names, want in [(PARAM_NAMES, 1), (CLASSIFIER_PARAMS, 0), (("b1",), 1), ((), 0)]:
            walks.clear()
            backward(m, batch, LossWeights(), grads=m.zeros(names))
            assert walks.count((1, 2)) == want, names

    def test_one_pass_per_layer_group(self, monkeypatch):
        passes = layer_ranges(monkeypatch, "_layers")
        m = init_model(DIMS, seed=13)
        for variant in VARIANTS:
            batch = rand_batch(np.random.default_rng(27))
            if not uses_pair(variant):
                batch.b = None
            passes.clear()
            backward(m, batch, LossWeights(), variant=variant)
            # one feature pass (fc1-fc2), then one classifier pass (fc3-fc5)
            assert passes == [(1, 2), (3, 5)], variant

    def test_unknown_variant_rejected_before_any_forward(self, monkeypatch):
        def forward(*args):
            raise AssertionError("forward ran")

        monkeypatch.setattr(net_module, "_layers", forward)
        with pytest.raises(ConfigError, match="nope"):
            backward(init_model(DIMS, seed=0), rand_batch(np.random.default_rng(0)),
                     LossWeights(), variant="nope")

    def test_doubling_lam_doubles_discrimination_gradient(self):
        # With identical paired positives and mu=0, the discrimination
        # term is the only gradient source, and scaling lam by 2 must
        # scale every gradient bitwise (power-of-two scaling is exact).
        rng = np.random.default_rng(13)
        m = init_model(DIMS, seed=9)
        a = rng.normal(size=(4, DIMS[0]))
        batch = TripletBatch(a=a, b=a.copy(), n=rng.normal(size=(4, DIMS[0])))
        g1, _ = backward(m, batch, LossWeights(lam=3.0, mu=0.0))
        g2, _ = backward(m, batch, LossWeights(lam=6.0, mu=0.0))
        assert np.array_equal(g2["W1"], 2.0 * g1["W1"])
        assert np.array_equal(g2["b2"], 2.0 * g1["b2"])

    def test_nan_parameter_raises_named_error(self):
        rng = np.random.default_rng(14)
        m = init_model(DIMS, seed=10)
        m["W2"][0, 0] = np.nan
        with pytest.raises(NumericalError, match="W"):
            backward(m, rand_batch(rng), LossWeights())

    @pytest.mark.parametrize("stream", ["b", "n"])
    def test_stream_batch_size_mismatch_rejected(self, stream):
        batch = rand_batch(np.random.default_rng(30))
        setattr(batch, stream, getattr(batch, stream)[:2])
        which = "pair" if stream == "b" else "anchor/negative"
        with pytest.raises(ValueError, match=f"{which} batch size mismatch"):
            backward(init_model(DIMS, seed=12), batch, LossWeights())

    def test_three_dimensional_stream_rejected(self):
        batch = rand_batch(np.random.default_rng(31))
        batch.a = batch.a[None]
        with pytest.raises(ValueError, match="triplet anchors: expected 1-D or 2-D"):
            backward(init_model(DIMS, seed=12), batch, LossWeights())

    def test_missing_pair_rejected_outside_sloss_only(self):
        rng = np.random.default_rng(15)
        m = init_model(DIMS, seed=11)
        batch = rand_batch(rng)
        batch.b = None
        with pytest.raises(ValueError):
            backward(m, batch, LossWeights())
        backward(m, batch, LossWeights(), variant="SlossOnly")  # fine


class TestFlatParams:
    def test_views_lie_end_to_end_in_one_vector(self):
        m = init_model(DIMS, seed=19)
        flat = flat_of(m.params())
        assert list(flat) == list(PARAM_NAMES)
        assert flat.vec.size == m.vec.size
        assert np.array_equal(flat.vec, np.concatenate([a.ravel() for _, a in m.params()]))
        for name, arr in m.params():
            assert flat[name].shape == arr.shape
            assert np.shares_memory(flat[name], flat.vec)
            assert not np.shares_memory(flat[name], arr)
        flat["b3"][0] = 7.0
        assert 7.0 in flat.vec

    def test_run_is_a_slice_of_the_same_vector(self):
        flat = flat_of(init_model(DIMS, seed=20).params())
        run = flat.run(CLASSIFIER_PARAMS)
        assert list(run) == list(CLASSIFIER_PARAMS)
        assert run.vec.base is flat.vec
        start = sum(flat[name].size for name in FEATURE_PARAMS)
        assert np.array_equal(run.vec, flat.vec[start:])
        for name in CLASSIFIER_PARAMS:
            assert np.shares_memory(run[name], flat[name])
        assert flat.run(()).vec.size == 0
        with pytest.raises(ValueError, match="not consecutive"):
            flat.run(("W1", "W2"))

    def test_zeros_and_layout_checks(self):
        flat = flat_of([("a", np.ones((2, 3))), ("b", np.ones(4))])
        zeros = flat.zeros()
        assert zeros.shapes() == flat.shapes() == [("a", (2, 3)), ("b", (4,))]
        assert not zeros.vec.any() and flat.vec.all()
        with pytest.raises(ValueError, match="9 entries, the vector 10"):
            FlatParams(np.zeros(10), [("a", (3, 3))])

    def test_zeros_of_named_arrays_in_layout_order(self):
        m = init_model(DIMS, seed=22)
        zeros = m.zeros(("W5", "W1"))
        assert zeros.shapes() == [("W1", (6, 5)), ("W5", (3, 2))] == m.shapes(["W1", "W5"])
        assert zeros.vec.size == 36 and not zeros.vec.any()
        assert not np.shares_memory(zeros.vec, m.vec)
        assert m.zeros().shapes() == m.shapes() and not m.zeros().vec.any()
        assert m.zeros(()).vec.size == 0

    @pytest.mark.parametrize(
        "bad, named",
        [({}, None), ({"b2": np.nan}, "b2"), ({"W5": -np.inf, "W3": np.inf}, "W3"),
         ({"W1": 1e200, "b5": -1e300}, None)],
    )
    def test_check_finite_with_vector(self, bad, named):
        flat = flat_of(init_model(DIMS, seed=21).params())
        for name, value in bad.items():
            flat[name].flat[0] = value
        if named is None:
            check_finite(flat)
            return
        with pytest.raises(NumericalError, match=f"^non-finite values in parameter {named}$"):
            check_finite(flat)


def hand_written_conditioned_batch(
    model, rng, B=4, scale=0.3, kink_margin=1e-3, p_margin=0.01, max_tries=200
):
    """Reference for conditioned_batch: its fc1-fc4 layers written out by
    hand, checking every pre-activation and probability it looks at."""
    r = model.dims[0]
    for _ in range(max_tries):
        streams = [rng.normal(0.0, scale, size=(B, r)) for _ in range(3)]
        feats = []
        ok = True
        for X in streams:
            u1 = X @ model["W1"] + model["b1"]
            if np.min(np.abs(u1)) < kink_margin:
                ok = False
                break
            feats.append(np.maximum(u1, 0.0) @ model["W2"] + model["b2"])
        if not ok:
            continue
        for f in (feats[0], feats[2]):  # classifier runs on anchors and negatives
            u3 = f @ model["W3"] + model["b3"]
            u4 = np.maximum(u3, 0.0) @ model["W4"] + model["b4"]
            if min(np.min(np.abs(u3)), np.min(np.abs(u4))) < kink_margin:
                ok = False
                break
            P, _ = _clf_forward(model, f)
            if np.min(P[:, 1]) < p_margin or np.max(P[:, 1]) > 1.0 - p_margin:
                ok = False
                break
        if ok:
            return TripletBatch(a=streams[0], b=streams[1], n=streams[2])
    raise NumericalError("no well-conditioned batch")


class TestOneVector:
    """Every way net makes a model leaves its arrays views of model.vec."""

    def test_init_model_draws_each_array_in_place(self):
        m = init_model(DIMS, seed=40)
        assert_one_vector(m)
        rng = np.random.default_rng(40)
        for i in range(5):
            limit = np.sqrt(6.0 / DIMS[i])
            want = rng.uniform(-limit, limit, size=(DIMS[i], DIMS[i + 1]))
            assert m[f"W{i + 1}"].tobytes() == want.tobytes()
            assert m[f"b{i + 1}"].tobytes() == np.zeros(DIMS[i + 1]).tobytes()

    def test_copy_has_a_vector_of_its_own(self):
        m = init_model(DIMS, seed=41)
        c = m.copy()
        assert_one_vector(c)
        assert c.dims == m.dims and c.vec.tobytes() == m.vec.tobytes()
        assert not np.shares_memory(c.vec, m.vec)

    def test_model_lays_out_the_vector_it_is_given(self):
        n = init_model(DIMS, seed=43).vec.size
        vec = np.arange(n, dtype=np.float64)
        m = Model(DIMS, vec)
        assert m.vec is vec
        assert_one_vector(m)
        assert m["W1"][0, 1] == 1.0 and m["b5"][-1] == n - 1
        zeros = Model(DIMS)
        assert_one_vector(zeros)
        assert zeros.vec.size == n and not zeros.vec.any()
        with pytest.raises(ValueError, match=f"shapes hold {n} entries, the vector {n + 1}"):
            Model(DIMS, np.zeros(n + 1))
        with pytest.raises(ValueError, match="cannot reshape"):
            Model(DIMS, np.zeros(n - 1))

    def test_parameter_attributes_neither_read_nor_bind(self):
        # model["W1"] is the one way in; a bound W1 would not be the view
        # that the passes read
        m = init_model(DIMS, seed=44)
        with pytest.raises(AttributeError, match="W1"):
            m.W1
        with pytest.raises(AttributeError, match="W1 is a view of the model's vector"):
            m.W1 = np.zeros_like(m["W1"])
        assert "W1" not in vars(m)
        m["W1"][...] = 0.0
        assert not m.vec[: m["W1"].size].any()


class TestConditionedBatch:
    @pytest.mark.parametrize("dims", [DIMS, (64, 32, 16, 16, 8, 2)])
    def test_matches_hand_written_layers(self, dims):
        for seed in range(10):
            m = init_model(dims, seed=400 + seed)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = conditioned_batch(m, got_rng)
            want = hand_written_conditioned_batch(m, want_rng)
            for name in ("a", "b", "n"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert got_rng.normal() == want_rng.normal()

    @pytest.mark.parametrize("param", ["b1", "b3", "b5"])
    def test_nan_rejects_the_batch(self, param):
        m = init_model(DIMS, seed=401)
        m[param][0] = np.nan
        with pytest.raises(NumericalError, match="no well-conditioned"):
            conditioned_batch(m, np.random.default_rng(0), max_tries=5)


def brute_force_numeric(m, batch, w, variant, param, index) -> float:
    """The central difference of the batch-mean total loss of copies of
    m with the one entry param[index] moved by ±FD_STEP, through _forward
    and total_loss."""
    losses = []
    for step in (FD_STEP, -FD_STEP):
        moved = m.copy()
        moved[param][index] += step
        (f_a, f_b, f_n), (P_a, P_n), _ = _forward(moved, batch, variant)
        losses.append(np.mean(total_loss(f_a, f_b, f_n, P_a[:, 1], P_n[:, 1], w, variant)))
    return (losses[0] - losses[1]) / (2 * FD_STEP)


def layer_ranges(monkeypatch, walk):
    """Spy on net's layer walk `walk`, "_layers" forward or
    "_layers_backward": returns the list to which each call appends its
    (first, last) layer range. A range ending at fc2 is a feature pass,
    one ending at fc5 a classifier pass."""
    ranges = []
    real = getattr(net_module, walk)

    def spied(model, x_or_cache, first, last, *args):
        ranges.append((first, last))
        return real(model, x_or_cache, first, last, *args)

    monkeypatch.setattr(net_module, walk, spied)
    return ranges


class TestFiniteDiff:
    def test_random_models_pass(self):
        rng = np.random.default_rng(16)
        for seed in range(5):
            m = init_model(DIMS, seed=100 + seed)
            rep = finite_diff_check(m, conditioned_batch(m, rng), LossWeights())
            assert rep.passed, str(rep)
            assert rep.max_rel_err < 1e-4

    @pytest.mark.parametrize("variant", ["wo-C-learning", "wo-Dloss", "SlossOnly", "tarspec"])
    def test_variants_pass(self, variant):
        rng = np.random.default_rng(17)
        m = init_model(DIMS, seed=200)
        batch = conditioned_batch(m, rng)
        if variant == "SlossOnly":
            batch.b = None
        rep = finite_diff_check(m, batch, LossWeights(), variant=variant)
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_row_batch_passes(self, variant):
        rng = np.random.default_rng(28)
        m = init_model(DIMS, seed=206)
        batch = conditioned_batch(m, rng)
        batch = TripletBatch(batch.a[:1], None if variant == "SlossOnly" else batch.b[:1],
                             batch.n[:1])
        rep = finite_diff_check(m, batch, LossWeights(), variant=variant)
        assert rep.passed and rep.entries_checked == m.vec.size, str(rep)

    def test_one_pass_per_layer_group_per_chunk(self, monkeypatch):
        # The layers upstream of the stepped one run once per check, in
        # the clean forward; each chunk enters the layer forwards at the
        # stepped layer, or at the next one where a ReLU follows it (fc1,
        # fc3 and fc4), so a classifier parameter's chunks run no feature
        # pass.
        m = init_model(DIMS, seed=207)
        batch = conditioned_batch(m, np.random.default_rng(29))
        grads, _ = backward(m, batch, LossWeights())
        monkeypatch.setattr("slowtrack.net.FD_CHUNK_BYTES", 1)  # one entry per chunk
        entered = layer_ranges(monkeypatch, "_layers")
        clean = [(1, 2), (3, 5)]
        for name in PARAM_NAMES:
            entered.clear()
            rep = finite_diff_check(m, batch, LossWeights(), params=[name], analytic=grads)
            assert rep.passed
            layer = int(name[1])
            enter = layer + 1 if layer in (1, 3, 4) else layer
            chunk = [(enter, 5)]
            if layer <= 2:
                chunk = [(enter, 2), (3, 5)]
            assert entered == clean + chunk * m[name].size, name

    def test_each_term_in_isolation(self):
        rng = np.random.default_rng(18)
        m = init_model(DIMS, seed=201)
        batch = conditioned_batch(m, rng)
        for w in (
            LossWeights(lam=0.0, mu=0.0),
            LossWeights(lam=10.0, mu=0.0),
            LossWeights(lam=0.0, mu=10.0),
        ):
            rep = finite_diff_check(m, batch, w)
            assert rep.passed, str(rep)

    def test_corrupted_entry_identified(self):
        rng = np.random.default_rng(19)
        m = init_model(DIMS, seed=202)
        batch = conditioned_batch(m, rng)
        grads, _ = backward(m, batch, LossWeights())
        idx = np.unravel_index(np.argmax(np.abs(grads["W2"])), grads["W2"].shape)
        grads["W2"][idx] *= 2.0
        rep = finite_diff_check(m, batch, LossWeights(), analytic=grads)
        assert not rep.passed
        assert any(f.param == "W2" and f.index == idx for f in rep.failures)

    def test_chunk_boundaries_hide_no_fault(self, monkeypatch):
        rng = np.random.default_rng(22)
        m = init_model(DIMS, seed=204)
        batch = conditioned_batch(m, rng)
        w = LossWeights()
        whole = finite_diff_check(m, batch, w)
        # An entry of W1 costs a +h and a -h copy of fc2's (rows, n)
        # product, rows a | n | b, with 5 row-long vectors (its moved
        # columns and their δ, its step, the clean columns of u1 and r1)
        # and its row of W2; 7-entry chunks: W1's 30 entries end in a
        # partial chunk
        rows = 3 * len(batch.a)
        entry_bytes = 8 * (2 * rows * m.dims[2] + 5 * rows + m.dims[2])
        monkeypatch.setattr("slowtrack.net.FD_CHUNK_BYTES", 7 * entry_bytes)
        clean = finite_diff_check(m, batch, w)
        assert clean.passed and clean.entries_checked == m.vec.size
        assert clean.per_param == whole.per_param
        grads, _ = backward(m, batch, w)
        grads["W1"][1, 4] += 1.0  # flat 9: second chunk
        grads["W1"][5, 4] += 1.0  # flat 29: last entry, in the partial chunk
        corrupt = {idx: float(grads["W1"][idx]) for idx in [(1, 4), (5, 4)]}
        rep = finite_diff_check(m, batch, w, analytic=grads)
        assert not rep.passed
        assert {f.index: f.analytic for f in rep.failures if f.param == "W1"} == corrupt
        assert all(f.param == "W1" for f in rep.failures)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_numeric_gradients_match_brute_force(self, variant):
        # Every entry's numeric gradient against a central difference of a
        # model copy with that one entry moved, through _forward and
        # total_loss. A NaN analytic gradient fails every entry, so the
        # report lists each entry's numeric value.
        m = init_model(DIMS, seed=208)
        batch = conditioned_batch(m, np.random.default_rng(32))
        if not uses_pair(variant):
            batch.b = None
        w = LossWeights()
        nan = {name: np.full(arr.shape, np.nan) for name, arr in m.params()}
        rep = finite_diff_check(m, batch, w, variant=variant, analytic=nan)
        assert len(rep.failures) == rep.entries_checked == m.vec.size
        for f in rep.failures:
            brute = brute_force_numeric(m, batch, w, variant, f.param, f.index)
            assert abs(f.numeric - brute) <= 1e-8, (f.param, f.index)

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_entry_off_by_one_percent_reported_at_its_index(self, name):
        m = init_model(DIMS, seed=209)
        batch = conditioned_batch(m, np.random.default_rng(33))
        grads, _ = backward(m, batch, LossWeights())
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(grads[name])),
                                                      grads[name].shape))
        grads[name][idx] *= 1.01
        rep = finite_diff_check(m, batch, LossWeights(), params=[name], analytic=grads)
        assert not rep.passed
        assert [(f.param, f.index) for f in rep.failures] == [(name, idx)]

    def test_fc1_much_wider_than_fc2(self):
        # fc1's entries enter at fc2's product, a quarter of fc1's width
        # here: each W1/b1 numeric gradient against the brute-force
        # central difference, and a W1 and a b1 entry off by 1% reported
        # at its index.
        m = init_model((16, 64, 4, 4, 3, 2), seed=211)
        batch = conditioned_batch(m, np.random.default_rng(35))
        w = LossWeights()
        nan = {name: np.full(m[name].shape, np.nan) for name in ("W1", "b1")}
        rep = finite_diff_check(m, batch, w, params=["W1", "b1"], analytic=nan)
        assert len(rep.failures) == rep.entries_checked == m["W1"].size + m["b1"].size
        for f in rep.failures:
            brute = brute_force_numeric(m, batch, w, "full", f.param, f.index)
            assert abs(f.numeric - brute) <= 1e-8, (f.param, f.index)
        grads, _ = backward(m, batch, w)
        for name in ("W1", "b1"):
            idx = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(grads[name])),
                                                          grads[name].shape))
            bad = flat_of(grads.items())
            bad[name][idx] *= 1.01
            rep = finite_diff_check(m, batch, w, params=[name], analytic=bad)
            assert not rep.passed
            assert [(f.param, f.index) for f in rep.failures] == [(name, idx)]

    def test_extra_memory_capped_by_chunk_bytes(self):
        # W1 is 8 caps; the check holds a few caps at a time: its clean
        # forward's stacked rows (1.5 caps here) and one chunk's stacked
        # fc1 products with their successors, never a copy of W1.
        cap = net_module.FD_CHUNK_BYTES
        m = init_model((cap // 16, 16, 4, 4, 3, 2), seed=210)
        assert m["W1"].nbytes == 8 * cap
        batch = conditioned_batch(m, np.random.default_rng(34))
        batch = TripletBatch(batch.a[:1], batch.b[:1], batch.n[:1])
        grads, _ = backward(m, batch, LossWeights())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = finite_diff_check(m, batch, LossWeights(), analytic=grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.entries_checked == m.vec.size
        assert peak - base <= 8 * cap

    def test_repeated_parameter_name_rejected(self):
        m = init_model(DIMS, seed=203)
        with pytest.raises(ConfigError, match="'W5' given more than once"):
            finite_diff_check(m, rand_batch(np.random.default_rng(20)), LossWeights(),
                              params=["W5", "b5", "W5"])

    def test_unknown_parameter_name_rejected(self):
        m = init_model(DIMS, seed=203)
        with pytest.raises(ConfigError, match="unknown parameter name 'W6'"):
            finite_diff_check(m, rand_batch(np.random.default_rng(20)), LossWeights(),
                              params=["W5", "W6"])

    def test_nan_gradient_entry_fails(self):
        rng = np.random.default_rng(23)
        m = init_model(DIMS, seed=205)
        batch = conditioned_batch(m, rng)
        grads, _ = backward(m, batch, LossWeights())
        grads["W2"][0, 0] = np.nan
        rep = finite_diff_check(m, batch, LossWeights(), analytic=grads)
        assert not rep.passed
        assert [(f.param, f.index) for f in rep.failures] == [("W2", (0, 0))]

    def test_classifier_subset_differentiates_only_the_classifier(self, monkeypatch):
        walks = layer_ranges(monkeypatch, "_layers_backward")
        m = init_model(DIMS, seed=206)
        batch = conditioned_batch(m, np.random.default_rng(24))
        rep = finite_diff_check(m, batch, LossWeights(), params=CLASSIFIER_PARAMS)
        assert rep.passed and list(rep.per_param) == list(CLASSIFIER_PARAMS)
        assert walks == [(3, 5)], "feature layers differentiated"

    def test_no_parameters_is_vacuous_pass(self):
        rng = np.random.default_rng(20)
        m = init_model(DIMS, seed=203)
        rep = finite_diff_check(m, rand_batch(rng), LossWeights(), params=[])
        assert rep.passed and rep.entries_checked == 0

    def test_empty_model_is_vacuous_pass(self):
        empty = Model((0, 0, 0, 0, 0, 0), np.zeros(0))
        rng = np.random.default_rng(21)
        rep = finite_diff_check(empty, rand_batch(rng, r=0), LossWeights())
        assert rep.passed and rep.entries_checked == 0


class TestSaveLoad:
    def test_round_trip_exact(self, tmp_path):
        m = init_model(DIMS, seed=300)
        p = tmp_path / "model.txt"
        save_model(m, p)
        m2 = load_model(p)
        assert m2.dims == m.dims
        for (_, a), (_, b) in zip(m.params(), m2.params()):
            assert np.array_equal(a, b)

    def test_payload_is_base64_of_each_entry(self, tmp_path):
        # The writer encodes one flat vector; the reference packs each
        # entry as a little-endian double, in parameter order.
        m = init_model(DIMS, seed=307)
        m["b2"][:] = [0.1, -0.0, 1e-300, 2.5]
        p = tmp_path / "model.txt"
        save_model(m, p)
        values = [float(v) for _, arr in m.params() for v in arr.ravel()]
        payload = base64.b64encode(struct.pack(f"<{len(values)}d", *values))
        assert p.read_bytes() == b"CDNN2\n6 5 4 4 3 2\n" + payload + b"\n"

    def test_loaded_arrays_are_views_of_one_writable_vector(self, tmp_path):
        p = tmp_path / "model.txt"
        save_model(init_model(DIMS, seed=308), p)
        m = load_model(p)
        base = m["W1"].base
        assert base is not None and base.flags.writeable
        assert all(arr.base is base for _, arr in m.params())
        assert_one_vector(m)

    def test_save_load_save_byte_identical(self, tmp_path):
        m = init_model(DIMS, seed=301)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_named(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=302), p)
        p.write_bytes(p.read_bytes().replace(b"CDNN2", b"CDNN9", 1))
        with pytest.raises(FormatError, match="CDNN9"):
            load_model(p)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=303), p)
        p.write_bytes(p.read_bytes()[:100])
        with pytest.raises(FormatError):
            load_model(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=305), p)
        p.write_text(p.read_text() + "1.0 2.0\n")
        with pytest.raises(FormatError):
            load_model(p)

    @pytest.mark.parametrize(
        "dims, why",
        [((4, 3, 2, 3, 3, 3), "two-class"), ((4, 3, 0, 3, 3, 2), "positive")],
    )
    def test_dims_init_model_rejects_are_rejected(self, tmp_path, dims, why):
        # Saved without init_model's checks: a three-class head would
        # score one entry of a three-way softmax, a zero-width feature
        # layer 0.5 for every input.
        m = Model(dims)
        for i in range(1, 6):
            m[f"W{i}"][...] = 1.0
        p = tmp_path / "m.txt"
        save_model(m, p)
        with pytest.raises(FormatError, match=f":2: .*{why}"):
            load_model(p)


def _line(i, edit):
    """A saved file's lines -> the file with line i + 1 passed through `edit`."""
    return lambda lines: b"\n".join(lines[:i] + [edit(lines[i])] + lines[i + 1 :])


def _payload(edit):
    """A saved file's lines -> the file with its payload decoded, passed
    through `edit` and encoded again."""
    return _line(2, lambda line: base64.b64encode(edit(base64.b64decode(line))))


class TestLoadModelRejects:
    """Every way load_model refuses a file, each triggered on purpose:
    (edit of a saved DIMS model's lines, exception, message after the path)."""

    @pytest.mark.parametrize("make, error, message", [
        pytest.param(
            lambda lines: b"CDNN1\n6 5 4 4 3 2\nrelu\n0.5 -0.25\n", FormatError,
            ":1: bad magic b'CDNN1', expected 'CDNN2'", id="cdnn1-text",
        ),
        pytest.param(
            lambda lines: np.random.default_rng(0).bytes(4096), FormatError, ":1: bad magic",
            id="random-bytes",
        ),
        pytest.param(
            lambda lines: b"\n".join(lines[:2] + [b""]), FormatError,
            ":3: missing line or newline; a model has 3 lines", id="missing-line",
        ),
        pytest.param(
            # the nonlinearity line of the old text format
            lambda lines: b"\n".join(lines[:2] + [b"relu"] + lines[2:]), FormatError,
            ":4: content after the payload line", id="extra-line",
        ),
        pytest.param(
            _line(1, lambda _: b"6 5 four 4 3 2"), FormatError,
            ":2: unparsable dims line b'6 5 four 4 3 2'", id="unparsable-dims",
        ),
        pytest.param(
            _line(1, lambda _: b"6 5 4 4 3 3"), FormatError, ":2: the classifier is two-class",
            id="three-class-head",
        ),
        pytest.param(
            _line(1, lambda _: b"6 5 0 4 3 2"), FormatError, ":2: all dims must be positive",
            id="zero-width",
        ),
        pytest.param(
            # lenient base64 would skip the inserted character and load
            _line(2, lambda line: line[:8] + b"*" + line[8:]), FormatError,
            ":3: payload is not base64", id="outside-alphabet",
        ),
        pytest.param(
            _payload(lambda raw: raw[:-8]), FormatError,
            ":3: payload holds 808 bytes, dims (6, 5, 4, 4, 3, 2) need 816",
            id="one-float-short",
        ),
        pytest.param(
            _payload(lambda raw: raw + struct.pack("<d", 0.5)), FormatError,
            ":3: payload holds 824 bytes, dims (6, 5, 4, 4, 3, 2) need 816",
            id="one-float-long",
        ),
        pytest.param(
            _payload(lambda raw: raw[:-8] + struct.pack("<d", math.nan)), NumericalError,
            ":3: non-finite values in parameter b5", id="nan",
        ),
    ])
    def test_rejects(self, tmp_path, make, error, message):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=309), p)
        p.write_bytes(make(p.read_bytes().split(b"\n")))
        with pytest.raises(error, match=re.escape(f"{p}{message}")):
            load_model(p)
