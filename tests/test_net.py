"""Tests for the model: init, forwards, analytic backward, FD checking,
and the text serialization format."""

import math

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
    loss_s,
    loss_terms,
    total_loss,
    uses_pair,
)
from slowtrack.net import (
    CLASSIFIER_PARAMS,
    FEATURE_PARAMS,
    MAGIC,
    PARAM_NAMES,
    FlatParams,
    LossTerms,
    Model,
    TripletBatch,
    _clf_backward,
    _clf_forward,
    _feat_backward,
    _feat_forward,
    backward,
    check_finite,
    conditioned_batch,
    finite_diff_check,
    forward_classifier,
    forward_features,
    init_model,
    load_model,
    save_model,
)

DIMS = (6, 5, 4, 4, 3, 2)
BIG_DIMS = (1024, 128, 32, 32, 16, 2)  # the tracker's 32x32 grey model


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
        assert not np.array_equal(a.W1, b.W1)

    def test_param_count(self):
        assert init_model((4, 3, 2, 3, 3, 2), seed=0).n_params() == 52

    def test_biases_start_at_zero(self):
        m = init_model(DIMS, seed=1)
        for name in ("b1", "b2", "b3", "b4", "b5"):
            assert not getattr(m, name).any()

    def test_weight_std_near_fan_in_target(self):
        # 200*50 = 1e4 draws; uniform(-sqrt(6/fan_in), +) has std
        # sqrt(2/fan_in).
        m = init_model((200, 50, 4, 4, 3, 2), seed=2)
        target = math.sqrt(2.0 / 200)
        assert abs(m.W1.std() - target) / target < 0.2

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
        m.W1[:] = np.eye(4)
        m.W2[:] = np.eye(4)
        x = np.array([0.5, 0.0, 2.0, 1.25])  # non-negative: ReLU transparent
        assert np.array_equal(forward_features(m, x), x)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(7)
        m = init_model(DIMS, seed=3)
        for _ in range(20):
            x = rng.normal(size=DIMS[0])
            h = np.maximum(m.W1.T @ x + m.b1, 0.0)
            want = m.W2.T @ h + m.b2
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
        assert forward_features(m, X, X @ m.W1).tobytes() == forward_features(m, X).tobytes()


class TestForwardClassifier:
    def test_equal_logits_give_half(self):
        m = zero_model()
        assert forward_classifier(m, np.ones(DIMS[2])) == 0.5

    def test_huge_logit_gap_saturates_without_overflow(self):
        m = zero_model()
        m.b5[:] = [0.0, 100.0]
        p = forward_classifier(m, np.zeros(DIMS[2]))
        assert abs(p - 1.0) <= 1e-12

    def test_matches_softmax_oracle(self):
        rng = np.random.default_rng(9)
        m = init_model(DIMS, seed=5)
        for _ in range(20):
            f = rng.normal(size=DIMS[2])
            q3 = np.maximum(m.W3.T @ f + m.b3, 0.0)
            q4 = np.maximum(m.W4.T @ q3 + m.b4, 0.0)
            z = m.W5.T @ q4 + m.b5
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


def per_stream_backward(model, batch, weights, variant):
    """Reference for backward: each stream through its own layer passes,
    three feature forwards (two without a pair term) and two classifier
    forwards, and the weight gradients of the streams summed in the
    order a, n, b."""
    f_a, feat_a = _feat_forward(model, batch.a)
    f_n, feat_n = _feat_forward(model, batch.n)
    f_b = feat_b = None
    if uses_pair(variant):
        f_b, feat_b = _feat_forward(model, batch.b)
    P_a, clf_a = _clf_forward(model, f_a)
    P_n, clf_n = _clf_forward(model, f_n)
    p_a, p_n = P_a[:, 1], P_n[:, 1]
    _, c, d, _ = loss_terms(f_a, f_b, f_n, p_a, p_n, weights, variant)
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
        g = {}
        df = df + _clf_backward(model, g, clf, dLdp[:, None] * P[:, 1:2] * (e1 - P))
        _feat_backward(model, g, feat, df)
        parts.append(g)
    if c is not None:
        parts.append({})
        _feat_backward(model, parts[-1], feat_b, df_b)
    grads = {}
    for g in parts:  # a, n, b
        for name, v in g.items():
            grads[name] = grads[name] + v if name in grads else v
    return grads


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
        # loss_terms is total_loss bit for bit, None for a dropped term
        got = loss_terms(f_a, f_b, f_n, p_a, p_n, w, variant=variant)
        assert got[0].tobytes() == rows.tobytes()
        dropped = [variant == "SlossOnly", variant in ("SlossOnly", "wo-Dloss"), False]
        assert [t is None for t in got[1:]] == dropped

    def test_one_loss_evaluation_per_backward(self, monkeypatch):
        # Counted wherever the term functions are looked up, in loss or
        # in net.
        calls = {"loss_d": 0, "loss_s": 0}
        for name in calls:
            real = getattr(loss_module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(loss_module, name, counted)
            monkeypatch.setattr(net_module, name, counted, raising=False)
        m = init_model(DIMS, seed=13)
        backward(m, rand_batch(np.random.default_rng(25)), LossWeights())
        assert calls == {"loss_d": 1, "loss_s": 1}

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
            grads, terms = backward(m, batch, w, variant, names)
            assert list(grads) == [n for n in PARAM_NAMES if n in names]
            assert terms == full_terms
            for name, g in grads.items():
                assert g.tobytes() == full[name].tobytes(), (names, name)

    @pytest.mark.parametrize("names", [PARAM_NAMES, FEATURE_PARAMS, CLASSIFIER_PARAMS])
    def test_flat_gradients_written_in_place_bit_equal(self, names):
        rng = np.random.default_rng(30)
        m = init_model(DIMS, seed=17)
        batch = rand_batch(rng)
        want, want_terms = backward(m, batch, LossWeights(), "full", names)
        out = FlatParams.of((name, np.full_like(want[name], np.nan)) for name in names)
        grads, terms = backward(m, batch, LossWeights(), "full", out)
        assert terms == want_terms
        assert list(grads) == list(names)
        for name, g in grads.items():
            assert g is out[name]
            assert g.tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("value, named", [(np.nan, "W4"), (np.inf, "W4"), (1e200, None)])
    def test_flat_gradient_check_names_first_bad_layer(self, monkeypatch, value, named):
        real = net_module._clf_backward

        def poisoned(model, grads, cache, dz):
            out = real(model, grads, cache, dz)
            grads["W4"].flat[0] = grads["b5"].flat[-1] = value
            return out

        monkeypatch.setattr(net_module, "_clf_backward", poisoned)
        m = init_model(DIMS, seed=18)
        out = FlatParams.of((name, getattr(m, name)) for name in PARAM_NAMES)
        batch = rand_batch(np.random.default_rng(31))
        if named is None:  # huge but finite: squaring overflows, the search clears it
            backward(m, batch, LossWeights(), "full", out)
        else:
            with pytest.raises(NumericalError, match=f"^non-finite gradient in layer {named}$"):
                backward(m, batch, LossWeights(), "full", out)

    def test_feature_layers_differentiated_only_when_named(self, monkeypatch):
        calls = []
        real = net_module._feat_backward
        monkeypatch.setattr(
            net_module, "_feat_backward", lambda *args: calls.append(1) or real(*args)
        )
        m = init_model(DIMS, seed=16)
        batch = rand_batch(np.random.default_rng(29))
        for names, want in [(PARAM_NAMES, 1), (CLASSIFIER_PARAMS, 0), (("b1",), 1), ((), 0)]:
            calls.clear()
            backward(m, batch, LossWeights(), names=names)
            assert len(calls) == want, names

    def test_one_pass_per_layer_group(self, monkeypatch):
        calls = count_layer_passes(monkeypatch)
        m = init_model(DIMS, seed=13)
        for variant in VARIANTS:
            batch = rand_batch(np.random.default_rng(27))
            if not uses_pair(variant):
                batch.b = None
            calls.update(_feat_forward=0, _clf_forward=0)
            backward(m, batch, LossWeights(), variant=variant)
            assert calls == {"_feat_forward": 1, "_clf_forward": 1}, variant

    def test_unknown_variant_rejected_before_any_forward(self, monkeypatch):
        def forward(*args):
            raise AssertionError("forward ran")

        monkeypatch.setattr(net_module, "_feat_forward", forward)
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
        m.W2[0, 0] = np.nan
        with pytest.raises(NumericalError, match="W"):
            backward(m, rand_batch(rng), LossWeights())

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
        flat = FlatParams.of(m.params())
        assert list(flat) == list(PARAM_NAMES)
        assert flat.vec.size == m.n_params()
        assert np.array_equal(flat.vec, np.concatenate([a.ravel() for _, a in m.params()]))
        for name, arr in m.params():
            assert flat[name].shape == arr.shape
            assert np.shares_memory(flat[name], flat.vec)
            assert not np.shares_memory(flat[name], arr)
        flat["b3"][0] = 7.0
        assert 7.0 in flat.vec

    def test_run_is_a_slice_of_the_same_vector(self):
        flat = FlatParams.of(init_model(DIMS, seed=20).params())
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
        flat = FlatParams.of([("a", np.ones((2, 3))), ("b", np.ones(4))])
        zeros = flat.zeros()
        assert zeros.shapes() == flat.shapes() == [("a", (2, 3)), ("b", (4,))]
        assert not zeros.vec.any() and flat.vec.all()
        with pytest.raises(ValueError, match="9 entries, the vector 10"):
            FlatParams(np.zeros(10), [("a", (3, 3))])

    @pytest.mark.parametrize(
        "bad, named",
        [({}, None), ({"b2": np.nan}, "b2"), ({"W5": -np.inf, "W3": np.inf}, "W3"),
         ({"W1": 1e200, "b5": -1e300}, None)],
    )
    def test_check_finite_with_vector(self, bad, named):
        flat = FlatParams.of(init_model(DIMS, seed=21).params())
        for name, value in bad.items():
            flat[name].flat[0] = value
        for vec in (flat.vec, None):  # one reduction, or the search alone
            if named is None:
                check_finite(flat.items(), vec)
                continue
            with pytest.raises(NumericalError, match=f"^non-finite values in parameter {named}$"):
                check_finite(flat.items(), vec)


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
            u1 = X @ model.W1 + model.b1
            if np.min(np.abs(u1)) < kink_margin:
                ok = False
                break
            feats.append(np.maximum(u1, 0.0) @ model.W2 + model.b2)
        if not ok:
            continue
        for f in (feats[0], feats[2]):  # classifier runs on anchors and negatives
            u3 = f @ model.W3 + model.b3
            u4 = np.maximum(u3, 0.0) @ model.W4 + model.b4
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
        getattr(m, param)[0] = np.nan
        with pytest.raises(NumericalError, match="no well-conditioned"):
            conditioned_batch(m, np.random.default_rng(0), max_tries=5)


def count_layer_passes(monkeypatch):
    """Count the calls of net's feature and classifier forwards."""
    calls = {}
    for name in ("_feat_forward", "_clf_forward"):
        real = getattr(net_module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(net_module, name, counted)
    return calls


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
        assert rep.passed and rep.entries_checked == m.n_params(), str(rep)

    def test_one_pass_per_layer_group_per_chunk(self, monkeypatch):
        m = init_model(DIMS, seed=207)
        batch = conditioned_batch(m, np.random.default_rng(29))
        grads, _ = backward(m, batch, LossWeights())
        monkeypatch.setattr("slowtrack.net.FD_CHUNK_BYTES", 1)  # one entry per chunk
        calls = count_layer_passes(monkeypatch)
        calls.update(_feat_forward=0, _clf_forward=0)
        rep = finite_diff_check(m, batch, LossWeights(), analytic=grads)
        assert rep.passed
        assert calls == {"_feat_forward": m.n_params(), "_clf_forward": m.n_params()}

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
        # 7-entry chunks: W1's 30 entries end in a partial chunk
        monkeypatch.setattr("slowtrack.net.FD_CHUNK_BYTES", 7 * 2 * m.W1.nbytes)
        clean = finite_diff_check(m, batch, w)
        assert clean.passed and clean.entries_checked == m.n_params()
        assert clean.per_param == whole.per_param
        grads, _ = backward(m, batch, w)
        grads["W1"][1, 4] += 1.0  # flat 9: second chunk
        grads["W1"][5, 4] += 1.0  # flat 29: last entry, in the partial chunk
        corrupt = {idx: float(grads["W1"][idx]) for idx in [(1, 4), (5, 4)]}
        rep = finite_diff_check(m, batch, w, analytic=grads)
        assert not rep.passed
        assert {f.index: f.analytic for f in rep.failures if f.param == "W1"} == corrupt
        assert all(f.param == "W1" for f in rep.failures)

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
        def fail(*args):
            raise AssertionError("feature layers differentiated")

        m = init_model(DIMS, seed=206)
        batch = conditioned_batch(m, np.random.default_rng(24))
        monkeypatch.setattr(net_module, "_feat_backward", fail)
        rep = finite_diff_check(m, batch, LossWeights(), params=CLASSIFIER_PARAMS)
        assert rep.passed and list(rep.per_param) == list(CLASSIFIER_PARAMS)

    def test_no_parameters_is_vacuous_pass(self):
        rng = np.random.default_rng(20)
        m = init_model(DIMS, seed=203)
        rep = finite_diff_check(m, rand_batch(rng), LossWeights(), params=[])
        assert rep.passed and rep.entries_checked == 0

    def test_empty_model_is_vacuous_pass(self):
        empty = Model(
            dims=(0, 0, 0, 0, 0, 0),
            **{f"W{i}": np.zeros((0, 0)) for i in range(1, 6)},
            **{f"b{i}": np.zeros(0) for i in range(1, 6)},
        )
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

    def test_rows_are_repr_of_each_entry(self, tmp_path):
        # The writer formats whole rows; the reference formats each
        # entry as a float, as the writer once did.
        m = init_model(DIMS, seed=307)
        m.b2[:] = [0.1, -0.0, 1e-300, 2.5]
        p = tmp_path / "model.txt"
        save_model(m, p)
        want = [MAGIC, " ".join(map(str, m.dims)), "relu"]
        for _, arr in m.params():
            want += [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(arr)]
        assert p.read_text() == "\n".join(want) + "\n"

    def test_save_load_save_byte_identical(self, tmp_path):
        m = init_model(DIMS, seed=301)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_named(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=302), p)
        p.write_text(p.read_text().replace("CDNN1", "CDNN9", 1))
        with pytest.raises(FormatError, match="CDNN9"):
            load_model(p)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=303), p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(FormatError):
            load_model(p)

    def test_bad_token_reports_line(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=304), p)
        lines = p.read_text().splitlines()
        lines[4] = lines[4].replace(lines[4].split()[0], "oops", 1)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=":5"):
            load_model(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=305), p)
        p.write_text(p.read_text() + "1.0 2.0\n")
        with pytest.raises(FormatError):
            load_model(p)

    def test_unknown_nonlinearity_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(init_model(DIMS, seed=306), p)
        p.write_text(p.read_text().replace("relu", "gelu", 1))
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
        kw = {}
        for i in range(5):
            kw[f"W{i + 1}"] = np.ones((dims[i], dims[i + 1]))
            kw[f"b{i + 1}"] = np.zeros(dims[i + 1])
        p = tmp_path / "m.txt"
        save_model(Model(dims=dims, **kw), p)
        with pytest.raises(FormatError, match=f":2: .*{why}"):
            load_model(p)
