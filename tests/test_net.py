"""Tests for the model: init, forwards, analytic backward, FD checking,
and the text serialization format."""

import math

import numpy as np
import pytest

from slowtrack.errors import ConfigError, FormatError, NumericalError
from slowtrack.loss import VARIANTS, LossWeights, loss_c, loss_d, loss_s, total_loss
from slowtrack.net import (
    LossTerms,
    Model,
    TripletBatch,
    _clf_forward,
    backward,
    conditioned_batch,
    finite_diff_check,
    forward_classifier,
    forward_features,
    init_model,
    load_model,
    save_model,
)

DIMS = (6, 5, 4, 4, 3, 2)


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
        total = float(np.mean(total_loss(f_a, f_b, f_n, p_a, p_n, w, variant=variant)))
        assert terms == (total, c_val, d_val, s_val)
        assert all(type(v) is float for v in terms)

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
        assert m2.dims == m.dims and m2.nonlinearity == m.nonlinearity
        for (_, a), (_, b) in zip(m.params(), m2.params()):
            assert np.array_equal(a, b)

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
