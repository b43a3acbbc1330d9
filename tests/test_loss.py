"""Tests for the loss terms. Closed-form values are checked to 1e-12."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slowtrack.errors import ConfigError
from slowtrack.loss import LossWeights, loss_c, loss_d, loss_p, loss_s, total_loss

vec = arrays(
    np.float64,
    st.integers(1, 8),
    elements=st.floats(-100, 100, allow_nan=False),
)


def vec_pair():
    return st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=st.floats(-100, 100)),
            arrays(np.float64, n, elements=st.floats(-100, 100)),
        )
    )


class TestLossC:
    def test_identical_features_give_zero(self):
        f = np.array([0.3, -1.2, 4.0])
        assert loss_c(f, f) == 0.0

    def test_unit_basis_pair(self):
        assert loss_c(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_matches_componentwise_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            fa, fb = rng.normal(size=n), rng.normal(size=n)
            oracle = sum((a - b) ** 2 for a, b in zip(fa, fb))
            assert abs(loss_c(fa, fb) - oracle) <= 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_c(np.zeros(3), np.zeros(4))

    @given(vec_pair())
    def test_symmetric_and_nonnegative(self, pair):
        fa, fb = pair
        v = loss_c(fa, fb)
        assert v >= 0.0
        assert v == loss_c(fb, fa)

    def test_batched_matches_rowwise(self):
        rng = np.random.default_rng(1)
        A, B = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
        batched = loss_c(A, B)
        assert batched.shape == (5,)
        for i in range(5):
            assert batched[i] == loss_c(A[i], B[i])


class TestLossD:
    def test_coincident_pair_gives_one(self):
        f = np.array([2.0, 3.0])
        assert loss_d(f, f, beta=1.0) == 1.0

    def test_unit_distance_gives_inverse_e(self):
        fp, fn = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        assert abs(loss_d(fp, fn, beta=1.0) - math.exp(-1)) <= 1e-12

    def test_beta_sharpens(self):
        fp, fn = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        assert loss_d(fp, fn, beta=2.0) == pytest.approx(math.exp(-2), abs=1e-12)

    def test_monotone_decreasing_in_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            fp = rng.normal(size=6)
            d1, d2 = sorted(rng.uniform(0.1, 5.0, size=2))
            e1 = np.zeros(6)
            e1[0] = 1.0
            assert loss_d(fp, fp + d1 * e1) > loss_d(fp, fp + d2 * e1)

    @given(vec_pair())
    def test_bounded_and_symmetric(self, pair):
        fp, fn = pair
        v = loss_d(fp, fn)
        assert 0.0 <= v <= 1.0
        assert v == loss_d(fn, fp)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            loss_d(np.zeros(2), np.zeros(2), beta=0.0)


class TestLossS:
    def test_perfect_classification_near_zero(self):
        assert 0.0 <= loss_s(1.0, 0.0, p_floor=1e-12) <= 3e-12

    def test_half_half_is_ln_four(self):
        assert abs(loss_s(0.5, 0.5) - math.log(4)) <= 1e-12

    def test_point_nine_point_one(self):
        assert abs(loss_s(0.9, 0.1) - (-math.log(0.81))) <= 1e-12

    def test_worst_case_is_finite(self):
        v = loss_s(0.0, 1.0, p_floor=1e-12)
        assert np.isfinite(v) and v > 0

    @given(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_nonnegative_finite(self, pp, pn):
        v = loss_s(pp, pn)
        assert np.isfinite(v) and v >= 0.0

    def test_batched(self):
        v = loss_s(np.array([0.5, 0.9]), np.array([0.5, 0.1]))
        assert v == pytest.approx([math.log(4), -math.log(0.81)], abs=1e-12)


class TestLossP:
    def test_identical_to_loss_c(self):
        rng = np.random.default_rng(9)
        fa, fb = rng.normal(size=12), rng.normal(size=12)
        assert loss_p(fa, fb) == loss_c(fa, fb)

    def test_zero_on_equal(self):
        f = np.array([1.0, 2.0])
        assert loss_p(f, f) == 0.0

    def test_matches_componentwise_oracle(self):
        rng = np.random.default_rng(43)
        fa, fb = rng.normal(size=25), rng.normal(size=25)
        oracle = sum((a - b) ** 2 for a, b in zip(fa, fb))
        assert abs(loss_p(fa, fb) - oracle) <= 1e-12


class TestWeights:
    def test_defaults_valid(self):
        w = LossWeights()
        assert (w.lam, w.mu, w.beta, w.p_floor) == (10.0, 10.0, 1.0, 1e-12)

    @pytest.mark.parametrize(
        "kw",
        [
            {"lam": -1.0},
            {"mu": -0.5},
            {"beta": 0.0},
            {"p_floor": 0.0},
            {"p_floor": 0.5},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            LossWeights(**kw)


class TestTotalLoss:
    fa = np.array([1.0, 0.0])
    fb = np.array([0.0, 1.0])  # loss_c(fa, fb) = 2

    def test_weighted_sum_example(self):
        # pair term 2, discrimination term 1 (f_neg == f_a), mu-weighted
        # classification ~0 at perfect probabilities: 2 + 10*1 + ~0 = 12.
        w = LossWeights(lam=10.0, mu=10.0)
        v = total_loss(self.fa, self.fb, self.fa, 1.0, 0.0, w)
        assert v == pytest.approx(12.0, abs=1e-10)

    def test_zero_weights_reduce_to_pair_term(self):
        w = LossWeights(lam=0.0, mu=0.0)
        v = total_loss(self.fa, self.fb, np.array([5.0, 5.0]), 0.7, 0.3, w)
        assert v == loss_c(self.fa, self.fb)

    def test_sloss_only_keeps_classification_term(self):
        w = LossWeights(mu=10.0)
        v = total_loss(None, None, None, 0.5, 0.5, w, variant="SlossOnly")
        assert v == 10.0 * loss_s(0.5, 0.5)

    def test_wo_dloss_drops_discrimination(self):
        w = LossWeights()
        v = total_loss(self.fa, self.fb, None, 0.5, 0.5, w, variant="wo-Dloss")
        assert v == loss_c(self.fa, self.fb) + 10.0 * loss_s(0.5, 0.5)

    def test_matches_term_functions(self):
        rng = np.random.default_rng(5)
        fa, fb, fn = rng.normal(size=(3, 16))
        w = LossWeights(lam=3.0, mu=7.0, beta=2.0)
        v = total_loss(fa, fb, fn, 0.8, 0.2, w)
        manual = (
            loss_c(fa, fb)
            + 3.0 * loss_d(fa, fn, 2.0)
            + 7.0 * loss_s(0.8, 0.2, w.p_floor)
        )
        assert v == manual

    def test_linear_in_lam_and_mu(self):
        rng = np.random.default_rng(6)
        fa, fb, fn = rng.normal(size=(3, 8))
        base = total_loss(fa, fb, fn, 0.6, 0.4, LossWeights(lam=0.0, mu=0.0))
        for lam, mu in [(1.0, 0.0), (0.0, 1.0), (4.0, 9.0)]:
            v = total_loss(fa, fb, fn, 0.6, 0.4, LossWeights(lam=lam, mu=mu))
            expect = base + lam * loss_d(fa, fn) + mu * loss_s(0.6, 0.4)
            assert v == pytest.approx(expect, rel=1e-12)

    def test_unknown_variant_rejected(self):
        w = LossWeights()
        with pytest.raises(ConfigError):
            total_loss(self.fa, self.fb, self.fa, 0.5, 0.5, w, variant="nope")

    def test_missing_inputs_rejected(self):
        w = LossWeights()
        with pytest.raises(ValueError):
            total_loss(None, None, self.fa, 0.5, 0.5, w)
        with pytest.raises(ValueError):
            total_loss(self.fa, self.fb, None, 0.5, 0.5, w)

    def test_batched(self):
        rng = np.random.default_rng(8)
        A, B, N = rng.normal(size=(3, 4, 8))
        pp, pn = rng.uniform(size=(2, 4))
        w = LossWeights()
        batched = total_loss(A, B, N, pp, pn, w)
        assert batched.shape == (4,)
        for i in range(4):
            assert batched[i] == total_loss(A[i], B[i], N[i], pp[i], pn[i], w)
