"""Tests for the feature-error guarantee machinery: the closed forms,
the noise generators, and the two Monte Carlo verifiers.

The guarantee itself is probabilistic, so the Monte Carlo assertions
carry a one-sided 99% binomial slack; empirical rates quoted in
comments come from pilot runs at the pinned seeds.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from slowtrack import bound
from slowtrack.bound import (
    CSV_HEADER,
    GENERATORS,
    PREDICTORS,
    BoundParams,
    Scenario,
    bound_value,
    rho,
    sample_noise,
    standard_scenario,
    verify_chebyshev,
    verify_error_bound,
    write_reports,
)
from slowtrack.errors import ConfigError


class TestBoundParams:
    def test_defaults_admissible(self):
        p = BoundParams()
        assert p.n == 4 and p.m == 100
        assert rho(p) < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"m": 0},
            {"delta": 0.0},
            {"delta": -0.5},
            {"K": -0.1},
            {"dt": -1.0},
            {"max_var": -1.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            BoundParams(**kwargs)

    def test_rejects_delta_at_admissibility_floor(self):
        # sqrt(n/m * max_var) = sqrt(4/100) = 0.2 exactly.
        with pytest.raises(ConfigError, match="exceed"):
            BoundParams(n=4, m=100, delta=0.2, max_var=1.0)

    def test_accepts_delta_just_above_floor(self):
        BoundParams(n=4, m=100, delta=0.2000001, max_var=1.0)

    def test_zero_variance_cap_needs_only_positive_delta(self):
        p = BoundParams(delta=1e-9, max_var=0.0)
        assert rho(p) == 0.0


class TestClosedForms:
    def test_rho_examples(self):
        assert rho(BoundParams(n=4, m=100, delta=0.5, max_var=1.0)) == pytest.approx(
            0.16, rel=1e-12
        )
        assert rho(
            BoundParams(n=10, m=1000, delta=0.1, max_var=0.01)
        ) == pytest.approx(0.01, rel=1e-12)

    def test_bound_value_constant_losses(self):
        p = BoundParams(n=4, m=100, delta=0.5, K=0.1, dt=1.0)
        # mean sqrt(4) = 2, plus 4 * (0.5 + 0.1) = 2.4.
        assert bound_value([4.0] * 100, p) == pytest.approx(4.4, rel=1e-12)

    def test_bound_value_zero_losses_static(self):
        p = BoundParams(n=4, m=100, delta=0.5, K=0.0)
        assert bound_value([0.0] * 100, p) == pytest.approx(4 * 0.5, rel=1e-12)

    def test_bound_value_matches_straight_line_oracle(self):
        rng = np.random.default_rng(9)
        p = BoundParams(n=3, m=57, delta=0.9, K=0.2, dt=0.5, max_var=1.0)
        losses = rng.uniform(0.0, 10.0, size=57)
        oracle = sum(math.sqrt(x) for x in losses) / 57 + 3 * (0.9 + 0.2 * 0.5)
        assert bound_value(losses, p) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("m", [57, 300])
    def test_bound_value_rows_equal_one_row_calls(self, m):
        rng = np.random.default_rng(m)
        p = BoundParams(n=3, m=m, delta=0.9, K=0.2, dt=0.5, max_var=1.0)
        losses = rng.uniform(0.0, 10.0, size=(6, m))
        rows = bound_value(losses, p)
        assert rows.shape == (6,)
        assert rows.tolist() == [bound_value(row, p) for row in losses]

    def test_bound_value_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 100"):
            bound_value([1.0] * 99, BoundParams())

    def test_bound_value_rejects_negative_loss(self):
        losses = [1.0] * 100
        losses[17] = -0.001
        with pytest.raises(ValueError, match=">= 0"):
            bound_value(losses, BoundParams())


class TestNoiseGenerators:
    N = 200_000

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_zero_mean_and_exact_variance(self, kind):
        rng = np.random.default_rng(3)
        x = sample_noise(kind, 0.7, rng, self.N)
        assert abs(x.mean()) < 4 * math.sqrt(0.7 / self.N)
        assert x.var() == pytest.approx(0.7, rel=0.05)

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_zero_variance_collapses_to_zero(self, kind):
        rng = np.random.default_rng(3)
        assert np.array_equal(sample_noise(kind, 0.0, rng, 50), np.zeros(50))

    def test_bernoulli_is_two_point(self):
        rng = np.random.default_rng(4)
        x = sample_noise("bernoulli", 4.0, rng, 1000)
        assert set(np.unique(x)) == {-2.0, 2.0}

    def test_uniform_support(self):
        rng = np.random.default_rng(5)
        x = sample_noise("uniform", 1.0, rng, 10_000)
        assert np.all(np.abs(x) <= math.sqrt(3.0))

    def test_unknown_generator_rejected(self):
        with pytest.raises(ConfigError, match="cauchy"):
            sample_noise("cauchy", 1.0, np.random.default_rng(0), 10)

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigError):
            sample_noise("gaussian", -1.0, np.random.default_rng(0), 10)

    @staticmethod
    def numpy_draw(kind, var, rng, shape):
        """The noise as numpy's samplers draw it, a fresh array per call."""
        if kind == "gaussian":
            return rng.normal(0.0, math.sqrt(var), size=shape)
        if kind == "uniform":
            half = math.sqrt(3.0 * var)
            return rng.uniform(-half, half, size=shape)
        return math.sqrt(var) * (2.0 * rng.integers(0, 2, size=shape) - 1.0)

    # (3, 33, 5) splits the bernoulli draws into nine uneven slices; at
    # variance 0 numpy's normal gives +0.0, never -0.0.
    @pytest.mark.parametrize("var", [0.0, 0.7, 4.0])
    @pytest.mark.parametrize("shape", [1, 7, (3, 33, 5)], ids=["1", "7", "3x33x5"])
    @pytest.mark.parametrize("kind", GENERATORS)
    def test_bit_equal_to_numpy_samplers_and_same_stream(self, kind, shape, var):
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got, want = sample_noise(kind, var, rng, shape), self.numpy_draw(kind, var, ref_rng, shape)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()


class TestVerifyChebyshev:
    def test_zero_variance_never_deviates(self):
        r = verify_chebyshev(BoundParams(max_var=0.0), trials=500, seed=0)
        assert r.violation_rate == 0.0
        assert r.satisfaction_rate == 1.0
        assert r.passed

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_standard_params_stay_under_rho(self, kind):
        # Pilot: violation 0.0 for every generator — with m=100 draws
        # the sample-mean std is 0.1, so a 0.5 miss is a 5-sigma event.
        r = verify_chebyshev(BoundParams(), noise=kind, trials=4_000, seed=1)
        assert r.rho == pytest.approx(0.16, rel=1e-12)
        assert r.passed
        assert r.violation_rate <= 0.005

    def test_tight_delta_sees_real_violations(self):
        # delta=0.21 sits just above the 0.2 admissibility floor; pilot
        # violation 0.137 against a 0.907 ceiling.
        r = verify_chebyshev(BoundParams(delta=0.21), trials=4_000, seed=1)
        assert 0.05 < r.violation_rate < 0.25
        assert r.passed

    def test_bad_trials_rejected(self):
        with pytest.raises(ConfigError):
            verify_chebyshev(BoundParams(), trials=0)

    def test_deterministic_given_seed(self):
        a = verify_chebyshev(BoundParams(), trials=800, seed=7)
        b = verify_chebyshev(BoundParams(), trials=800, seed=7)
        assert a == b



class TestVerifyErrorBound:
    def test_perfect_prediction_zero_noise_static(self):
        p = BoundParams(K=0.0, max_var=0.0)
        sc = standard_scenario(p, predictor="truth")
        r = verify_error_bound(p, sc, trials=200, seed=0)
        assert r.satisfaction_rate == 1.0
        assert r.passed

    def test_standard_scenario_meets_point84(self):
        # Pilot: satisfaction 1.0 — the ceiling is loose by design.
        p = BoundParams()
        r = verify_error_bound(p, standard_scenario(p), trials=4_000, seed=2)
        assert r.satisfaction_rate >= 1.0 - r.rho
        assert r.passed

    def test_adversarial_prediction_still_bounded(self):
        p = BoundParams()
        sc = standard_scenario(p, predictor="adversarial", predictor_scale=50.0)
        r = verify_error_bound(p, sc, trials=4_000, seed=3)
        assert r.satisfaction_rate >= 1.0 - r.rho - r.slack
        assert r.passed

    def test_adversarial_zero_noise_is_deterministically_bounded(self):
        # With noiseless samples the prediction sits predictor_scale
        # from the truth while every sample distance is at least
        # predictor_scale - |drift|, so the ceiling always wins.
        p = BoundParams(max_var=0.0)
        sc = standard_scenario(p, predictor="adversarial", predictor_scale=9.0)
        r = verify_error_bound(p, sc, trials=300, seed=4)
        assert r.satisfaction_rate == 1.0

    def test_drift_over_cap_rejected(self):
        p = BoundParams()  # K*dt = 0.1
        sc = standard_scenario(p)
        sc.drift = np.full(4, 0.11)
        with pytest.raises(ConfigError, match="drift"):
            verify_error_bound(p, sc, trials=10)

    def test_wrong_shape_rejected(self):
        p = BoundParams()
        sc = standard_scenario(p)
        sc.drift = np.zeros(5)
        with pytest.raises(ConfigError, match=r"drift must have shape \(4,\), got \(5,\)"):
            verify_error_bound(p, sc, trials=10)

    def test_unknown_predictor_rejected(self):
        p = BoundParams()
        sc = standard_scenario(p)
        sc.predictor = "oracle"
        with pytest.raises(ConfigError, match="predictor"):
            verify_error_bound(p, sc, trials=10)

    def test_deterministic_given_seed(self):
        p = BoundParams()
        a = verify_error_bound(p, standard_scenario(p), trials=500, seed=11)
        b = verify_error_bound(p, standard_scenario(p), trials=500, seed=11)
        assert a == b


class TestStreamedBlocks:
    """The verifiers hold one block of whole trials at a time; the block
    size must change no report."""

    TRIALS = 3001

    def _reports(self, params):
        reports = [
            verify_chebyshev(params, noise=g, trials=self.TRIALS, seed=5) for g in GENERATORS
        ]
        for g in GENERATORS:
            for predictor in PREDICTORS:
                sc = standard_scenario(params, noise=g, predictor=predictor, predictor_scale=5.0)
                reports.append(verify_error_bound(params, sc, trials=self.TRIALS, seed=6))
        return reports

    # n * m is odd for both, so a one-trial block splits the bernoulli
    # draws at an odd element count.
    @pytest.mark.parametrize(
        "params",
        [BoundParams(n=3, m=33, delta=0.35, K=0.05), BoundParams(n=1, m=33, delta=0.18, K=0.01)],
        ids=["n3", "n1"],
    )
    @pytest.mark.parametrize("block_trials", [1, 2])
    def test_block_size_changes_no_report(self, monkeypatch, params, block_trials):
        per_trial = params.n * params.m
        # 3001 trials in blocks of 1000: four blocks, the last of one trial.
        monkeypatch.setattr(bound, "_BLOCK_ELEMS", 1000 * per_trial)
        whole = self._reports(params)
        # Rates strictly inside (0, 1), so a shifted stream would show.
        # The truth predictor never errs, and at n = 3 the n * delta
        # slack keeps the error bound from failing on any trial.
        if params.n == 1:
            shown = [r for r in whole if not r.label.endswith("-truth")]
        else:
            shown = whole[: len(GENERATORS)]
        assert all(0.0 < r.violation_rate < 1.0 for r in shown)
        monkeypatch.setattr(bound, "_BLOCK_ELEMS", block_trials * per_trial)
        assert self._reports(params) == whole

    def test_error_bound_draws_each_noise_element_once(self, monkeypatch):
        params = BoundParams(n=3, m=33, delta=0.35, K=0.05)
        drawn = []
        fill = bound._fill_noise

        def counted(kind, var, rng, out):
            drawn.append(out.size)
            return fill(kind, var, rng, out)

        monkeypatch.setattr(bound, "_fill_noise", counted)
        monkeypatch.setattr(bound, "_BLOCK_ELEMS", 1000 * params.n * params.m)
        verify_error_bound(params, standard_scenario(params), trials=self.TRIALS, seed=6)
        assert sum(drawn) == self.TRIALS * params.m * params.n


class TestVerifierMemory:
    """Each verifier holds one block of _BLOCK_ELEMS float64s, filled in
    place for every run of whole trials. At the learned model's sizes a
    trial holds 25,600 draws, so a verifier that kept all trials at once
    would need 20 MiB per 100. Beyond the block, the error-bound verifier
    holds the (k, m) losses, a quarter of the block at n = 4, the
    bernoulli draws an eighth of it in int64 slices, and both some
    per-trial vectors."""

    # the learned embedding's size and the acceptance gate's
    SIZES = (BoundParams(n=32, m=800, delta=0.5), BoundParams(n=4, m=100, delta=0.5, K=0.1))

    @staticmethod
    def _peak(run, trials: int) -> int:
        tracemalloc.start()
        try:
            run(trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("noise", GENERATORS)
    @pytest.mark.parametrize("verifier", ["chebyshev", "error-bound"])
    def test_peak_is_capped_and_flat_in_trials(self, verifier, noise):
        for p in self.SIZES:
            if verifier == "chebyshev":
                run = partial(verify_chebyshev, p, noise=noise)
            else:
                run = partial(verify_error_bound, p, standard_scenario(p, noise=noise))
            run(trials=2)  # keep one-off first-call allocations out of the peaks
            per_block = bound._BLOCK_ELEMS // (p.m * p.n)  # trials a block holds
            # three runs, the last of one trial, and five full runs
            small, large = self._peak(run, 2 * per_block + 1), self._peak(run, 5 * per_block)
            block = 8 * per_block * p.m * p.n
            per_trial_vectors = 8 * 8 * per_block * (p.n + 1)  # eight (k, n + 1) arrays
            assert max(small, large) <= 1.25 * block + per_trial_vectors, p
            assert abs(large - small) <= 2**16, p


class TestReportCsv:
    def test_round_trip_layout(self, tmp_path):
        p = BoundParams()
        reports = [
            verify_chebyshev(p, trials=300, seed=0),
            verify_error_bound(p, standard_scenario(p), trials=300, seed=0),
        ]
        out = tmp_path / "report.csv"
        write_reports(reports, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "chebyshev-gaussian"
        assert float(first[1]) == pytest.approx(0.16, rel=1e-12)
        assert first[4] in {"0", "1"}

    def test_rewrite_is_byte_identical(self, tmp_path):
        p = BoundParams()
        reports = [verify_chebyshev(p, trials=300, seed=0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_reports(reports, a)
        write_reports(reports, b)
        assert a.read_bytes() == b.read_bytes()
