"""Tests for the training loops: optimizer arithmetic, the offline phase
over synthetic sequences, and the two online finetuning entry points.

Training-quality regressions (loss reduction, classifier margins) are
pinned from deterministic pilot runs at small scale; the full-scale
budgeted versions live in the acceptance suite.
"""

import re
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from slowtrack import net as net_module
from slowtrack import train as train_module
from slowtrack.dataset import Sequence, SynthSpec, generate
from slowtrack.errors import ConfigError, NumericalError, OutOfViewError, SamplerExhausted
from slowtrack.geometry import BBox, crop_many
from slowtrack.loss import LossWeights
from slowtrack.net import (
    PARAM_NAMES,
    FlatParams,
    Model,
    TripletBatch,
    backward,
    check_finite,
    forward_classifier,
    forward_features,
    init_model,
)
from slowtrack.sampler import Sampler, SamplerConfig
from slowtrack.train import (
    CLASSIFIER_PARAMS,
    FEATURE_PARAMS,
    DRAW_AHEAD_ROWS,
    STEP_BLOCK,
    OptState,
    StepConfig,
    TrainConfig,
    _draw_triplets,
    _first_frame_batches,
    _fit,
    _patches,
    finetune_initial,
    finetune_update,
    optimizer_step,
    train_offline,
)

# Small everywhere: 8x8 grayscale patches keep each optimizer step ~1ms.
DIMS = (64, 16, 8, 8, 4, 2)
SIDE = 8
POOL_ROWS = 48  # an update batch: SamplerConfig's m_p + m_n patches


def params_of(model: Model) -> dict[str, np.ndarray]:
    return dict(model.params())


def assert_params_equal(a: Model, b: Model) -> None:
    pa, pb = params_of(a), params_of(b)
    assert pa.keys() == pb.keys()
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name


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


def assert_params_differ(a: Model, b: Model, names) -> None:
    pa, pb = params_of(a), params_of(b)
    for name in names:
        assert not np.array_equal(pa[name], pb[name]), name


@pytest.fixture(scope="module")
def corpus():
    return [generate(SynthSpec(T=12, velocity=(1.0, 0.0), seed=s)) for s in range(2)]


class TestTrainConfig:
    def test_defaults_valid(self):
        tc = TrainConfig()
        assert tc.optimizer == "adam"
        assert tc.iterations == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": -1},
            {"learning_rate": 0.0},
            {"learning_rate": -0.1},
            {"optimizer": "rmsprop"},
            {"batch_size": 0},
            {"variant": "bogus"},
            {"adam_beta1": 1.0},
            {"adam_beta2": -0.5},
            {"adam_eps": 0.0},
            # each freezes one of the two layer groups: nothing would train
            {"variant": "tarspec", "classifier_only": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


def flat(**arrays):
    """A FlatParams holding a copy of each named array."""
    arrays = {name: np.asarray(arr, dtype=float) for name, arr in arrays.items()}
    vec = np.concatenate([arr.ravel() for arr in arrays.values()] or [np.empty(0)])
    return FlatParams(vec, [(name, arr.shape) for name, arr in arrays.items()])


class TestOptimizerStep:
    def test_sgd_zero_gradient_is_identity(self):
        params = flat(W=[[1.0, -2.0], [3.5, 0.25]])
        before = params["W"].copy()
        grads = flat(W=np.zeros((2, 2)))
        optimizer_step(params, grads, OptState(), TrainConfig(optimizer="sgd"))
        assert np.array_equal(params["W"], before)

    def test_sgd_closed_form(self):
        # theta <- theta - lr * g: 1.0 - 0.1 * 2.0 = 0.8, exactly.
        params = flat(w=[1.0])
        grads = flat(w=[2.0])
        tc = TrainConfig(optimizer="sgd", learning_rate=0.1)
        optimizer_step(params, grads, OptState(), tc)
        assert params["w"][0] == 0.8

    def test_sgd_updates_in_place(self):
        params = flat(w=[1.0, 2.0], b=[3.0])
        views = dict(params)
        out, _ = optimizer_step(
            params,
            flat(w=np.ones(2), b=[2.0]),
            OptState(),
            TrainConfig(optimizer="sgd", learning_rate=0.5),
        )
        assert out is params
        assert all(out[name] is view for name, view in views.items())
        assert np.array_equal(views["w"], [0.5, 1.5]) and views["b"][0] == 2.0
        assert np.array_equal(params.vec, [0.5, 1.5, 2.0])

    def test_adam_first_step_oracle(self):
        # With zero state the bias corrections cancel the decay exactly:
        # m_hat = g, v_hat = g*g, so the step is lr * g / (|g| + eps).
        g = np.array([2.0, -0.5, 1e-3])
        lr = 0.001
        tc = TrainConfig(optimizer="adam", learning_rate=lr)
        params = flat(w=np.zeros(3))
        optimizer_step(params, flat(w=g), OptState(), tc)
        expected = -lr * g / (np.abs(g) + tc.adam_eps)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)
        # ...which is within eps of a signed constant step.
        np.testing.assert_allclose(params["w"], -lr * np.sign(g), rtol=1e-5)

    def test_adam_zero_gradient_is_identity(self):
        params = flat(w=[3.0])
        optimizer_step(params, flat(w=np.zeros(1)), OptState(), TrainConfig())
        assert params["w"][0] == 3.0

    def test_adam_state_advances(self):
        state = OptState()
        params = flat(w=np.zeros(2))
        g = flat(w=np.ones(2))
        optimizer_step(params, g, state, TrainConfig())
        assert state.t == 1
        assert state.m.shapes() == state.v.shapes() == [("w", (2,))]
        optimizer_step(params, g, state, TrainConfig())
        assert state.t == 2

    def test_sgd_leaves_state_untouched(self):
        state = OptState()
        optimizer_step(flat(w=np.ones(1)), flat(w=np.ones(1)), state, TrainConfig(optimizer="sgd"))
        assert state.t == 0 and state.m is None and state.v is None

    def test_shape_mismatch_rejected(self):
        # a different shape, name or number of arrays; both layouts named
        for grads in (
            flat(w=np.zeros((2, 3))), flat(v=np.zeros((2, 2))), flat(w=np.zeros((2, 2)), b=[0.0])
        ):
            want = f"gradient layout {grads.shapes()} != parameter layout [('w', (2, 2))]"
            with pytest.raises(ValueError) as info:
                optimizer_step(flat(w=np.zeros((2, 2))), grads, OptState(), TrainConfig())
            assert str(info.value) == want


class TestTrainOffline:
    def test_requires_sequences(self):
        with pytest.raises(ConfigError):
            train_offline([], init_model(DIMS, seed=0), TrainConfig(), SamplerConfig())

    def test_rejects_single_frame_sequence(self, corpus):
        seq = corpus[0]
        stub = Sequence("stub", seq.frames[:1], seq.groundtruth[:1])
        with pytest.raises(ConfigError, match="fewer than 2"):
            train_offline([stub], init_model(DIMS, seed=0), TrainConfig(), SamplerConfig())

    def test_rejects_fully_occluded_corpus(self, corpus):
        seq = corpus[0]
        shroud = Sequence("shroud", seq.frames, seq.groundtruth, [True] * seq.T)
        with pytest.raises(ConfigError, match="occluded"):
            train_offline([shroud], init_model(DIMS, seed=0), TrainConfig(), SamplerConfig())

    def test_zero_iterations_returns_equal_copy(self, corpus):
        m0 = init_model(DIMS, seed=0)
        m1, trace = train_offline(corpus, m0, TrainConfig(iterations=0), SamplerConfig())
        assert trace == []
        assert m1 is not m0
        assert_params_equal(m0, m1)

    def test_input_model_not_mutated(self, corpus):
        m0 = init_model(DIMS, seed=0)
        snapshot = {k: v.copy() for k, v in m0.params()}
        train_offline(
            corpus, m0, TrainConfig(iterations=3, batch_size=4, seed=1), SamplerConfig(seed=2)
        )
        for name, arr in m0.params():
            assert np.array_equal(arr, snapshot[name]), name

    def test_deterministic_given_seeds(self, corpus):
        m0 = init_model(DIMS, seed=0)
        tc = TrainConfig(iterations=10, batch_size=4, seed=5)
        ma, ta = train_offline(corpus, m0, tc, SamplerConfig(seed=6))
        mb, tb = train_offline(corpus, m0, tc, SamplerConfig(seed=6))
        assert ta == tb
        assert_params_equal(ma, mb)

    def test_trace_shape_and_range(self, corpus):
        m0 = init_model(DIMS, seed=0)
        _, trace = train_offline(
            corpus, m0, TrainConfig(iterations=8, batch_size=4, seed=1), SamplerConfig(seed=2)
        )
        assert [r.step for r in trace] == list(range(8))
        for r in trace:
            # Every term is a mean of non-negative quantities.
            assert r.loss >= 0.0 and np.isfinite(r.loss)
            assert r.loss_c >= 0.0 and r.loss_d >= 0.0 and r.loss_s >= 0.0

    def test_loss_drops_by_half(self, corpus):
        # Pilot at these exact seeds: first-20 mean 5.36 -> last-20 mean
        # ratio 0.30. The gate leaves headroom without being vacuous.
        m0 = init_model(DIMS, seed=0)
        _, trace = train_offline(
            corpus,
            m0,
            TrainConfig(iterations=300, batch_size=8, seed=1),
            SamplerConfig(seed=2),
        )
        first = np.mean([r.loss for r in trace[:20]])
        last = np.mean([r.loss for r in trace[-20:]])
        assert last < 0.5 * first

    def test_ground_truth_mostly_off_frame_trains(self):
        # The target drifts left until 19.5 of its 24 columns are off the
        # frame; every negative must still overlap the frame to be cropped.
        seq = generate(SynthSpec(T=60, start_x=0, start_y=48, velocity=(-0.33, 0), seed=3))
        tc = TrainConfig(iterations=10, batch_size=4, seed=0)
        model, trace = train_offline([seq], init_model(DIMS, seed=0), tc, SamplerConfig(seed=0))
        assert len(trace) == 10
        check_finite(model)

    def test_occluded_pairs_are_skipped(self, corpus):
        # Occlude everything after frame 1: the only usable pair is
        # (0, 1), so the run must match training on the two-frame
        # truncation of the same sequence, draw for draw.
        seq = corpus[0]
        flags = [False, False] + [True] * (seq.T - 2)
        shrouded = Sequence("s", seq.frames, seq.groundtruth, flags)
        head = Sequence("s", seq.frames[:2], seq.groundtruth[:2])
        m0 = init_model(DIMS, seed=0)
        tc = TrainConfig(iterations=6, batch_size=4, seed=3)
        ma, ta = train_offline([shrouded], m0, tc, SamplerConfig(seed=4))
        mb, tb = train_offline([head], m0, tc, SamplerConfig(seed=4))
        assert ta == tb
        assert_params_equal(ma, mb)

    def test_exhaustion_names_sequence_and_frame(self, corpus):
        # Only frames 5 and 6 (index 4 and 5) are unoccluded, and one
        # proposal per draw cannot yield 16 positives.
        seq = corpus[0]
        flags = [True] * 4 + [False, False] + [True] * (seq.T - 6)
        shrouded = Sequence("shrouded", seq.frames, seq.groundtruth, flags)
        message = r"^shrouded frame 5: positive sampling found 1/16 in 1 attempts$"
        with pytest.raises(SamplerExhausted, match=message):
            train_offline(
                [shrouded], init_model(DIMS, seed=0), TrainConfig(iterations=1),
                SamplerConfig(max_rejections=1),
            )

    def test_skip_occluded_off_uses_occluded_frames(self, corpus):
        seq = corpus[0]
        flags = [False, False] + [True] * (seq.T - 2)
        shrouded = Sequence("s", seq.frames, seq.groundtruth, flags)
        m0 = init_model(DIMS, seed=0)
        tc = TrainConfig(iterations=6, batch_size=4, seed=3, skip_occluded=False)
        head = Sequence("s", seq.frames[:2], seq.groundtruth[:2])
        _, ta = train_offline([shrouded], m0, tc, SamplerConfig(seed=4))
        _, tb = train_offline([head], m0, tc, SamplerConfig(seed=4))
        assert ta != tb  # the pair pool is genuinely larger


class TestVariants:
    def run_one(self, corpus, variant, iterations=1):
        m0 = init_model(DIMS, seed=0)
        tc = TrainConfig(iterations=iterations, batch_size=4, seed=7, variant=variant)
        return train_offline(corpus, m0, tc, SamplerConfig(seed=8))

    def test_dropping_d_term_changes_only_that_column(self, corpus):
        _, full = self.run_one(corpus, "full")
        _, wo = self.run_one(corpus, "wo-Dloss")
        f, w = full[0], wo[0]
        # Identical seeds -> identical first batch -> shared terms agree.
        assert f.loss_c == w.loss_c
        assert f.loss_s == w.loss_s
        assert w.loss_d == 0.0
        assert f.loss_d > 0.0
        lam = LossWeights().lam
        assert f.loss == pytest.approx(w.loss + lam * f.loss_d, rel=1e-12)

    def test_sloss_only_trains_on_classifier_term_alone(self, corpus):
        _, trace = self.run_one(corpus, "SlossOnly", iterations=4)
        mu = LossWeights().mu
        for r in trace:
            assert r.loss_c == 0.0 and r.loss_d == 0.0
            assert r.loss == pytest.approx(mu * r.loss_s, rel=1e-12)

    def test_same_frame_pair_variant_runs(self, corpus):
        _, trace = self.run_one(corpus, "wo-C-learning", iterations=4)
        for r in trace:
            assert np.isfinite(r.loss)
            assert r.loss_d > 0.0  # discrimination term still active

    def test_frozen_classifier_variant(self, corpus):
        m0 = init_model(DIMS, seed=0)
        tc = TrainConfig(iterations=5, batch_size=4, seed=7, variant="tarspec")
        m1, _ = train_offline(corpus, m0, tc, SamplerConfig(seed=8))
        p0, p1 = params_of(m0), params_of(m1)
        for name in CLASSIFIER_PARAMS:
            assert np.array_equal(p0[name], p1[name]), name
        assert_params_differ(m0, m1, ("W1", "W2"))

    def test_classifier_only_freezes_features(self, corpus):
        m0 = init_model(DIMS, seed=0)
        tc = TrainConfig(iterations=5, batch_size=4, seed=7, classifier_only=True)
        m1, _ = train_offline(corpus, m0, tc, SamplerConfig(seed=8))
        p0, p1 = params_of(m0), params_of(m1)
        for name in FEATURE_PARAMS:
            assert np.array_equal(p0[name], p1[name]), name
        assert_params_differ(m0, m1, ("W3", "W5"))


class TestTrainableSet:
    """Each phase differentiates and steps only the layers it trains."""

    def run(self, phase, corpus, m0=None, **step):
        m0 = init_model(DIMS, seed=0) if m0 is None else m0
        tc = TrainConfig(iterations=3, batch_size=4, seed=7, **step)
        seq = corpus[0]
        if phase == "offline":
            return train_offline(corpus, m0, tc, SamplerConfig(seed=8))[0]
        t = 0 if phase == "initial" else 4
        tune = finetune_initial if phase == "initial" else finetune_update
        return tune(m0, seq.frames[t], seq.groundtruth[t], tc, SamplerConfig(seed=8))

    @pytest.mark.parametrize(
        "phase, optimizer",
        [("offline", "adam"), ("initial", "adam"), ("update", "sgd"), ("update", "adam")],
    )
    @pytest.mark.parametrize("layer, value", [("b4", np.nan), ("W1", np.inf)])
    def test_non_finite_model_rejected_before_any_draw(
        self, monkeypatch, corpus, phase, optimizer, layer, value
    ):
        draws = []
        real = Sampler.build_triplets  # every phase's draw() pairs its pools here

        def spy(self, *args):
            draws.append(args)
            return real(self, *args)

        monkeypatch.setattr(Sampler, "build_triplets", spy)
        m0 = init_model(DIMS, seed=0)
        m0[layer].flat[3] = value
        with pytest.raises(NumericalError, match=f"^non-finite values in parameter {layer}$"):
            self.run(phase, corpus, m0, optimizer=optimizer)
        assert draws == []
        # the spy sees the draws of a finite model
        self.run(phase, corpus, optimizer=optimizer)
        assert len(draws) == 3

    @pytest.mark.parametrize("phase", ["offline", "initial", "update"])
    def test_feature_backward_once_per_step_unless_frozen(self, monkeypatch, corpus, phase):
        walks = []
        real = net_module._layers_backward

        def spy(model, cache, first, last, du, grads):
            walks.append((first, last))
            return real(model, cache, first, last, du, grads)

        monkeypatch.setattr(net_module, "_layers_backward", spy)
        self.run(phase, corpus)
        assert walks.count((1, 2)) == 3
        walks.clear()
        self.run(phase, corpus, classifier_only=True)
        assert (1, 2) not in walks

    @pytest.mark.parametrize(
        "walk, layer, frozen",
        [
            ((1, 2), "W1", {"classifier_only": True}),
            ((3, 5), "W5", {"variant": "tarspec"}),
        ],
    )
    def test_non_finite_gradient_of_a_frozen_layer_is_not_checked(
        self, monkeypatch, corpus, walk, layer, frozen
    ):
        real = net_module._layers_backward

        def poisoned(model, cache, first, last, du, grads):
            out = real(model, cache, first, last, du, grads)
            # a frozen layer has no slot, and no gradient
            if (first, last) == walk and layer in grads:
                grads[layer][0, 0] = np.nan
            return out

        monkeypatch.setattr(net_module, "_layers_backward", poisoned)
        with pytest.raises(NumericalError, match=f"layer {layer}"):
            self.run("offline", corpus)
        check_finite(self.run("offline", corpus, **frozen))

    @pytest.mark.parametrize(
        "frozen, trained",
        [
            ({}, PARAM_NAMES),
            ({"classifier_only": True}, CLASSIFIER_PARAMS),
            ({"variant": "tarspec"}, FEATURE_PARAMS),
        ],
    )
    def test_adam_moments_only_for_trained_layers(self, monkeypatch, corpus, frozen, trained):
        states = []
        real = train_module.optimizer_step

        def spy(params, grads, state, config):
            states.append(state)
            return real(params, grads, state, config)

        monkeypatch.setattr(train_module, "optimizer_step", spy)
        self.run("offline", corpus, **frozen)
        assert list(states[-1].m) == list(states[-1].v) == list(trained)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize(
        "phase, frozen, trained",
        [
            (phase, {}, PARAM_NAMES) for phase in ("offline", "initial", "update")
        ] + [
            (phase, {"classifier_only": True}, CLASSIFIER_PARAMS)
            for phase in ("offline", "initial", "update")
        ] + [("offline", {"variant": "tarspec"}, FEATURE_PARAMS)],
    )
    def test_only_stepped_layers_are_checked_after_a_step(
        self, monkeypatch, corpus, optimizer, phase, frozen, trained
    ):
        checked = []
        real = train_module.check_finite

        def spy(params):
            checked.append(list(params))
            # the flat vector holds exactly the named arrays
            assert params.vec.size == sum(arr.size for arr in params.values())
            assert all(np.shares_memory(params.vec, arr) for arr in params.values())
            return real(params)

        monkeypatch.setattr(train_module, "check_finite", spy)
        self.run(phase, corpus, optimizer=optimizer, **frozen)
        # the whole copy before the first step; the SGD update also checks
        # the W1 it forms after its last step
        span = phase == "update" and optimizer == "sgd" and "W1" in trained
        extra = [["W1"]] if span else []
        assert checked == [list(PARAM_NAMES)] + [list(trained)] * 3 + extra

    @pytest.mark.parametrize(
        "poisoned, named", [(("W4",), "W4"), (("W5", "b3"), "b3"), (("b5", "W3", "W4"), "W3")]
    )
    def test_first_non_finite_classifier_gradient_is_named(
        self, monkeypatch, corpus, poisoned, named
    ):
        real = net_module._layers_backward

        def poison(model, cache, first, last, du, grads):
            out = real(model, cache, first, last, du, grads)
            if (first, last) == (3, 5):
                for layer in poisoned:
                    grads[layer].flat[-1] = np.nan
            return out

        monkeypatch.setattr(net_module, "_layers_backward", poison)
        with pytest.raises(NumericalError, match=f"^non-finite gradient in layer {named}$"):
            self.run("offline", corpus)

    @pytest.mark.parametrize(
        "phase, poisoned, named",
        [
            ("offline", ("b4",), "b4"),
            ("offline", ("W5", "W2", "b1"), "b1"),
            ("update", ("b2", "W1"), "W1"),  # the pool's fc1 products, in W1's slot
        ],
    )
    def test_first_non_finite_parameter_is_named(
        self, monkeypatch, corpus, phase, poisoned, named
    ):
        real = train_module.optimizer_step

        def step(params, grads, state, config):
            real(params, grads, state, config)
            for layer in poisoned:
                params[layer].flat[0] = np.inf
            return params, state

        monkeypatch.setattr(train_module, "optimizer_step", step)
        with pytest.raises(NumericalError, match=f"^non-finite values in parameter {named}$"):
            self.run(phase, corpus, optimizer="sgd")


def reference_step(params, grads, state, config):
    """The optimizer step as it ran before the flat vector, kept as the
    reference: SGD or Adam on each array in turn, moments per name."""
    lr = config.learning_rate
    if config.optimizer == "sgd":
        for name, p in params.items():
            p -= lr * grads[name]
        return
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += g * (1.0 - b1)
        v *= b2
        v += (g * g) * (1.0 - b2)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)


def reference_fit(model, tc, weights, variant, draw, pool=None):
    """_fit as it ran before the flat vector, kept as the reference: a
    copied model, fresh gradient arrays each step, the per-array step,
    and each stepped array checked on its own. On the span path it steps
    a pool model, built here array by array, whose fc1 weights are the
    pool's fc1 products and whose batches are one-hot rows over the pool."""
    model = model.copy()
    freeze = CLASSIFIER_PARAMS if variant == "tarspec" else ()
    if tc.classifier_only:
        freeze += FEATURE_PARAMS
    span = pool is not None and tc.optimizer == "sgd" and "W1" not in freeze
    stepped, rows = model, pool
    if span:
        stepped, rows = Model((len(pool),) + model.dims[1:]), np.eye(len(pool))
        for name, arr in model.params():
            stepped[name][...] = pool @ arr if name == "W1" else arr
        gram, summed = pool @ pool.T, np.zeros_like(stepped["W1"])
    params = {name: arr for name, arr in stepped.params() if name not in freeze}
    state, trace = SimpleNamespace(t=0, m={}, v={}), []
    for step in range(tc.iterations):
        batch = draw()
        if pool is not None:
            batch = TripletBatch(*(rows[i] for i in batch))
        fresh = flat(**{name: np.zeros_like(arr) for name, arr in params.items()})
        grads, terms = backward(stepped, batch, weights, variant, fresh)
        if span:
            summed += grads["W1"]
            grads["W1"] = gram @ grads["W1"]
        reference_step(params, grads, state, tc)
        for name, arr in params.items():
            check_finite(flat(**{name: arr}))
        trace.append(train_module.TraceRow(step, *terms))
    if span:
        for name, arr in stepped.params():
            if name != "W1":
                model[name][...] = arr
        model["W1"] -= tc.learning_rate * (pool.T @ summed)
    return model, trace


class TestFlatStep:
    """_fit steps the trained arrays as one flat vector, in blocks of
    STEP_BLOCK entries; the model and trace are bit-equal to the loop
    that steps each array alone."""

    @staticmethod
    def draws(dims, seed, pool_rows=0, batch=4):
        """A fresh draw() of random patch triplets, or of row indices into
        a pool of pool_rows patches."""
        rng = np.random.default_rng(seed)

        def draw():
            if pool_rows:
                return tuple(rng.integers(pool_rows, size=batch) for _ in range(3))
            return TripletBatch(*(rng.normal(0.0, 0.3, (batch, dims[0])) for _ in range(3)))

        return draw

    def assert_same_fit(self, dims, tc, variant="full", pool_rows=0):
        model = init_model(dims, seed=3)
        pool = None
        if pool_rows:
            pool = np.random.default_rng(4).normal(0.0, 0.3, (pool_rows, dims[0]))
        want, want_trace = reference_fit(
            model, tc, LossWeights(), variant, self.draws(dims, 5, pool_rows), pool
        )
        got, trace = _fit(
            model, tc, LossWeights(), variant, self.draws(dims, 5, pool_rows),
            None if pool is None else (pool, pool @ model["W1"]),
        )
        assert trace == want_trace
        for name, arr in want.params():
            assert_bit_equal(got[name], arr)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize(
        "variant, changes",
        [("full", {}), ("full", {"classifier_only": True}), ("tarspec", {})],
        ids=["all", "classifier-only", "tarspec"],
    )
    def test_bit_equal_to_per_array_loop(self, optimizer, variant, changes):
        tc = StepConfig(iterations=12, optimizer=optimizer, learning_rate=0.05, **changes)
        self.assert_same_fit(DIMS, tc, variant)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_pool_bit_equal_to_per_array_loop(self, optimizer):
        # under SGD the span path, stepping the pool's fc1 products
        tc = StepConfig(iterations=12, optimizer=optimizer, learning_rate=0.05)
        self.assert_same_fit(DIMS, tc, pool_rows=10)

    def test_adam_over_several_blocks(self):
        # W1 of the 1024-128 model spans several blocks, so block edges
        # fall inside one array.
        dims = (1024, 128, 32, 32, 16, 2)
        assert dims[0] * dims[1] > 2 * STEP_BLOCK
        self.assert_same_fit(dims, StepConfig(iterations=4, learning_rate=0.01))

    @pytest.mark.parametrize(
        "variant, changes, pool_rows",
        [
            ("full", {"classifier_only": True}, 0),
            ("tarspec", {}, 0),
            ("full", {"optimizer": "adam"}, 10),
            ("full", {}, 10),
        ],
        ids=["classifier-only", "tarspec", "gathered", "span"],
    )
    def test_frozen_and_pool_paths_return_one_vector(self, variant, changes, pool_rows):
        model = init_model(DIMS, seed=3)
        pool = None
        if pool_rows:
            patches = np.random.default_rng(4).normal(0.0, 0.3, (pool_rows, DIMS[0]))
            pool = (patches, patches @ model["W1"])
        tc = StepConfig(iterations=2, optimizer="sgd", learning_rate=0.01)
        got, _ = _fit(
            model, replace(tc, **changes), LossWeights(), variant,
            self.draws(DIMS, 5, pool_rows), pool,
        )
        assert_one_vector(got)
        assert got.dims == DIMS and not np.shares_memory(got.vec, model.vec)

    def test_model_arrays_are_views_of_one_vector(self):
        tc = StepConfig(iterations=2, learning_rate=0.01)
        model, _ = _fit(init_model(DIMS, seed=3), tc, LossWeights(), "full", self.draws(DIMS, 5))
        base = model["W1"].base
        assert base is not None and base.size == model.vec.size
        assert all(arr.base is base for _, arr in model.params())
        assert_one_vector(model)


def _probe_scores(model, frame, boxes):
    X = crop_many(frame.pixels, boxes, SIDE).reshape(len(boxes), -1)
    return forward_classifier(model, forward_features(model, X))


def assert_bit_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _reference_draw(sampler, side, count, anchor, pair, paired=True):
    """The draw that _draw_triplets replaced, kept as the reference: crop
    every drawn box of each pool, then index the rows the triplets use."""
    (frame, gt), (pair_frame, pair_gt) = anchor, pair
    a = sampler.sample_positives(gt, frame.width, frame.height)
    b = sampler.sample_positives(pair_gt, frame.width, frame.height)
    n, _ = sampler.sample_negatives(gt)
    js, ks, ls = sampler.build_triplets(len(a), len(b), len(n), count)

    def matrix(f, boxes):
        return crop_many(f.pixels, boxes, side).reshape(len(boxes), -1)

    return (
        matrix(frame, a)[js],
        matrix(pair_frame, b)[ks] if paired else None,
        matrix(frame, n)[ls],
    )


class TestCropPools:
    def setup_method(self):
        seq = generate(SynthSpec(T=2, velocity=(1.0, 0.0), seed=0))
        self.f0, self.f1 = seq.frames
        self.gt0, self.gt1 = seq.groundtruth
        rng = np.random.default_rng(0)
        offsets = rng.integers(-2, 3, size=(16, 2)).astype(float)
        base = np.array(self.gt0.as_tuple())
        # Integer shifts of one box repeat often; the negatives are drawn
        # with repeats too.
        self.a = base + np.hstack([offsets, np.zeros((16, 2))])
        negs = base + rng.normal(0.0, 4.0, size=(8, 4)) * [1, 1, 0.5, 0.5]
        self.n = negs[rng.integers(8, size=16)]

    @staticmethod
    def reference(frame, boxes):
        """Each box cropped alone."""
        return np.stack([crop_many(frame.pixels, box[None], SIDE).ravel() for box in boxes])

    def counted(self, monkeypatch):
        """The box arrays of each crop_many call training makes."""
        import slowtrack.train as train_mod

        calls = []

        def recording(image, boxes, side):
            calls.append(np.array(boxes))
            return crop_many(image, boxes, side)

        monkeypatch.setattr(train_mod, "crop_many", recording)
        return calls

    @staticmethod
    def distinct(*pools):
        return {tuple(row) for row in np.concatenate(pools).tolist()}

    @pytest.mark.parametrize("warm_memo", [False, True])
    def test_rows_bit_equal_to_cropping_each_pool(self, monkeypatch, warm_memo):
        memo = {}
        if warm_memo:
            _patches(memo, SIDE, self.f0, self.a[:6])
        calls = self.counted(monkeypatch)
        boxes = np.concatenate([self.a, self.n])
        assert_bit_equal(_patches(memo, SIDE, self.f0, boxes), self.reference(self.f0, boxes))
        # one call, each distinct box not yet in the memo once
        (call,) = calls
        new = self.distinct(boxes) - (self.distinct(self.a[:6]) if warm_memo else set())
        assert len(call) == len(new) < len(boxes)
        assert self.distinct(call) == new
        assert len(memo) == len(self.distinct(boxes))

    def test_memo_hit_makes_no_crop_call(self, monkeypatch):
        memo = {}
        first = _patches(memo, SIDE, self.f0, self.a)
        calls = self.counted(monkeypatch)
        again = _patches(memo, SIDE, self.f0, self.a[::-1])
        assert calls == []
        assert_bit_equal(again, first[::-1])

    def test_box_with_no_overlap_raises(self):
        memo = {}
        _patches(memo, SIDE, self.f0, self.a)
        before = dict(memo)
        off = np.array([[-100.0, -100.0, 10.0, 10.0]])
        with pytest.raises(OutOfViewError):
            _patches(memo, SIDE, self.f0, np.concatenate([self.n, off]))
        assert memo.keys() == before.keys()
        assert all(memo[k] is v for k, v in before.items())

    def twin_draw(self, seed, anchor, pair, steps=1):
        """The boxes that `steps` draws of one sampler with this seed use,
        as _draw_triplets and the first-frame batches draw them: a list of
        (anchors, paired positives, negatives), one row per triplet."""
        sampler = Sampler(SamplerConfig(seed=seed))
        (frame, gt), (_, pair_gt) = anchor, pair
        draws = []
        for _ in range(steps):
            a = sampler.positive_rows(gt, frame.width, frame.height)
            b = sampler.positive_rows(pair_gt, frame.width, frame.height)
            n = sampler.negative_rows(gt, frame.width, frame.height)
            js, ks, ls = sampler.build_triplets(len(a), len(b), len(n), 16)
            draws.append((a[js], b[ks], n[ls]))
        return draws

    @pytest.mark.parametrize("layout", ["next frame", "no pair", "first frame"])
    def test_draw_crop_calls(self, monkeypatch, layout):
        t0, t1 = (self.f0, self.gt0), (self.f1, self.gt1)
        first = (self.f0, self.gt0)
        anchor, pair, paired = {
            "next frame": (t0, t1, True),
            "no pair": (t0, t1, False),
            "first frame": (first, first, True),
        }[layout]
        calls = self.counted(monkeypatch)
        for seed in range(3):
            calls.clear()
            if layout == "first frame":
                # three steps, in one window: every negative they use, in
                # order, in one call, then each step's positives not cropped
                # by an earlier step
                list(_first_frame_batches(Sampler(SamplerConfig(seed=seed)), SIDE, 16, first, 3))
                draws = self.twin_draw(seed, anchor, pair, steps=3)
                assert_bit_equal(calls.pop(0), np.concatenate([n for _, _, n in draws]))
                want, seen = [], set()
                for a, b, _ in draws:
                    new = self.distinct(a, b) - seen
                    want += [new] if new else []
                    seen |= new
                assert len(seen) <= 24
            else:
                _draw_triplets(Sampler(SamplerConfig(seed=seed)), SIDE, 16, anchor, pair, paired)
                ((a, b, n),) = self.twin_draw(seed, anchor, pair)
                want = [self.distinct(a, n)] + ([self.distinct(b)] if paired else [])
            assert [len(c) for c in calls] == [len(w) for w in want]
            assert [self.distinct(c) for c in calls] == want

    @pytest.mark.parametrize("layout", ["next frame", "same frame", "no pair", "first frame"])
    def test_draw_matches_cropping_every_drawn_box(self, layout):
        t0, t1 = (self.f0, self.gt0), (self.f1, self.gt1)
        first = (self.f0, self.gt0)
        anchor, pair, paired = {
            "next frame": (t0, t1, True),  # train_offline
            "same frame": (t0, t0, True),  # wo-C-learning
            "no pair": (t0, t1, False),  # SlossOnly
            "first frame": (first, first, True),  # finetune_initial
        }[layout]
        for seed in range(5):
            args = (SIDE, 16, anchor, pair, paired)
            got = _draw_triplets(Sampler(SamplerConfig(seed=seed)), *args)
            ref = _reference_draw(Sampler(SamplerConfig(seed=seed)), *args)
            assert_bit_equal(got.a, ref[0])
            assert_bit_equal(got.n, ref[2])
            if paired:
                assert_bit_equal(got.b, ref[1])
            else:
                assert got.b is None

    def test_first_frame_memo_matches_cropping_every_drawn_box(self, monkeypatch):
        import slowtrack.train as train_mod

        cropped = []

        def recording(image, boxes, side):
            cropped.append(np.array(boxes))
            return crop_many(image, boxes, side)

        monkeypatch.setattr(train_mod, "crop_many", recording)
        first = (self.f0, self.gt0)
        # two windows of 16 triplets a step, and three steps of a third
        steps = 2 * (DRAW_AHEAD_ROWS // 16) + 3
        for seed in range(3):
            cropped.clear()
            sampler = Sampler(SamplerConfig(seed=seed))
            got = list(_first_frame_batches(sampler, SIDE, 16, first, steps))
            sampler = Sampler(SamplerConfig(seed=seed))
            assert len(got) == steps
            for batch in got:
                a, b, n = _reference_draw(sampler, SIDE, 16, first, first)
                assert_bit_equal(batch.a, a)
                assert_bit_equal(batch.b, b)
                assert_bit_equal(batch.n, n)
            # Positives keep gt's size, negatives are rescaled: each distinct
            # positive was cropped once, the negatives once per window.
            gt_size = np.array([self.gt0.w, self.gt0.h])
            positive = [(b[:, 2:] == gt_size).all() for b in cropped]
            pos_rows = np.concatenate([b for b, p in zip(cropped, positive) if p])
            assert len(pos_rows) == len(np.unique(pos_rows, axis=0)) <= 24
            assert positive.count(False) == 3
            for boxes, p in zip(cropped, positive):
                assert p or not (boxes[:, 2:] == gt_size).all(axis=1).any()


class TestFinetuneInitial:
    def setup_method(self):
        self.seq = generate(SynthSpec(T=12, velocity=(1.0, 0.0), seed=0))
        self.frame = self.seq.frames[0]
        self.gt = self.seq.groundtruth[0]

    def test_zero_iterations_returns_equal_copy(self):
        m0 = init_model(DIMS, seed=0)
        m1 = finetune_initial(
            m0, self.frame, self.gt, StepConfig(iterations=0), SamplerConfig()
        )
        assert m1 is not m0
        assert_params_equal(m0, m1)

    def test_rejects_invisible_box(self):
        m0 = init_model(DIMS, seed=0)
        with pytest.raises(ConfigError, match="visible"):
            finetune_initial(
                m0, self.frame, BBox(-50.0, -50.0, 10.0, 10.0), StepConfig(), SamplerConfig()
            )

    @pytest.mark.parametrize("box", [
        BBox(float("nan"), 10.0, 10.0, 10.0),
        BBox(10.0, 10.0, float("nan"), 10.0),
        BBox(10.0, 10.0, float("inf"), 10.0),
        BBox(10.0, 10.0, 0.0, 10.0),
    ])
    def test_unusable_box_raises_before_drawing(self, box, monkeypatch):
        # Checked before any draw: no proposal of a NaN box is ever
        # accepted, so drawing would spend all max_rejections first.
        def no_draw(*args, **kwargs):
            raise AssertionError("positive_rows was called")

        monkeypatch.setattr(Sampler, "positive_rows", no_draw)
        with pytest.raises(ConfigError, match="is not a visible box"):
            finetune_initial(
                init_model(DIMS, seed=0), self.frame, box, StepConfig(), SamplerConfig()
            )

    def test_matches_cropping_every_step(self):
        # The step loop fed by the crop-everything draw, kept as the
        # reference: cropping positives once per finetune changes no bit.
        m0 = init_model(DIMS, seed=0)
        tc = StepConfig(iterations=30, optimizer="sgd", learning_rate=0.01, batch_size=8)
        got = finetune_initial(m0, self.frame, self.gt, tc, SamplerConfig(seed=4))
        sampler, view = Sampler(SamplerConfig(seed=4)), (self.frame, self.gt)

        def draw():
            a, b, n = _reference_draw(sampler, SIDE, tc.batch_size, view, view)
            return TripletBatch(a=a, b=b, n=n)

        ref, _ = _fit(m0, tc, LossWeights(), "full", draw)
        for name, arr in ref.params():
            assert_bit_equal(got[name], arr)

    def test_deterministic(self):
        m0 = init_model(DIMS, seed=0)
        tc = StepConfig(iterations=5, optimizer="sgd", learning_rate=0.01, batch_size=4)
        a = finetune_initial(m0, self.frame, self.gt, tc, SamplerConfig(seed=4))
        b = finetune_initial(m0, self.frame, self.gt, tc, SamplerConfig(seed=4))
        assert_params_equal(a, b)

    def test_separates_target_from_background(self):
        # Pilot at these seeds: mean p(pos) 0.94, mean p(neg) 0.0003.
        m0 = init_model(DIMS, seed=0)
        tc = StepConfig(
            iterations=100, optimizer="sgd", learning_rate=0.01, batch_size=8
        )
        m1 = finetune_initial(m0, self.frame, self.gt, tc, SamplerConfig(seed=4))
        probe = Sampler(SamplerConfig(seed=77))
        pos = probe.sample_positives(self.gt, self.frame.width, self.frame.height)
        neg, _ = probe.sample_negatives(self.gt)
        p_pos = _probe_scores(m1, self.frame, pos).mean()
        p_neg = _probe_scores(m1, self.frame, neg).mean()
        assert p_pos - p_neg > 0.5
        assert p_pos > 0.8
        assert p_neg < 0.2

    def test_classifier_only_freezes_features(self):
        m0 = init_model(DIMS, seed=0)
        tc = StepConfig(
            iterations=5, optimizer="sgd", learning_rate=0.01, batch_size=4,
            classifier_only=True,
        )
        m1 = finetune_initial(m0, self.frame, self.gt, tc, SamplerConfig(seed=4))
        p0, p1 = params_of(m0), params_of(m1)
        for name in FEATURE_PARAMS:
            assert np.array_equal(p0[name], p1[name]), name
        assert_params_differ(m0, m1, ("W3", "W5"))

    def test_rejects_non_square_input_size(self):
        m = init_model((65, 8, 4, 4, 3, 2), seed=0)
        with pytest.raises(ConfigError, match="square"):
            finetune_initial(
                m, self.frame, self.gt, StepConfig(iterations=1), SamplerConfig()
            )


class TestDrawAhead:
    """finetune_initial draws a window of steps ahead, in the order and
    with the arguments of one draw per step, and crops the window's
    negatives in one crop_many call."""

    # steps of a window at 16 triplets a step; a finetune of two windows
    # and three steps of a third
    W = DRAW_AHEAD_ROWS // 16
    STEPS = 2 * W + 3

    def setup_method(self):
        seq = generate(SynthSpec(T=2, velocity=(1.0, 0.0), seed=0))
        self.frame, self.gt = seq.frames[0], seq.groundtruth[0]
        self.tc = StepConfig(
            iterations=self.STEPS, optimizer="sgd", learning_rate=0.01, batch_size=16
        )

    def run(self, draw=None):
        """finetune_initial, or with `draw` the step loop on that draw."""
        m0, config = init_model(DIMS, seed=0), SamplerConfig(seed=4)
        if draw is None:
            return finetune_initial(m0, self.frame, self.gt, self.tc, config)
        return _fit(m0, self.tc, LossWeights(), "full", draw(Sampler(config)))[0]

    def reference(self, sampler):
        """The draw of one step at a time, cropping every drawn box."""
        view = (self.frame, self.gt)
        return lambda: TripletBatch(*_reference_draw(sampler, SIDE, 16, view, view))

    @staticmethod
    def steps(monkeypatch):
        """A list that counts optimizer steps."""
        done = []
        real = train_module.optimizer_step

        def step(*args):
            done.append(1)
            return real(*args)

        monkeypatch.setattr(train_module, "optimizer_step", step)
        return done

    def test_one_negative_crop_per_window_and_one_draw_per_step(self, monkeypatch):
        done = self.steps(monkeypatch)
        draws, crops = [], []
        real_triplets = Sampler.build_triplets

        def triplets(sampler, *args):
            draws.append(len(done))
            return real_triplets(sampler, *args)

        def recording(image, boxes, side):
            negative = not (boxes[:, 2:] == [self.gt.w, self.gt.h]).all()
            crops.append((len(done), np.array(boxes) if negative else None))
            return crop_many(image, boxes, side)

        monkeypatch.setattr(Sampler, "build_triplets", triplets)
        monkeypatch.setattr(train_module, "crop_many", recording)
        self.run()
        # each window drawn before its first step, and no step more
        W = self.W
        assert draws == [0] * W + [W] * W + [2 * W] * 3
        # one call per window, with every negative its steps use
        sampler, (w, h) = Sampler(SamplerConfig(seed=4)), (self.frame.width, self.frame.height)
        used = []
        for _ in range(self.STEPS):
            a = sampler.positive_rows(self.gt, w, h)
            b = sampler.positive_rows(self.gt, w, h)
            n = sampler.negative_rows(self.gt, w, h)
            used.append(n[real_triplets(sampler, len(a), len(b), len(n), 16)[2]])
        windows = [used[:W], used[W : 2 * W], used[2 * W :]]
        negative_crops = [(at, boxes) for at, boxes in crops if boxes is not None]
        assert [at for at, _ in negative_crops] == [0, W, 2 * W]
        for (_, boxes), steps in zip(negative_crops, windows):
            assert_bit_equal(boxes, np.concatenate(steps))

    def test_matches_drawing_each_step(self):
        ref = self.run(self.reference)
        got = self.run()
        for name, arr in ref.params():
            assert_bit_equal(got[name], arr)

    @staticmethod
    def exhaust_at(monkeypatch, k):
        """Make the k-th negative draw spend its proposals: no box of the
        IoU window [0.99, 1] turns up, and the sampler raises as it would
        on any exhausted draw."""
        calls = []
        real = Sampler.negative_rows

        def negative_rows(sampler, *args):
            calls.append(1)
            if len(calls) == k:
                sampler.config = replace(sampler.config, lo=0.99, hi=1.0)
            return real(sampler, *args)

        monkeypatch.setattr(Sampler, "negative_rows", negative_rows)

    # the first draw, one inside the first window, the last of a window
    # and the first of the next, and the very last draw
    @pytest.mark.parametrize("k", [1, 3, W, W + 1, STEPS])
    def test_exhaustion_surfaces_at_the_step_whose_draw_failed(self, monkeypatch, k):
        done = self.steps(monkeypatch)
        self.exhaust_at(monkeypatch, k)
        with pytest.raises(SamplerExhausted) as want:
            self.run(self.reference)
        assert len(done) == k - 1
        done.clear()
        self.exhaust_at(monkeypatch, k)
        with pytest.raises(SamplerExhausted) as got:
            self.run()
        assert len(done) == k - 1
        assert str(got.value) == str(want.value)
        assert re.fullmatch(r"negative sampling found \d+/32 in 5000 attempts", str(got.value))

    def test_earlier_numerical_error_wins(self, monkeypatch):
        # the last draw of the window drawn before step 1 fails; the third
        # step's parameters turn non-finite first
        assert self.W > 3
        self.exhaust_at(monkeypatch, self.W)
        done = []
        real = train_module.optimizer_step

        def step(params, grads, state, config):
            done.append(1)
            real(params, grads, state, config)
            if len(done) == 3:
                params["b2"].flat[0] = np.inf
            return params, state

        monkeypatch.setattr(train_module, "optimizer_step", step)
        with pytest.raises(NumericalError, match="^non-finite values in parameter b2$"):
            self.run()
        assert len(done) == 3


class TestFinetuneUpdate:
    def setup_method(self):
        self.seq = generate(SynthSpec(T=12, velocity=(1.0, 0.0), seed=0))
        m0 = init_model(DIMS, seed=0)
        tc = StepConfig(
            iterations=100, optimizer="sgd", learning_rate=0.01, batch_size=8
        )
        self.model = finetune_initial(
            m0, self.seq.frames[0], self.seq.groundtruth[0], tc, SamplerConfig(seed=4)
        )
        self.update_tc = StepConfig(
            iterations=30, optimizer="sgd", learning_rate=0.01, batch_size=8
        )

    def test_zero_iterations_returns_equal_copy(self):
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        out = finetune_update(
            self.model, frame, box, StepConfig(iterations=0), SamplerConfig(seed=6)
        )
        assert out is not self.model
        assert_params_equal(out, self.model)

    def test_exhaustion_raises(self):
        frame = self.seq.frames[4]
        lost = BBox(-100.0, -100.0, 10.0, 10.0)
        before = self.model.copy()
        # The message ends at the sampler's; the tracker adds the frame.
        with pytest.raises(SamplerExhausted, match=r"^update window off-frame for BBox"):
            finetune_update(self.model, frame, lost, self.update_tc, SamplerConfig(seed=6))
        assert_params_equal(self.model, before)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_update_raises(self):
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        before = self.model.copy()
        diverging = replace(self.update_tc, learning_rate=1e8)
        with pytest.raises(NumericalError, match="non-finite"):
            finetune_update(self.model, frame, box, diverging, SamplerConfig(seed=6))
        assert_params_equal(self.model, before)

    def test_wrecked_finite_update_raises(self):
        # Five SGD steps at 1e4 leave weights near 7e107, all finite, and
        # kill the ReLUs: every positive and 31 of 32 negatives score 0.
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        wrecking = replace(self.update_tc, iterations=5, learning_rate=1e4)
        before = self.model.copy()
        with pytest.raises(NumericalError, match=r"score margin from 0\.\d+ to -0\.0312$"):
            finetune_update(self.model, frame, box, wrecking, SamplerConfig(seed=6))
        assert_params_equal(self.model, before)

    def reference_update(self, tc, frame, box, sampler):
        """The update as the generic step loop runs it: the same draws,
        the patches gathered into a TripletBatch every step."""
        pos_boxes, neg_boxes = sampler.sample_update_batch(box, frame.width, frame.height)
        pos, negs = (
            crop_many(frame.pixels, b, SIDE).reshape(len(b), -1) for b in (pos_boxes, neg_boxes)
        )

        def draw():
            js, ks, ls = sampler.build_triplets(len(pos), len(pos), len(negs), tc.batch_size)
            return TripletBatch(a=pos[js], b=pos[ks], n=negs[ls])

        return _fit(self.model, tc, LossWeights(), "full", draw)[0]

    def spy(self, monkeypatch):
        """The sampler finetune_update makes, and the input size of the model
        and the batch type each gradient pass receives."""
        made, batches = [], []
        real_sampler, real_gradients = train_module.Sampler, train_module.gradients

        def sampler(config):
            made.append(real_sampler(config))
            return made[-1]

        def gradients(model, batch, *args):
            batches.append((model.dims[0], type(batch)))
            return real_gradients(model, batch, *args)

        monkeypatch.setattr(train_module, "Sampler", sampler)
        monkeypatch.setattr(train_module, "gradients", gradients)
        return made, batches

    @pytest.mark.parametrize(
        "changes, stepped",
        [
            # the span path steps the model of the 48-patch pool
            ({}, POOL_ROWS),
            ({"optimizer": "adam", "learning_rate": 0.001}, DIMS[0]),
            ({"classifier_only": True}, DIMS[0]),
        ],
        ids=["sgd-span", "adam", "classifier-only"],
    )
    def test_update_matches_the_generic_loop(self, monkeypatch, changes, stepped):
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        tc = replace(self.update_tc, **changes)
        ref_sampler = Sampler(SamplerConfig(seed=6))
        ref = self.reference_update(tc, frame, box, ref_sampler)
        made, batches = self.spy(monkeypatch)
        out = finetune_update(self.model, frame, box, tc, SamplerConfig(seed=6))
        assert batches == [(stepped, TripletBatch)] * tc.iterations
        # the same draws: the sampler stream ends where the reference's does
        assert made[0].rng.bit_generator.state == ref_sampler.rng.bit_generator.state
        for name, want in ref.params():
            got = out[name]
            if stepped == DIMS[0]:
                assert_bit_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        assert_params_differ(self.model, out, ("W3", "W5"))

    @pytest.mark.parametrize(
        "changes", [{}, {"optimizer": "adam", "learning_rate": 0.001}], ids=["sgd", "adam"]
    )
    def test_update_returns_one_vector(self, changes):
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        tc = replace(self.update_tc, **changes)
        out = finetune_update(self.model, frame, box, tc, SamplerConfig(seed=6))
        assert_one_vector(out)
        assert out.dims == self.model.dims

    def test_non_finite_pool_gradient_is_named_w1(self, monkeypatch):
        # Every gradient is poisoned; the error names the first in parameter
        # order, D, which stands in for W1's gradient.
        real = net_module._layers_backward

        def poisoned(model, cache, first, last, du, grads):
            out = real(model, cache, first, last, du, grads)
            if (first, last) == (1, 2):
                for g in grads.values():
                    g[...] = np.nan
            return out

        monkeypatch.setattr(net_module, "_layers_backward", poisoned)
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        _, batches = self.spy(monkeypatch)
        with pytest.raises(NumericalError, match="^non-finite gradient in layer W1$"):
            finetune_update(self.model, frame, box, self.update_tc, SamplerConfig(seed=6))
        assert batches == [(POOL_ROWS, TripletBatch)]

    def test_pool_fc1_products_formed_once(self, monkeypatch):
        # The first margin scores the very products the span path steps
        # from; only the updated model's margin forms them again.
        seen = []
        real_fit, real_features = train_module._fit, train_module.forward_features

        def fit(*args, pool, **kwargs):
            seen.append(pool[1])
            return real_fit(*args, pool=pool, **kwargs)

        def features(model, patch, pre=None):
            seen.append(pre)
            return real_features(model, patch, pre)

        monkeypatch.setattr(train_module, "_fit", fit)
        monkeypatch.setattr(train_module, "forward_features", features)
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        finetune_update(self.model, frame, box, self.update_tc, SamplerConfig(seed=6))
        first, pooled, after = seen
        assert first is pooled and after is None

    def test_update_does_not_degrade_target_score(self):
        # Pilot: mean p over fresh positives 0.938 before, 0.953 after.
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        out = finetune_update(self.model, frame, box, self.update_tc, SamplerConfig(seed=6))
        probe = Sampler(SamplerConfig(seed=77))
        pos = probe.sample_positives(box, frame.width, frame.height)
        before = _probe_scores(self.model, frame, pos).mean()
        after = _probe_scores(out, frame, pos).mean()
        assert after > before - 1e-6
        assert after > 0.9

    def test_classifier_only_freezes_features(self):
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        tc = replace(self.update_tc, classifier_only=True)
        out = finetune_update(self.model, frame, box, tc, SamplerConfig(seed=6))
        p0, p1 = params_of(self.model), params_of(out)
        for name in FEATURE_PARAMS:
            assert np.array_equal(p0[name], p1[name]), name
        assert_params_differ(self.model, out, ("W3", "W5"))

    def test_deterministic(self):
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        a = finetune_update(self.model, frame, box, self.update_tc, SamplerConfig(seed=6))
        b = finetune_update(self.model, frame, box, self.update_tc, SamplerConfig(seed=6))
        assert_params_equal(a, b)

    @pytest.mark.parametrize("name", [f.name for f in fields(StepConfig)])
    def test_every_step_setting_changes_the_model(self, name):
        # A field the step loop ignores would be a setting that changes
        # nothing; a new field without a value here fails with KeyError.
        moved = {
            "iterations": 4, "learning_rate": 0.01, "optimizer": "adam",
            "adam_beta1": 0.5, "adam_beta2": 0.5, "adam_eps": 1e-3,
            "batch_size": 5, "classifier_only": True,
        }[name]
        base = StepConfig(iterations=3, batch_size=4, optimizer="sgd")
        if name.startswith("adam_"):
            base = replace(base, optimizer="adam")
        frame, box = self.seq.frames[4], self.seq.groundtruth[4]
        m0 = init_model(DIMS, seed=0)
        a = finetune_update(m0, frame, box, base, SamplerConfig(seed=6))
        b = finetune_update(m0, frame, box, replace(base, **{name: moved}), SamplerConfig(seed=6))
        assert any(not np.array_equal(x, y) for (_, x), (_, y) in zip(a.params(), b.params()))
