"""Tests for the online tracking loop: single-frame prediction, the
full per-sequence state machine, and the results CSV format.

The accuracy probe uses a model trained offline at small scale (pilot:
0.7 px center error on the probe frame, well under the 5 px gate).
"""

import math
import re
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowtrack.dataset import SynthSpec, generate
from slowtrack.errors import (
    ConfigError,
    FormatError,
    NumericalError,
    SamplerExhausted,
)
from slowtrack.geometry import (
    BBox, average_boxes, box_array, center_distance, crop_many, inside_frame
)
from slowtrack.net import forward_classifier, forward_features, forward_margins, init_model
from slowtrack.sampler import Sampler, SamplerConfig
from slowtrack.tracker import (
    RESULTS_HEADER,
    SCORE_DTYPE,
    TrackerConfig,
    TrackResult,
    crop_candidates,
    read_results,
    select,
    track_frame,
    track_sequence,
    write_results,
)
from slowtrack.train import (
    StepConfig,
    TrainConfig,
    _patch_side,
    finetune_initial,
    train_offline,
)

DIMS = (64, 16, 8, 8, 4, 2)

ZERO_NOISE = SamplerConfig(sigma_xy=0.0, sigma_scale=0.0, seed=1)

FAST_INIT = StepConfig(iterations=60, optimizer="sgd", learning_rate=0.01, batch_size=8)
FAST_UPDATE = StepConfig(iterations=20, optimizer="sgd", learning_rate=0.01, batch_size=8)


def drawn_candidates(model, cfg, frame, prev):
    """The (m, 4) candidates track_frame ranks around prev, and their
    float32 patches: the same draw from a Sampler seeded as the one it
    was given, snapped to the scale ladder by the tracker's own code."""
    drawn = Sampler(cfg.sampler).sample_candidates(prev, cfg.m, frame.width, frame.height)
    return crop_candidates(frame.pixels, drawn, prev, _patch_side(model, frame))


def candidate_margins(model, patches):
    """The margins track_frame ranks the candidates' patches by."""
    return forward_margins(model, patches.reshape(len(patches), -1))


def candidate_scores(model, frame, candidates):
    """The float64 classifier scores of the candidates, as track_frame
    scores its averaged box."""
    side = _patch_side(model, frame)
    patches = crop_many(frame.pixels, candidates, side).reshape(len(candidates), -1)
    return forward_classifier(model, forward_features(model, patches))


@pytest.fixture(scope="module")
def easy_sequence():
    return generate(SynthSpec(T=12, velocity=(1.0, 0.0), seed=0))


@pytest.fixture(scope="module")
def side32_model():
    """A 1024-input model trained as the tracking benchmark trains its
    own, on the same kind of corpus: two 160x120 sequences with a 24 px
    target."""
    corpus = [
        generate(SynthSpec(T=40, frame_w=160, frame_h=120, target_w=24.0, target_h=24.0,
                           velocity=v, seed=s))
        for s, v in ((100, (1.0, 0.5)), (101, (-1.0, 1.0)))
    ]
    model, _ = train_offline(
        corpus, init_model((1024, 128, 32, 32, 16, 2), seed=0),
        TrainConfig(iterations=200, batch_size=16, seed=1), SamplerConfig(seed=2),
    )
    return model


@pytest.fixture(scope="module")
def trained_model():
    corpus = [generate(SynthSpec(T=12, velocity=(1.0, 0.0), seed=s)) for s in range(2)]
    model, _ = train_offline(
        corpus,
        init_model(DIMS, seed=0),
        TrainConfig(iterations=300, seed=1, batch_size=8),
        SamplerConfig(seed=2),
    )
    return model


class TestTrackerConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert cfg.m == 800
        assert cfg.top_k == 5
        assert cfg.update_period == 5
        assert cfg.update_score_threshold == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"top_k": 0},
            {"m": 4, "top_k": 5},
            {"update_period": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrackerConfig(**kwargs)


class TestSelect:
    """The selection rule on plain arrays: no model, no sampler."""

    CANDIDATES = np.array([[10.0 + i, 20.0 - i, 30.0 + 2 * i, 40.0] for i in range(6)])

    def test_exact_ties_come_back_in_index_order(self):
        scores = np.array([0.3, 0.9, 0.9, 0.1, 0.9, 0.3])
        top, box = select(self.CANDIDATES, scores, 4)
        assert top.tolist() == [1, 2, 4, 0]
        assert box == average_boxes(self.CANDIDATES[[1, 2, 4, 0]])
        top, _ = select(self.CANDIDATES, np.full(6, 0.5), 6)
        assert top.tolist() == list(range(6))
        # at tracking size, where an unstable sort would reorder ties
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 4, size=800) / 4.0
        candidates = rng.uniform(1.0, 50.0, size=(800, 4))
        top, box = select(candidates, scores, 300)
        assert top.tolist() == sorted(range(800), key=lambda i: (-scores[i], i))[:300]
        assert box == average_boxes(candidates[top])

    def test_nan_inside_top_k_raises_with_its_count(self):
        scores = np.array([np.nan, 0.2, np.nan, 0.7, np.nan, 0.4])
        with pytest.raises(NumericalError, match="1 of the top 4 candidate scores are NaN"):
            select(self.CANDIDATES, scores, 4)
        with pytest.raises(NumericalError, match="3 of the top 6 candidate scores are NaN"):
            select(self.CANDIDATES, scores, 6)
        # a top_k that stops before the NaNs selects only numbers
        top, box = select(self.CANDIDATES, scores, 3)
        assert top.tolist() == [3, 5, 1]
        assert box == average_boxes(self.CANDIDATES[[3, 5, 1]])

    def test_top_k_equal_m_averages_every_row(self):
        scores = np.array([0.6, 0.1, 0.8, 0.3, 0.5, 0.2])
        top, box = select(self.CANDIDATES, scores, 6)
        assert top.tolist() == [2, 0, 4, 3, 5, 1]
        # every row, in any order, has the same column means
        assert box == BBox(12.5, 17.5, 35.0, 40.0)


class TestTrackFrame:
    def test_zero_noise_prediction_is_previous_box(self, easy_sequence):
        # All candidates coincide with prev, so the anchored average
        # must reproduce it bit for bit.
        model = init_model(DIMS, seed=0)
        cfg = TrackerConfig(m=16, top_k=4, sampler=ZERO_NOISE)
        prev = easy_sequence.groundtruth[3]
        pred, score, top = track_frame(
            model, easy_sequence.frames[4], prev, cfg, Sampler(ZERO_NOISE)
        )
        assert pred == prev
        assert top.shape == (4,)
        assert math.isfinite(score)

    def test_ties_break_by_candidate_index(self, easy_sequence):
        # Identical candidates mean identical scores everywhere: the
        # selection must then be the first top_k indices in order.
        model = init_model(DIMS, seed=0)
        cfg = TrackerConfig(m=16, top_k=5, sampler=ZERO_NOISE)
        frame, prev = easy_sequence.frames[4], easy_sequence.groundtruth[3]
        _, _, top = track_frame(model, frame, prev, cfg, Sampler(ZERO_NOISE))
        assert top.tolist() == [0, 1, 2, 3, 4]
        margins = candidate_margins(model, drawn_candidates(model, cfg, frame, prev)[1])
        assert len(set(margins[top].tolist())) == 1

    def test_top_k_equal_m_averages_everything(self, easy_sequence, trained_model):
        cfg = TrackerConfig(m=6, top_k=6, sampler=SamplerConfig(seed=9))
        frame, prev = easy_sequence.frames[4], easy_sequence.groundtruth[3]
        pred, _, top = track_frame(trained_model, frame, prev, cfg, Sampler(SamplerConfig(seed=9)))
        assert sorted(top.tolist()) == list(range(6))
        candidates, _ = drawn_candidates(trained_model, cfg, frame, prev)
        assert pred == average_boxes(candidates[top])

    def test_model_is_not_mutated(self, easy_sequence, trained_model):
        snapshot = {k: v.copy() for k, v in trained_model.params()}
        cfg = TrackerConfig(m=32, top_k=5, sampler=SamplerConfig(seed=4))
        track_frame(
            trained_model, easy_sequence.frames[2], easy_sequence.groundtruth[1],
            cfg, Sampler(SamplerConfig(seed=4)),
        )
        for name, arr in trained_model.params():
            assert np.array_equal(arr, snapshot[name]), name

    def test_trained_model_localizes_target(self, easy_sequence, trained_model):
        cfg = TrackerConfig(m=200, top_k=5, sampler=SamplerConfig(seed=5))
        pred, _, _ = track_frame(
            trained_model, easy_sequence.frames[5], easy_sequence.groundtruth[4],
            cfg, Sampler(SamplerConfig(seed=5)),
        )
        assert center_distance(pred, easy_sequence.groundtruth[5]) < 5.0

    def test_margin_top_k_is_the_float64_score_top_k(self, side32_model):
        # Wherever the float64 scores of the top k, and of the first
        # candidate past them, are more than 1e-6 apart, the float32
        # margins must pick the same candidates in the same order.
        seq = generate(SynthSpec(T=30, frame_w=360, frame_h=240, target_w=24.0, target_h=24.0,
                                 velocity=(2.0, 0.0), start_x=50.0, start_y=110.0, seed=0))
        cfg = TrackerConfig(sampler=SamplerConfig(seed=3))
        compared = 0
        for t in range(1, seq.T):
            frame, prev = seq.frames[t], seq.groundtruth[t - 1]
            _, _, top = track_frame(side32_model, frame, prev, cfg, Sampler(cfg.sampler))
            candidates, _ = drawn_candidates(side32_model, cfg, frame, prev)
            scores = candidate_scores(side32_model, frame, candidates)
            order = np.argsort(-scores, kind="stable")[: cfg.top_k + 1]
            if np.all(-np.diff(scores[order]) > 1e-6):
                compared += 1
                assert top.tolist() == order[: cfg.top_k].tolist(), t
        assert compared >= (seq.T - 1) * 3 // 4

    def test_degenerate_previous_box_rejected(self, easy_sequence):
        model = init_model(DIMS, seed=0)
        cfg = TrackerConfig(m=8, top_k=2)
        with pytest.raises(ValueError, match="positive size"):
            track_frame(
                model, easy_sequence.frames[1], BBox(10.0, 10.0, 0.0, 5.0),
                cfg, Sampler(SamplerConfig(seed=0)),
            )

    def test_unreachable_previous_box_is_tracking_failure(self, easy_sequence):
        # A box far outside the frame makes every candidate invisible.
        model = init_model(DIMS, seed=0)
        cfg = TrackerConfig(m=8, top_k=2, sampler=SamplerConfig(sigma_xy=0.01, seed=0))
        with pytest.raises(SamplerExhausted, match="candidate sampling found"):
            track_frame(
                model, easy_sequence.frames[1], BBox(-300.0, -300.0, 10.0, 10.0),
                cfg, Sampler(SamplerConfig(sigma_xy=0.01, seed=0)),
            )


class TestScaleLadder:
    """crop_candidates: candidates snapped to the scale ladder are
    slices of one resampled window per level; the rest are cropped per
    box."""

    @staticmethod
    def draw(spec, m=800, sampler=SamplerConfig(seed=3)):
        seq = generate(spec)
        frame, prev = seq.frames[1], seq.groundtruth[0]
        drawn = Sampler(sampler).sample_candidates(prev, m, frame.width, frame.height)
        return frame, prev, drawn

    @pytest.mark.parametrize("rgb", [False, True], ids=["gray", "rgb"])
    @pytest.mark.parametrize("side", [8, 32])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 2e-7), (np.float64, 1e-12)])
    def test_ladder_patches_equal_per_box_crops_of_snapped_boxes(self, rgb, side, dtype, tol):
        frame, prev, drawn = self.draw(
            SynthSpec(T=2, frame_w=360, frame_h=240, target_w=24.0, target_h=24.0,
                      start_x=50.0, start_y=110.0, rgb=rgb, seed=0)
        )
        boxes, patches = crop_candidates(frame.pixels, drawn, prev, side, dtype)
        assert patches.shape == (800, side, side) + frame.pixels.shape[2:]
        assert patches.dtype == dtype
        snapped = (boxes != drawn).any(axis=1)
        assert snapped.sum() >= 750
        reference = crop_many(frame.pixels, boxes, side, dtype)
        assert np.abs(patches - reference).max() <= tol

    def test_edge_candidates_keep_their_drawn_boxes(self):
        # A target in the corner: the sampler clips some candidates at the
        # frame edge, and snapping would move others off the frame.
        frame, prev, drawn = self.draw(
            SynthSpec(T=2, target_w=24.0, target_h=24.0, start_x=3.0, start_y=2.0, seed=4)
        )
        boxes, patches = crop_candidates(frame.pixels, drawn, prev, 8)
        assert inside_frame(boxes, frame.width, frame.height).all()
        kept = (boxes == drawn).all(axis=1)
        assert 0 < kept.sum() < len(drawn)
        # Bit for bit the crop of the drawn box; the snapped ones match
        # their per-box crops as closely as away from the edge.
        assert np.array_equal(patches[kept], crop_many(frame.pixels, drawn[kept], 8, SCORE_DTYPE))
        reference = crop_many(frame.pixels, boxes[~kept], 8, SCORE_DTYPE)
        assert np.abs(patches[~kept] - reference).max() <= 2e-7
        model = init_model(DIMS, seed=0)
        cfg = TrackerConfig(sampler=SamplerConfig(seed=3))
        pred, _, _ = track_frame(model, frame, prev, cfg, Sampler(cfg.sampler))
        assert inside_frame(box_array([pred]), frame.width, frame.height).all()

    @pytest.mark.parametrize("sigma_scale", [0.05, 10.0])
    def test_at_most_two_candidate_crops_and_no_costly_window(
        self, easy_sequence, trained_model, monkeypatch, sigma_scale
    ):
        # Per frame: one crop_many call for the level windows, one for the
        # leftover candidates, and the float64 crop of the chosen box. A
        # window of D x D samples serves more than (D / S)^2 candidates,
        # even under the wide scale noise of test_wide_scale_noise_does_not_abort.
        import slowtrack.tracker as tracker_mod

        calls, frames = [], []

        def spy(image, boxes, side, dtype=np.float64):
            calls.append((box_array(boxes), side, dtype))
            return crop_many(image, boxes, side, dtype)

        def ladder(image, drawn, prev, side, dtype=SCORE_DTYPE):
            calls.clear()
            boxes, patches = crop_candidates(image, drawn, prev, side, dtype)
            frames.append((list(calls), boxes, drawn, side))
            return boxes, patches

        monkeypatch.setattr(tracker_mod, "crop_many", spy)
        monkeypatch.setattr(tracker_mod, "crop_candidates", ladder)
        cfg = TrackerConfig(sampler=SamplerConfig(sigma_scale=sigma_scale), init_train=FAST_INIT)
        _, records = track_sequence(trained_model, easy_sequence, cfg)
        assert len(frames) == len(records) == easy_sequence.T - 1
        windows_seen = 0
        for made, boxes, drawn, side in frames:
            assert all(dtype == SCORE_DTYPE for _, _, dtype in made)
            # With scale noise no two candidates share a cell, so a window
            # is wider than a patch.
            windows = [(b, wide) for b, wide, _ in made if wide != side]
            per_box = [b for b, wide, _ in made if wide == side]
            assert len(windows) <= 1 and len(per_box) <= 1
            kept = (boxes == drawn).all(axis=1)
            assert sum(map(len, per_box)) == kept.sum()
            for w, wide in windows:
                windows_seen += 1
                # a window's candidates are the snapped boxes at its pitch
                level = np.isclose(boxes[:, 2, None] / side, w[:, 2] / wide, rtol=1e-9, atol=0)
                served = (level & ~kept[:, None]).sum(axis=0)
                assert np.all(wide**2 < served * side**2), (wide, served)
                assert served.sum() == (~kept).sum()
        if sigma_scale == 0.05:
            assert windows_seen == len(frames)


class TestTrackSequence:
    def test_two_frame_sequence_one_record_no_update(self, trained_model):
        seq = generate(SynthSpec(T=2, seed=3))
        cfg = TrackerConfig(
            m=16, top_k=4, sampler=SamplerConfig(seed=1), init_train=FAST_INIT
        )
        _, records = track_sequence(trained_model, seq, cfg)
        assert len(records) == 1
        assert records[0].frame == 2
        assert not records[0].updated  # 2 mod 5 != 0

    def test_single_frame_sequence_rejected(self, trained_model):
        seq = generate(SynthSpec(T=2, seed=3))
        from slowtrack.dataset import Sequence

        stub = Sequence("stub", seq.frames[:1], seq.groundtruth[:1])
        with pytest.raises(ConfigError, match=">= 2"):
            track_sequence(trained_model, stub, TrackerConfig())

    def test_unreachable_threshold_never_updates(self, easy_sequence, trained_model):
        cfg = TrackerConfig(
            m=32, top_k=5, update_score_threshold=1.01,
            sampler=SamplerConfig(seed=1), init_train=FAST_INIT,
        )
        _, records = track_sequence(trained_model, easy_sequence, cfg)
        assert len(records) == easy_sequence.T - 1
        assert not any(r.updated for r in records)

    def test_static_target_zero_noise_is_a_fixed_point(self):
        seq = generate(SynthSpec(T=8, velocity=(0.0, 0.0), seed=0))
        cfg = TrackerConfig(
            m=16, top_k=4, update_score_threshold=1.01,
            sampler=ZERO_NOISE, init_train=StepConfig(iterations=0),
        )
        _, records = track_sequence(init_model(DIMS, seed=0), seq, cfg)
        for record, gt in zip(records, seq.groundtruth[1:]):
            assert record.box == gt

    def test_update_fires_exactly_on_schedule(self, easy_sequence, trained_model):
        # Threshold below any real score makes the schedule the only gate.
        cfg = TrackerConfig(
            m=32, top_k=5, update_period=5, update_score_threshold=-1.0,
            sampler=SamplerConfig(seed=1),
            init_train=FAST_INIT, update_train=FAST_UPDATE,
        )
        _, records = track_sequence(trained_model, easy_sequence, cfg)
        fired = [r.frame for r in records if r.updated]
        assert fired == [t for t in range(2, easy_sequence.T + 1) if t % 5 == 0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_update_is_rolled_back(self, easy_sequence, trained_model, caplog):
        def run(update_train):
            cfg = TrackerConfig(
                m=32, top_k=5, update_score_threshold=-1.0,
                sampler=SamplerConfig(seed=1),
                init_train=FAST_INIT, update_train=update_train,
            )
            return track_sequence(trained_model, easy_sequence, cfg)[1]

        with caplog.at_level("WARNING", logger="slowtrack.tracker"):
            records = run(replace(FAST_UPDATE, learning_rate=1e8))
        assert [r.frame for r in records] == list(range(2, easy_sequence.T + 1))
        assert [r.frame for r in records if r.updated] == [5, 10]
        dropped = [r.message for r in caplog.records if "update dropped" in r.message]
        assert [m.split(":")[0] for m in dropped] == ["frame 5", "frame 10"]
        # a dropped update leaves tracking as if it had not run
        key = lambda rs: [(r.frame, r.box, r.score, r.updated) for r in rs]
        assert key(records) == key(run(replace(FAST_UPDATE, iterations=0)))

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "changes, dropped",
        [
            ({}, None),
            (
                # No first-frame step, so only the update needs a negative
                # from the 1e-4-wide IoU band.
                {
                    "sampler": SamplerConfig(lo=0.5999, max_rejections=300, seed=1),
                    "init_train": StepConfig(iterations=0),
                },
                "update negatives found 0/32 in 300 attempts",
            ),
            (
                {"update_train": replace(FAST_UPDATE, learning_rate=1e8)},
                "non-finite gradient in layer W1",
            ),
            # Two SGD steps at 10 leave finite weights that score every
            # update patch alike.
            (
                {"update_train": replace(FAST_UPDATE, iterations=2, learning_rate=10.0)},
                r"update cut the score margin from 0\.\d+ to 0",
            ),
        ],
        ids=["kept", "sampler-exhausted", "overflow", "collapsed-margin"],
    )
    def test_update_outcome(self, easy_sequence, trained_model, caplog, changes, dropped):
        cfg = TrackerConfig(
            m=32, top_k=5, update_score_threshold=-1.0, sampler=SamplerConfig(seed=1),
            init_train=FAST_INIT, update_train=FAST_UPDATE,
        )
        cfg = replace(cfg, **changes)
        first = finetune_initial(
            trained_model, easy_sequence.frames[0], easy_sequence.groundtruth[0],
            cfg.init_train, cfg.sampler,
        )
        with caplog.at_level("WARNING", logger="slowtrack.tracker"):
            model, records = track_sequence(trained_model, easy_sequence, cfg)
        assert [r.frame for r in records if r.updated] == [5, 10]
        warned = [r.message for r in caplog.records if "online update" in r.message]
        unchanged = all(np.array_equal(arr, first[name]) for name, arr in model.params())
        if dropped is None:
            assert warned == []
            assert not unchanged
        else:
            # every update dropped: the first-frame model, bit for bit
            assert unchanged
            assert len(warned) == 2
            for t, message in zip((5, 10), warned):
                assert re.fullmatch(f"frame {t}: online update dropped: {dropped}", message)

    def test_per_frame_failure_carries_previous_box(
        self, easy_sequence, trained_model, monkeypatch, caplog
    ):
        import slowtrack.tracker as tracker_mod

        def explode(model, frame, prev_box, config, sampler):
            raise SamplerExhausted("forced")

        monkeypatch.setattr(tracker_mod, "track_frame", explode)
        cfg = TrackerConfig(m=16, top_k=4, init_train=FAST_INIT)
        with caplog.at_level("WARNING", logger="slowtrack.tracker"):
            _, records = track_sequence(trained_model, easy_sequence, cfg)
        assert len(records) == easy_sequence.T - 1
        first_gt = easy_sequence.groundtruth[0]
        for r in records:
            assert r.box == first_gt
            assert math.isnan(r.score)
            assert not r.updated  # NaN never clears the threshold
        assert any("carrying previous box" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "sampler, init_train, error",
        [
            # One draw cannot yield the 16 first-frame positives.
            (SamplerConfig(max_rejections=1), FAST_INIT, SamplerExhausted),
            (SamplerConfig(), replace(FAST_INIT, learning_rate=1e8), NumericalError),
        ],
        ids=["sampler-exhausted", "diverged"],
    )
    def test_first_frame_failure_propagates(
        self, easy_sequence, trained_model, sampler, init_train, error
    ):
        # The first-frame finetune runs before frame 2, outside the
        # never-abort-mid-sequence contract.
        cfg = TrackerConfig(m=16, top_k=4, sampler=sampler, init_train=init_train)
        with pytest.raises(error):
            track_sequence(trained_model, easy_sequence, cfg)

    def test_wide_scale_noise_does_not_abort(self, easy_sequence, trained_model):
        # At this scale noise some candidate widths fall below one ulp of
        # x and clip to zero size; they must be redrawn, not cropped.
        cfg = TrackerConfig(sampler=SamplerConfig(sigma_scale=10.0), init_train=FAST_INIT)
        _, records = track_sequence(trained_model, easy_sequence, cfg)
        assert [r.frame for r in records] == list(range(2, easy_sequence.T + 1))

    def test_real_sampler_exhaustion_carries_previous_box(
        self, easy_sequence, trained_model, caplog
    ):
        # One candidate drawn a million box sizes away is never on the
        # frame, so every frame's candidate sampling really exhausts.
        cfg = TrackerConfig(
            m=1, top_k=1, update_score_threshold=-1.0,
            sampler=SamplerConfig(sigma_xy=1e6),
            init_train=StepConfig(iterations=0, optimizer="sgd"),
        )
        with caplog.at_level("WARNING", logger="slowtrack.tracker"):
            model, records = track_sequence(trained_model, easy_sequence, cfg)
        assert [r.frame for r in records] == list(range(2, easy_sequence.T + 1))
        first_gt = easy_sequence.groundtruth[0]
        for r in records:
            assert r.box == first_gt
            assert math.isnan(r.score)
            assert not r.updated  # NaN clears no threshold, not even -1
        carried = [r for r in caplog.records if "carrying previous box" in r.message]
        assert len(carried) == easy_sequence.T - 1
        assert all("candidate sampling found 0/1 in 1000 attempts" in r.message for r in carried)
        for name, arr in model.params():
            assert np.array_equal(arr, trained_model[name]), name

    def test_weight_past_float32_range_carries_every_frame(
        self, easy_sequence, trained_model, caplog
    ):
        # 1e300 is a float64 number but no float32 one: the candidates
        # cannot be scored, so every frame carries its box forward.
        model = trained_model.copy()
        model["W1"][0, 0] = 1e300
        cfg = TrackerConfig(
            m=16, top_k=4, update_score_threshold=-1.0, sampler=SamplerConfig(seed=1),
            init_train=StepConfig(iterations=0, optimizer="sgd"),
        )
        with caplog.at_level("WARNING", logger="slowtrack.tracker"):
            final, records = track_sequence(model, easy_sequence, cfg)
        assert [r.frame for r in records] == list(range(2, easy_sequence.T + 1))
        for r in records:
            assert r.box == easy_sequence.groundtruth[0]
            assert math.isnan(r.score)
            assert not r.updated
        carried = [r.message for r in caplog.records if "carrying previous box" in r.message]
        assert len(carried) == easy_sequence.T - 1
        assert all("parameter W1 is not finite in float32" in m for m in carried)
        assert np.array_equal(final.vec, model.vec)

    def test_all_nan_scores_give_nan_records_and_no_update(
        self, easy_sequence, trained_model, monkeypatch, caplog
    ):
        import slowtrack.tracker as tracker_mod

        def nan_margins(model, patches):
            return np.full(len(patches), np.nan)

        monkeypatch.setattr(tracker_mod, "forward_margins", nan_margins)
        cfg = TrackerConfig(
            m=16, top_k=4, update_score_threshold=-1.0,
            sampler=SamplerConfig(seed=1), init_train=FAST_INIT,
        )
        with caplog.at_level("WARNING", logger="slowtrack.tracker"):
            _, records = track_sequence(trained_model, easy_sequence, cfg)
        assert [r.frame for r in records] == list(range(2, easy_sequence.T + 1))
        # the first box as track_sequence starts from it: clipped only
        # when it leaves the frame
        gt = easy_sequence.groundtruth[0]
        fw, fh = easy_sequence.frames[0].width, easy_sequence.frames[0].height
        inside = gt.x >= 0 and gt.y >= 0 and gt.x + gt.w <= fw and gt.y + gt.h <= fh
        start = gt if inside else gt.clipped(fw, fh)
        for r in records:
            assert math.isnan(r.score)
            assert not r.updated
            # unranked candidates are not averaged: the box is carried
            assert r.box == start
        carried = [r for r in caplog.records if "carrying previous box" in r.message]
        assert len(carried) == easy_sequence.T - 1
        assert all("4 of the top 4 candidate scores are NaN" in r.message for r in carried)

    def test_nan_inside_top_k_raises_tracking_failure(
        self, easy_sequence, trained_model, monkeypatch
    ):
        import slowtrack.tracker as tracker_mod

        # Two numeric candidate margins; the averaged patch scores 0.25.
        margins = np.full(16, np.nan)
        margins[[3, 9]] = [0.5, 0.7]
        monkeypatch.setattr(tracker_mod, "forward_margins", lambda model, patches: margins)
        monkeypatch.setattr(tracker_mod, "forward_classifier", lambda model, f: 0.25)
        cfg = TrackerConfig(m=16, top_k=3, sampler=SamplerConfig(seed=1))
        frame, prev = easy_sequence.frames[1], easy_sequence.groundtruth[0]
        with pytest.raises(NumericalError, match="1 of the top 3 candidate scores are NaN"):
            track_frame(trained_model, frame, prev, cfg, Sampler(cfg.sampler))
        # top_k = 2 selects only numbers and tracks as usual
        pred, score, top = track_frame(
            trained_model, frame, prev, replace(cfg, top_k=2), Sampler(cfg.sampler)
        )
        assert top.tolist() == [9, 3]
        assert score == 0.25
        candidates, _ = drawn_candidates(trained_model, cfg, frame, prev)
        assert pred == average_boxes(candidates[top])

    def test_reproducible_and_boxes_stay_in_frame(
        self, easy_sequence, trained_model, tmp_path
    ):
        cfg = TrackerConfig(
            m=32, top_k=5, sampler=SamplerConfig(seed=7),
            init_train=FAST_INIT, update_train=FAST_UPDATE,
        )
        _, ra = track_sequence(trained_model, easy_sequence, cfg)
        _, rb = track_sequence(trained_model, easy_sequence, cfg)
        key = lambda rs: [(r.frame, r.box, r.score, r.updated) for r in rs]
        assert key(ra) == key(rb)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(ra, a)
        write_results(rb, b)
        assert a.read_bytes() == b.read_bytes()
        fw, fh = easy_sequence.frames[0].width, easy_sequence.frames[0].height
        for r in ra:
            assert r.box.x >= 0 and r.box.y >= 0
            assert r.box.x + r.box.w <= fw and r.box.y + r.box.h <= fh


@st.composite
def small_runs(draw):
    """A small synthetic spec and a tracker config that constructs: frame
    and target sizes (targets up to 1.1x the frame), starts partly off the
    frame, motion, distractors, candidate sampling and online learning
    rates up to 1e4, with or without the feature layers frozen online."""
    fw, fh = draw(st.integers(8, 90)), draw(st.integers(8, 90))
    tw = draw(st.floats(2.0, 1.1 * fw))
    th = draw(st.floats(2.0, 1.1 * fh))
    spec = SynthSpec(
        T=draw(st.integers(2, 7)),
        frame_w=fw,
        frame_h=fh,
        target_w=tw,
        target_h=th,
        start_x=draw(st.floats(-tw / 2, fw - tw / 2)),
        start_y=draw(st.floats(-th / 2, fh - th / 2)),
        velocity=(draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))),
        scale_rate=draw(st.floats(0.8, 1.25)),
        distractors=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    m = draw(st.integers(1, 40))

    def phase(iterations):
        return StepConfig(
            iterations=iterations,
            learning_rate=10.0 ** draw(st.floats(-3.0, 4.0)),
            optimizer=draw(st.sampled_from(["sgd", "adam"])),
            batch_size=4,
            classifier_only=draw(st.booleans()),
        )

    config = TrackerConfig(
        m=m,
        top_k=draw(st.integers(1, min(m, 5))),
        update_period=draw(st.integers(1, 3)),
        update_score_threshold=draw(st.sampled_from([-1.0, 0.5])),
        sampler=SamplerConfig(
            sigma_scale=draw(st.floats(0.0, 2.0)),
            max_rejections=draw(st.sampled_from([1, 50, 500, 5000])),
            seed=draw(st.integers(0, 2**16)),
        ),
        init_train=phase(3),
        update_train=phase(2),
    )
    return spec, config


FUZZ_MODEL = init_model(DIMS, seed=0)


class TestNeverAbortsFuzz:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_runs())
    # A distractor drawn wider than its 35 px frame.
    @example(
        (
            SynthSpec(T=3, frame_w=35, target_w=34.0, distractors=5),
            TrackerConfig(m=8, init_train=StepConfig(iterations=3, optimizer="sgd")),
        )
    )
    # Updates at frames 2, 4 and 6 each collapse the score margin and
    # raise NumericalError, which the tracker drops.
    @example(
        (
            SynthSpec(T=7),
            TrackerConfig(
                m=8, top_k=1, update_period=2, update_score_threshold=-1.0,
                init_train=StepConfig(iterations=3, optimizer="sgd", batch_size=4),
                update_train=StepConfig(
                    iterations=2, learning_rate=1e4, optimizer="sgd", batch_size=4
                ),
            ),
        )
    )
    def test_tracking_never_aborts_mid_sequence(self, run):
        # generate returns or rejects the spec; tracking either fails in
        # the first-frame finetune, outside the contract, or returns one
        # finite box for every frame 2..T.
        spec, config = run
        try:
            seq = generate(spec)
        except ConfigError:
            return
        try:
            _, records = track_sequence(FUZZ_MODEL, seq, config)
        except (SamplerExhausted, NumericalError, ConfigError) as exc:
            where = [f.name for f in traceback.extract_tb(exc.__traceback__)]
            assert "finetune_initial" in where, where
            return
        assert [r.frame for r in records] == list(range(2, seq.T + 1))
        for r in records:
            assert all(map(math.isfinite, r.box.as_tuple())), r
            assert r.box.w > 0 and r.box.h > 0, r


class TestResultsCsv:
    def _records(self):
        return [
            TrackResult(2, BBox(1.5, 2.25, 10.0, 12.0), 0.875, False),
            TrackResult(3, BBox(2.5, 3.25, 10.0, 12.0), 1 / 3, True),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(self._records(), path)
        back = read_results(path)
        for orig, rec in zip(self._records(), back):
            assert rec.frame == orig.frame
            assert rec.box == orig.box
            assert rec.score == orig.score
            assert rec.updated == orig.updated

    def test_header_layout(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results(self._records(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == RESULTS_HEADER
        assert lines[1].split(",")[0] == "2"
        assert lines[2].split(",")[6] == "1"

    def test_nan_score_round_trips(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([TrackResult(2, BBox(0.0, 0.0, 1.0, 1.0), math.nan, False)], path)
        assert math.isnan(read_results(path)[0].score)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("frame,x,y\n")
        with pytest.raises(FormatError, match="header"):
            read_results(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(RESULTS_HEADER.encode() + b"\n2,1.0,2.0,3.0,4.0,0.5,0\xff\n")
        with pytest.raises(FormatError, match=f"cannot read {path}: 'utf-8' codec"):
            read_results(path)

    def test_short_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(RESULTS_HEADER + "\n2,1.0,2.0\n")
        with pytest.raises(FormatError, match=":2"):
            read_results(path)

    def test_bad_float_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(RESULTS_HEADER + "\n2,1.0,2.0,three,4.0,0.5,0\n")
        with pytest.raises(FormatError, match=":2"):
            read_results(path)

    def test_bad_update_flag_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(RESULTS_HEADER + "\n2,1.0,2.0,3.0,4.0,0.5,yes\n")
        with pytest.raises(FormatError, match=":2"):
            read_results(path)

    @pytest.mark.parametrize(
        "box", ["1.0,2.0,0.0,4.0", "1.0,2.0,3.0,-4.0", "nan,2.0,3.0,4.0", "1.0,inf,3.0,4.0",
                "1.0,2.0,nan,4.0", "1.0,2.0,3.0,inf"],
    )
    def test_impossible_box_rejected_with_line_number(self, tmp_path, box):
        path = tmp_path / "r.csv"
        path.write_text(RESULTS_HEADER + f"\n2,1.0,2.0,3.0,4.0,0.5,0\n3,{box},nan,0\n")
        with pytest.raises(FormatError, match=f"{path}:3: box"):
            read_results(path)
