"""Tests for the sample-drawing protocols."""

import numpy as np
import pytest

from slowtrack.errors import ConfigError, SamplerExhausted
from slowtrack.geometry import BBox, clip_boxes, crop_many, iou, iou_many, on_frame
from slowtrack.sampler import (
    Sampler,
    SamplerConfig,
    _positive_offsets,
)

FRAME_W, FRAME_H = 160, 120


def make_sampler(**kw):
    return Sampler(SamplerConfig(**kw))


class TestConfig:
    def test_lo_must_be_positive(self):
        with pytest.raises(ConfigError):
            SamplerConfig(lo=0.0)

    def test_lo_below_hi(self):
        with pytest.raises(ConfigError):
            SamplerConfig(lo=0.7, hi=0.6)

    def test_hi_at_most_one(self):
        with pytest.raises(ConfigError):
            SamplerConfig(hi=1.5)

    def test_shift_max_one_or_two(self):
        with pytest.raises(ConfigError):
            SamplerConfig(shift_max=3)
        SamplerConfig(shift_max=1)
        SamplerConfig(shift_max=2)


class TestPositives:
    def test_offsets_enumeration(self):
        assert len(_positive_offsets(1)) == 8
        assert len(_positive_offsets(2)) == 24
        assert (0, 0) not in _positive_offsets(2)

    def test_pure_translations_within_shift_max(self):
        gt = BBox(50, 40, 20, 20)
        for shift_max in (1, 2):
            smp = make_sampler(shift_max=shift_max, m_p=200, seed=1)
            for box in smp.sample_positives(gt, FRAME_W, FRAME_H):
                dx, dy = box.x - gt.x, box.y - gt.y
                assert dx == int(dx) and dy == int(dy)
                assert 1 <= max(abs(dx), abs(dy)) <= shift_max
                assert (box.w, box.h) == (gt.w, gt.h)

    def test_known_offset_applied(self):
        assert BBox(10, 10, 5, 5).shifted(2, 0) == BBox(12, 10, 5, 5)

    def test_iou_bounded_by_worst_case_shift(self):
        # Enumerate every legal 2px offset for this box size; no sampled
        # positive may fall below the worst of those IoUs.
        gt = BBox(50, 40, 20, 20)
        floor = min(
            iou(gt, gt.shifted(dx, dy)) for dx, dy in _positive_offsets(2)
        )
        smp = make_sampler(shift_max=2, m_p=500, seed=3)
        assert all(
            iou(gt, b) >= floor for b in smp.sample_positives(gt, FRAME_W, FRAME_H)
        )

    def test_deterministic(self):
        gt = BBox(30, 30, 16, 16)
        a = make_sampler(seed=7).sample_positives(gt, FRAME_W, FRAME_H)
        b = make_sampler(seed=7).sample_positives(gt, FRAME_W, FRAME_H)
        assert a == b

    def test_tiny_box_at_corner_exhausts(self):
        # A 1x1 box just off-frame: every shifted copy is fully outside.
        gt = BBox(-3.0, -3.0, 1.0, 1.0)
        smp = make_sampler(max_rejections=100)
        with pytest.raises(SamplerExhausted):
            smp.sample_positives(gt, FRAME_W, FRAME_H)


def reference_positives(smp, gt, frame_w, frame_h):
    """The per-draw loop that sample_positives replaced, kept as the
    reference: one scalar offset draw and one BBox per attempt."""
    cfg = smp.config
    offsets = _positive_offsets(cfg.shift_max)
    out = []
    attempts = 0
    while len(out) < cfg.m_p:
        if attempts >= cfg.max_rejections:
            raise SamplerExhausted(
                f"positive sampling found {len(out)}/{cfg.m_p} in {attempts} attempts"
            )
        attempts += 1
        dx, dy = offsets[int(smp.rng.integers(len(offsets)))]
        box = gt.shifted(float(dx), float(dy))
        clip = box.clipped(frame_w, frame_h)
        if clip.w <= 0 or clip.h <= 0:
            continue
        out.append(box)
    return out


def stream_after(smp):
    return smp.rng.normal(size=3).tolist() + smp.rng.integers(1 << 30, size=3).tolist()


# A box in the middle, and boxes one or two pixels into a corner, where
# shifts away from the frame leave no overlap and are redrawn.
POSITIVE_GTS = [
    BBox(50.0, 40.0, 20.0, 20.0),
    BBox(-23.0, -23.0, 24.0, 24.0),
    BBox(-22.5, -22.0, 24.0, 24.0),
    BBox(FRAME_W - 1.0, FRAME_H - 2.0, 24.0, 24.0),
]


class TestPositivesMatchPerDrawLoop:
    @pytest.mark.parametrize("shift_max", [1, 2])
    @pytest.mark.parametrize("gt", POSITIVE_GTS)
    def test_same_boxes_and_stream(self, shift_max, gt):
        for seed in range(20):
            for m_p in (1, 16, 17):
                cfg = SamplerConfig(shift_max=shift_max, m_p=m_p, seed=seed)
                new, rows_smp, ref = Sampler(cfg), Sampler(cfg), Sampler(cfg)
                got = new.sample_positives(gt, FRAME_W, FRAME_H)
                rows = rows_smp.positive_rows(gt, FRAME_W, FRAME_H)
                want = reference_positives(ref, gt, FRAME_W, FRAME_H)
                assert [b.as_tuple() for b in got] == [b.as_tuple() for b in want]
                assert rows.shape == (m_p, 4)
                assert rows.tolist() == [list(b.as_tuple()) for b in want]
                assert stream_after(new) == stream_after(rows_smp) == stream_after(ref)

    @pytest.mark.parametrize("shift_max", [1, 2])
    @pytest.mark.parametrize("max_rejections", [1, 7, 20, 37])
    def test_exhausts_at_same_attempt(self, shift_max, max_rejections):
        gt = POSITIVE_GTS[1]
        exhausted = 0
        for seed in range(20):
            cfg = SamplerConfig(shift_max=shift_max, max_rejections=max_rejections, seed=seed)
            new, ref = Sampler(cfg), Sampler(cfg)
            try:
                want = [b.as_tuple() for b in reference_positives(ref, gt, FRAME_W, FRAME_H)]
            except SamplerExhausted as exc:
                with pytest.raises(SamplerExhausted) as got:
                    new.sample_positives(gt, FRAME_W, FRAME_H)
                assert str(got.value) == str(exc)
                exhausted += 1
            else:
                got = new.sample_positives(gt, FRAME_W, FRAME_H)
                assert [b.as_tuple() for b in got] == want
            assert stream_after(new) == stream_after(ref)
        assert exhausted > 0

    def test_exhaustion_message(self):
        # The message ends at the attempts; the caller adds the frame.
        smp = make_sampler(max_rejections=5)
        with pytest.raises(SamplerExhausted, match=r"^positive sampling found 0/16 in 5 attempts$"):
            smp.sample_positives(BBox(-3.0, -3.0, 1.0, 1.0), FRAME_W, FRAME_H)


class TestNegatives:
    def test_iou_window_always_respected(self):
        gt = BBox(60, 50, 24, 20)
        smp = make_sampler(m_n=500, max_rejections=50_000, seed=2)
        boxes, ious = smp.sample_negatives(gt)
        assert len(boxes) == 500
        for box, recorded in zip(boxes, ious):
            actual = iou(box, gt)
            assert actual == recorded
            assert 0.2 <= actual <= 0.6

    def test_gt_itself_never_returned(self):
        gt = BBox(60, 50, 24, 20)
        boxes, _ = make_sampler(m_n=200, max_rejections=50_000, seed=4).sample_negatives(gt)
        assert gt not in boxes

    def test_acceptance_rate_matches_pilot(self):
        # Raw accept fraction of the default proposal distribution on a
        # 20x20 box, pinned from a 1e5-proposal pilot at 0.661 (+/-20%).
        gt = BBox(50, 50, 20, 20)
        cfg = SamplerConfig(seed=0)
        rng = np.random.default_rng(99)
        k = 100_000
        step = cfg.sigma_xy * 20.0
        dx = rng.normal(0, step, k)
        dy = rng.normal(0, step, k)
        s = np.exp(rng.normal(0, cfg.sigma_scale, k))
        w, h = 20.0 * s, 20.0 * s
        from slowtrack.geometry import iou_many

        boxes = np.stack([gt.x + dx + (20 - w) / 2, gt.y + dy + (20 - h) / 2, w, h], 1)
        ious = iou_many(boxes, gt)
        rate = float(((ious >= cfg.lo) & (ious <= cfg.hi)).mean())
        assert 0.661 * 0.8 <= rate <= 0.661 * 1.2

    def test_exhaustion_message(self):
        # An impossible window (lo barely below hi, both extreme) cannot
        # be satisfied by the wide default proposals before the cap.
        gt = BBox(60, 50, 24, 20)
        smp = make_sampler(lo=0.9999, hi=1.0, m_n=64, max_rejections=200)
        message = r"^negative sampling found 0/64 in 200 attempts$"
        with pytest.raises(SamplerExhausted, match=message):
            smp.sample_negatives(gt)

    def test_deterministic(self):
        gt = BBox(10, 10, 30, 30)
        a, _ = make_sampler(seed=11).sample_negatives(gt)
        b, _ = make_sampler(seed=11).sample_negatives(gt)
        assert a == b

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_are_the_same_draw(self, seed):
        gt = BBox(10.5, 20.25, 30, 24)
        boxes_smp, rows_smp = make_sampler(seed=seed), make_sampler(seed=seed)
        boxes, ious = boxes_smp.sample_negatives(gt)
        rows = rows_smp.negative_rows(gt, FRAME_W, FRAME_H)
        assert rows.shape == (len(boxes), 4)
        assert [BBox(*r) for r in rows.tolist()] == boxes
        assert np.array_equal(iou_many(rows, gt), ious)
        assert stream_after(boxes_smp) == stream_after(rows_smp)

    def test_fields_are_python_floats_like_positives(self):
        gt = BBox(10.5, 20.25, 30, 24)
        negatives, _ = make_sampler(seed=0).sample_negatives(gt)
        positives = make_sampler(seed=0).sample_positives(gt, FRAME_W, FRAME_H)
        for box in negatives + positives:
            assert [type(v) for v in box.as_tuple()] == [float] * 4, box

    def test_rows_overlap_the_frame(self):
        # 19.5 of the box's 24 columns lie left of the frame; negatives
        # drawn without regard to it included boxes crop_many rejects.
        gt = BBox(-19.47, 48.0, 24.0, 24.0)
        rows = make_sampler(m_n=500, max_rejections=50_000, seed=3).negative_rows(
            gt, FRAME_W, FRAME_H
        )
        assert on_frame(rows, FRAME_W, FRAME_H).all()
        ious = iou_many(rows, gt)
        assert ((ious >= 0.2) & (ious <= 0.6)).all()

    def test_rows_exhaustion_message(self):
        smp = make_sampler(lo=0.9999, hi=1.0, m_n=64, max_rejections=200)
        message = r"^negative sampling found 0/64 in 200 attempts$"
        with pytest.raises(SamplerExhausted, match=message):
            smp.negative_rows(BBox(60, 50, 24, 20), FRAME_W, FRAME_H)


class TestCandidates:
    def test_zero_noise_returns_prev_exactly(self):
        prev = BBox(40.1, 30.7, 20.3, 18.9)
        smp = make_sampler(sigma_xy=0.0, sigma_scale=0.0)
        cands = smp.sample_candidates(prev, 50, FRAME_W, FRAME_H)
        assert cands.shape == (50, 4)
        assert all(BBox(*row) == prev for row in cands)

    def test_zero_noise_partly_off_frame_is_clipped_like_bbox(self):
        prev = BBox(-5.3, 100.2, 20.3, 30.9)
        smp = make_sampler(sigma_xy=0.0, sigma_scale=0.0)
        cands = smp.sample_candidates(prev, 5, FRAME_W, FRAME_H)
        assert all(BBox(*row) == prev.clipped(FRAME_W, FRAME_H) for row in cands)

    def test_requested_count(self):
        cands = make_sampler(seed=1).sample_candidates(
            BBox(50, 50, 20, 20), 800, FRAME_W, FRAME_H
        )
        assert cands.shape == (800, 4)

    def test_all_clipped_inside_frame(self):
        cands = make_sampler(seed=2, sigma_xy=0.5).sample_candidates(
            BBox(2, 2, 30, 30), 500, FRAME_W, FRAME_H
        )
        x, y, w, h = cands.T
        assert (x >= 0).all() and (y >= 0).all()
        assert (x + w <= FRAME_W).all() and (y + h <= FRAME_H).all()
        assert (w > 0).all() and (h > 0).all()

    def test_deterministic(self):
        prev = BBox(50, 50, 20, 20)
        a = make_sampler(seed=3).sample_candidates(prev, 100, FRAME_W, FRAME_H)
        b = make_sampler(seed=3).sample_candidates(prev, 100, FRAME_W, FRAME_H)
        assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    @pytest.mark.parametrize("sigma_scale", [10.0, 50.0, 1000.0])
    def test_every_row_crops(self, sigma_scale):
        # Such scale noise draws widths below one ulp of x, which clip to
        # zero size, and overflows exp into NaN rows; crop_many cannot
        # crop either, so neither may be returned.
        image = np.zeros((FRAME_H, FRAME_W))
        for seed in range(20):
            smp = make_sampler(seed=seed, sigma_scale=sigma_scale)
            cands = smp.sample_candidates(BBox(50, 40, 20, 20), 800, FRAME_W, FRAME_H)
            assert np.isfinite(cands).all()
            assert crop_many(image, cands, 4).shape == (800, 4, 4)

    def test_center_std_tracks_sigma(self):
        # Monte Carlo check: empirical center std within 5% of
        # sigma_xy * max(w, h) over 1e4 draws (big frame, no clipping).
        prev = BBox(300, 300, 20, 30)
        smp = make_sampler(seed=5)
        cands = smp.sample_candidates(prev, 10_000, 1000, 1000)
        target = 0.25 * 30
        for vals in (cands[:, 0] + cands[:, 2] / 2, cands[:, 1] + cands[:, 3] / 2):
            assert abs(np.std(vals) - target) / target < 0.05


def reference_candidates(smp, prev, m, frame_w, frame_h):
    """The per-round loop sample_candidates replaced, kept as the
    reference: a round perturbs the boxes still missing, clips the ones
    outside the frame, and keeps every inside box and every clipped box
    of positive size. It raises rather than start a round that would pass
    1000 * m proposals. Returns the boxes and the proposals spent."""
    cfg = smp.config
    step = cfg.sigma_xy * max(prev.w, prev.h)
    out = [np.zeros((0, 4))]
    n = attempts = 0
    while n < m:
        k = m - n
        if attempts + k > 1000 * max(m, 1):
            raise SamplerExhausted(f"candidate sampling found {n}/{m} in {attempts} attempts")
        attempts += k
        prop = smp._perturb(prev, k, step, cfg.sigma_scale)
        x, y, w, h = prop.T
        inside = (x >= 0) & (y >= 0) & (x + w <= frame_w) & (y + h <= frame_h)
        prop = np.where(inside[:, None], prop, clip_boxes(prop, frame_w, frame_h))
        keep = inside | ~((prop[:, 2] <= 0) | (prop[:, 3] <= 0))
        out.append(prop[keep])
        n += int(keep.sum())
    return np.concatenate(out), attempts


# A centred box, and a box with only a 2x4 px corner on the frame, whose
# kept proposals are all clipped and about two in five are redrawn.
CANDIDATE_PREVS = [BBox(50.0, 40.0, 20.0, 20.0), BBox(-14.0, -12.0, 16.0, 16.0)]


class TestCandidatesMatchPerRoundLoop:
    @pytest.mark.parametrize("m", [1, 5, 17, 800])
    @pytest.mark.parametrize("prev", CANDIDATE_PREVS)
    def test_same_boxes_and_stream(self, prev, m):
        redrawn = 0
        for seed in range(20):
            new, ref = make_sampler(seed=seed), make_sampler(seed=seed)
            got = new.sample_candidates(prev, m, FRAME_W, FRAME_H)
            want, attempts = reference_candidates(ref, prev, m, FRAME_W, FRAME_H)
            assert got.shape == (m, 4)
            assert got.tobytes() == want.tobytes()
            assert stream_after(new) == stream_after(ref)
            redrawn += attempts > m
        assert (redrawn > 0) == (prev is CANDIDATE_PREVS[1])

    @pytest.mark.parametrize("m", [1, 3])
    def test_exhausts_after_the_same_proposals(self, m):
        # A candidate drawn a million box sizes away is never on the frame.
        for seed in range(20):
            new, ref = make_sampler(sigma_xy=1e6, seed=seed), make_sampler(sigma_xy=1e6, seed=seed)
            with pytest.raises(SamplerExhausted) as want:
                reference_candidates(ref, CANDIDATE_PREVS[0], m, FRAME_W, FRAME_H)
            with pytest.raises(SamplerExhausted) as got:
                new.sample_candidates(CANDIDATE_PREVS[0], m, FRAME_W, FRAME_H)
            assert str(got.value) == str(want.value)
            assert str(got.value) == f"candidate sampling found 0/{m} in {1000 * m} attempts"
            assert stream_after(new) == stream_after(ref)


class TestUpdateBatch:
    def test_label_predicates(self):
        pred = BBox(60, 40, 24, 24)
        pos, neg = make_sampler(seed=6).sample_update_batch(pred, FRAME_W, FRAME_H)
        assert (iou_many(pos, pred) >= 0.9).all()
        neg_iou = iou_many(neg, pred)
        assert ((0.2 <= neg_iou) & (neg_iou <= 0.6)).all()

    def test_centers_inside_double_window(self):
        pred = BBox(60, 40, 24, 24)
        pos, neg = make_sampler(seed=8, m_p=100, m_n=100).sample_update_batch(
            pred, FRAME_W, FRAME_H
        )
        rows = np.concatenate([pos, neg])
        cx = rows[:, 0] + rows[:, 2] / 2
        cy = rows[:, 1] + rows[:, 3] / 2
        assert ((pred.x - pred.w / 2 <= cx) & (cx <= pred.x + 1.5 * pred.w)).all()
        assert ((pred.y - pred.h / 2 <= cy) & (cy <= pred.y + 1.5 * pred.h)).all()

    def test_edge_prediction_still_succeeds(self):
        # 100-trial smoke run with the prediction jammed into a corner.
        pred = BBox(0.0, 0.0, 24, 24)
        smp = make_sampler(seed=9, max_rejections=20_000)
        for _ in range(100):
            pos, neg = smp.sample_update_batch(pred, FRAME_W, FRAME_H)
            assert pos.shape == (16, 4) and neg.shape == (32, 4)

    def test_counts_follow_config(self):
        pos, neg = make_sampler(m_p=5, m_n=9, seed=10).sample_update_batch(
            BBox(60, 40, 24, 24), FRAME_W, FRAME_H
        )
        assert (pos.shape, neg.shape) == ((5, 4), (9, 4))

    def test_positive_exhaustion_message(self):
        # A cap of eight proposals cannot yield sixteen positives.
        smp = make_sampler(max_rejections=8)
        with pytest.raises(SamplerExhausted, match=r"^update positives found 5/16 in 8 attempts$"):
            smp.sample_update_batch(BBox(60, 50, 24, 20), FRAME_W, FRAME_H)

    def test_negative_exhaustion_message(self):
        # lo = 0.5999 leaves an IoU band of width 1e-4 for the negatives;
        # the positives still fill within the same budget.
        smp = make_sampler(lo=0.5999, max_rejections=300)
        message = r"^update negatives found 0/32 in 300 attempts$"
        with pytest.raises(SamplerExhausted, match=message):
            smp.sample_update_batch(BBox(60, 50, 24, 20), FRAME_W, FRAME_H)


class TestTriplets:
    def test_single_combination(self):
        js, ks, ls = make_sampler().build_triplets(1, 1, 1, 1)
        assert js.tolist() == ks.tolist() == ls.tolist() == [0]

    def test_count_zero_empty(self):
        idx = make_sampler().build_triplets(1, 1, 1, 0)
        assert [len(i) for i in idx] == [0, 0, 0]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            make_sampler().build_triplets(1, 0, 1, 4)

    def test_deterministic_pairing(self):
        def pairing(seed):
            idx = np.stack(make_sampler(seed=seed).build_triplets(4, 5, 6, 10))
            assert idx.shape == (3, 10)
            assert ((idx >= 0) & (idx < np.array([[4], [5], [6]]))).all()
            return idx.tolist()

        assert pairing(21) == pairing(21)
        assert pairing(21) != pairing(22)


class TestContractSweep:
    """The every-run exhaustive compliance checks, sized for CI speed.

    The acceptance suite re-runs these at the 10^4-sample scale.
    """

    def test_positives_and_negatives_all_compliant(self):
        smp = make_sampler(m_p=64, m_n=64, max_rejections=20_000, seed=31)
        rng = np.random.default_rng(1)
        for _ in range(20):
            gt = BBox(
                rng.uniform(10, 100), rng.uniform(10, 60),
                rng.uniform(8, 40), rng.uniform(8, 40),
            )
            for b in smp.sample_positives(gt, FRAME_W, FRAME_H):
                # Recover the integer offset and demand exact reconstruction
                # (raw coordinate differences carry float rounding noise).
                dx = round(b.x - gt.x)
                dy = round(b.y - gt.y)
                assert b == gt.shifted(dx, dy)
                assert 1 <= max(abs(dx), abs(dy)) <= 2
            boxes, _ = smp.sample_negatives(gt)
            assert all(0.2 <= iou(b, gt) <= 0.6 for b in boxes)
