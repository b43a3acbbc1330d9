import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slowtrack.errors import OutOfViewError
from slowtrack.geometry import (
    CROP_CHUNK,
    BBox,
    average_boxes,
    center_distance,
    clip_boxes,
    clip_outside,
    crop_many,
    iou,
    iou_many,
    on_frame,
    usable,
)


def boxes_strategy():
    coord = st.floats(-50, 150, allow_nan=False, allow_infinity=False)
    size = st.floats(0.5, 80, allow_nan=False, allow_infinity=False)
    return st.builds(BBox, coord, coord, size, size)


class TestIou:
    def test_identical_boxes(self):
        b = BBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 5, 5)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            iou(BBox(0, 0, 0, 10), BBox(0, 0, 10, 10))
        with pytest.raises(ValueError):
            iou(BBox(0, 0, 10, 10), BBox(0, 0, 10, -1))

    @given(boxes_strategy(), boxes_strategy())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes_strategy())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    def test_iou_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        ref = BBox(10, 10, 20, 15)
        rows = rng.uniform([0, 0, 1, 1], [40, 40, 30, 30], size=(50, 4))
        many = iou_many(rows, ref)
        for row, v in zip(rows, many):
            assert v == pytest.approx(iou(BBox(*row), ref), abs=1e-12)

    def test_iou_many_matches_exact_fractions(self):
        # An oracle independent of both functions: the IoU of the boxes'
        # float values in exact rational arithmetic.
        def exact(a, b):
            ax, ay, aw, ah = map(Fraction, a)
            bx, by, bw, bh = map(Fraction, b)
            ix = max(min(ax + aw, bx + bw) - max(ax, bx), 0)
            iy = max(min(ay + ah, by + bh) - max(ay, by), 0)
            inter = ix * iy
            return inter / (aw * ah + bw * bh - inter)

        rng = np.random.default_rng(7)
        ref = BBox(10.3, 9.7, 20.1, 15.9)
        rows = rng.uniform([0, 0, 1, 1], [40, 40, 30, 30], size=(50, 4))
        rows = np.vstack([rows, [ref.as_tuple(), (30.4, 9.7, 5, 5), (50, 50, 3, 3)]])
        for row, v in zip(rows, iou_many(rows, ref)):
            assert abs(v - float(exact(row, ref.as_tuple()))) <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_box_rejected(self, bad):
        good = BBox(0, 0, 10, 10)
        for box in (BBox(bad, 0, 10, 10), BBox(0, 0, 10, bad)):
            with pytest.raises(ValueError, match="not a box with finite values"):
                iou(box, good)
            with pytest.raises(ValueError, match="second box"):
                iou(good, box)
            with pytest.raises(ValueError, match="reference box"):
                iou_many(np.array([good.as_tuple()]), box)
            with pytest.raises(ValueError, match="first box"):
                center_distance(box, good)


class TestCenterDistance:
    def test_coincident_centers(self):
        assert center_distance(BBox(0, 0, 10, 10), BBox(2, 2, 6, 6)) == 0.0

    def test_3_4_5_triangle(self):
        assert center_distance(BBox(0, 0, 2, 2), BBox(3, 4, 2, 2)) == 5.0

    def test_horizontal_offset(self):
        assert center_distance(BBox(0, 0, 2, 2), BBox(10, 0, 2, 2)) == 10.0


# (row, usable, on a 100 x 80 frame)
BOX_RULE_TABLE = [
    ((10.0, 20.0, 30.0, 40.0), True, True),
    ((-5.0, -5.0, 10.0, 10.0), True, True),
    ((95.0, 75.0, 10.0, 10.0), True, True),
    ((100.0, 20.0, 5.0, 5.0), True, False),  # touches the right edge only
    ((-10.0, 20.0, 10.0, 5.0), True, False),  # touches the left edge only
    ((200.0, 20.0, 5.0, 5.0), True, False),
    ((10.0, 20.0, 0.0, 5.0), False, False),
    ((10.0, 20.0, 5.0, 0.0), False, False),
    ((10.0, 20.0, -5.0, 5.0), False, False),
    ((10.0, 20.0, 5.0, -5.0), False, False),
    # finite, but x + w overflows: usable, and its clip is not
    ((1e308, 0.0, 1e308, 1.0), True, False),
    ((-1e308, 0.0, 1e308, 1.0), True, False),
] + [
    (tuple(bad if i == col else v for i, v in enumerate((10.0, 20.0, 30.0, 40.0))), False, on)
    for col in range(4)
    for bad, on in ((math.nan, False), (-math.inf, False), (math.inf, col >= 2))
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestBoxRule:
    """usable, on_frame and clip_outside: the one box rule."""

    @pytest.mark.parametrize("row, want_usable, want_on_frame", BOX_RULE_TABLE)
    def test_table(self, row, want_usable, want_on_frame):
        boxes = np.array([row])
        assert usable(boxes).tolist() == [want_usable]
        assert usable([BBox(*row)]).tolist() == [want_usable]
        # an infinite width or height clips to the frame edge
        assert on_frame(boxes, 100, 80).tolist() == [want_on_frame]

    def test_whole_table_at_once(self):
        rows = np.array([row for row, _, _ in BOX_RULE_TABLE])
        assert usable(rows).tolist() == [u for _, u, _ in BOX_RULE_TABLE]
        assert on_frame(rows, 100, 80).tolist() == [o for _, _, o in BOX_RULE_TABLE]

    def test_empty(self):
        assert usable(np.zeros((0, 4))).shape == (0,)
        assert on_frame([], 100, 80).shape == (0,)

    def test_clip_outside_keeps_inside_rows_bit_for_bit(self):
        # (x + w) - x is not w for this row, so clipping it would move it
        row = (0.1, 0.7, 0.2, 0.3)
        assert (row[0] + row[2]) - row[0] != row[2]
        got = clip_outside(np.array([row]), 100, 80)
        assert got[0].tolist() == list(row)

    @pytest.mark.parametrize("row", [
        (-5.3, 10.1, 20.3, 30.9), (90.7, 70.2, 20.3, 30.9), (-1.0, -1.0, 200.0, 200.0),
        (0.0, 79.9, 0.2, 0.3), (99.9, 0.0, 0.3, 0.2),
    ])
    def test_clip_outside_matches_bbox_clipped(self, row):
        boxes = np.array([row, (10.1, 20.3, 5.7, 4.9)])
        got = clip_outside(boxes, 100, 80)
        assert BBox(*got[0]) == BBox(*row).clipped(100, 80)
        assert got[1].tolist() == boxes[1].tolist()


class TestAverageBoxes:
    def test_singleton(self):
        b = BBox(0, 0, 10, 10)
        assert average_boxes([b]) == b

    def test_midpoint(self):
        got = average_boxes([BBox(0, 0, 10, 10), BBox(2, 2, 12, 12)])
        assert got == BBox(1, 1, 11, 11)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([])

    @given(boxes_strategy(), st.integers(1, 9))
    def test_copies_idempotent_bitexact(self, b, k):
        assert average_boxes([b] * k) == b


class TestCrop:
    def test_uniform_frame_gives_zero_patch(self):
        img = np.full((40, 60), 137, dtype=np.uint8)
        patch = crop_many(img, [BBox(5.3, 7.1, 22.0, 13.5)], side=8)[0]
        assert patch.shape == (8, 8)
        assert np.allclose(patch, 0.0, atol=1e-12)

    def test_patch_mean_is_zero(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(50, 50), dtype=np.uint8)
        patch = crop_many(img, [BBox(3.7, 9.2, 31.0, 18.0)], side=16)[0]
        assert abs(patch.mean()) < 1e-9

    def test_exact_region_no_interpolation(self):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(30, 30), dtype=np.uint8)
        s = 8
        region = img[10 : 10 + s, 5 : 5 + s].astype(np.float64) / 255.0
        patch = crop_many(img, [BBox(5, 10, s, s)], side=s)[0]
        assert np.allclose(patch, region - region.mean(), atol=1e-12)

    def test_upscale_matches_reference_resampler(self):
        # Independent straight-loop bilinear oracle on a 2x2 checkerboard.
        img = np.zeros((10, 10), dtype=np.uint8)
        img[4:6, 4:6] = np.array([[0, 255], [255, 0]])
        box = BBox(4, 4, 2, 2)
        side = 4

        def oracle(image, bx, by, bw, bh, s):
            out = np.empty((s, s))
            for r in range(s):
                for c in range(s):
                    x = min(max(bx + (c + 0.5) * bw / s - 0.5, 0.0), image.shape[1] - 1.0)
                    y = min(max(by + (r + 0.5) * bh / s - 0.5, 0.0), image.shape[0] - 1.0)
                    x0, y0 = int(math.floor(x)), int(math.floor(y))
                    x1 = min(x0 + 1, image.shape[1] - 1)
                    y1 = min(y0 + 1, image.shape[0] - 1)
                    fx, fy = x - x0, y - y0
                    top = image[y0, x0] * (1 - fx) + image[y0, x1] * fx
                    bot = image[y1, x0] * (1 - fx) + image[y1, x1] * fx
                    out[r, c] = top * (1 - fy) + bot * fy
            out /= 255.0
            return out - out.mean()

        expected = oracle(img.astype(np.float64), 4, 4, 2, 2, side)
        patch = crop_many(img, [box], side)[0]
        assert np.allclose(patch, expected, atol=1e-12)

    def test_out_of_view_raises(self):
        img = np.zeros((20, 20), dtype=np.uint8)
        with pytest.raises(OutOfViewError):
            crop_many(img, [BBox(100, 100, 5, 5)], side=4)

    def test_partial_overlap_is_clipped_not_rejected(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
        patch = crop_many(img, [BBox(-3, -3, 10, 10)], side=6)[0]
        assert patch.shape == (6, 6)
        # the crop covers the clipped box (0, 0, 7, 7)
        assert np.array_equal(patch, crop_many(img, [BBox(0, 0, 7, 7)], side=6)[0])

    def test_rgb_frames_supported(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, size=(30, 30, 3), dtype=np.uint8)
        patch = crop_many(img, [BBox(4, 4, 12, 12)], side=8)[0]
        assert patch.shape == (8, 8, 3)
        assert abs(patch.mean()) < 1e-9


def reference_crop(image, box, side):
    """Per-box crop, written as the package did it before crops were
    batched: clip, bilinear sample on a meshgrid, scale, subtract mean."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    clip = box.clipped(w, h)
    steps = np.arange(side, dtype=np.float64) + 0.5
    xs = clip.x + steps * (clip.w / side) - 0.5
    ys = clip.y + steps * (clip.h / side) - 0.5
    xs, ys = np.meshgrid(xs, ys)
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    if img.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
    vals = (top * (1.0 - fy) + bot * fy) / 255.0
    return vals - vals.mean()


@st.composite
def crop_cases(draw):
    """A random frame, patch side and batch of boxes that each overlap
    the frame. Box kinds: full-frame, random (partly off-frame and
    sub-pixel ones included), taller or wider than 2 * side, touching or
    crossing the right or bottom edge (clamped neighbours), and slivers
    clipped to at most 1 px. Batch sizes lie around the chunk size, so
    one chunk holds boxes of different heights."""
    h = draw(st.integers(2, 48))
    w = draw(st.integers(2, 48))
    shape = (h, w, 3) if draw(st.booleans()) else (h, w)
    seed = draw(st.integers(0, 2**32 - 1))
    img = np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)
    side = draw(st.integers(1, 12))
    n = draw(
        st.sampled_from(
            [1, 3, CROP_CHUNK - 1, CROP_CHUNK, CROP_CHUNK + 1, 2 * CROP_CHUNK + 5]
        )
    )

    def span(limit):
        # start anywhere from one frame size before the frame to just
        # inside it; end past the frame's start, possibly past its end
        lo = draw(st.floats(-limit, limit - 0.01))
        hi = draw(st.floats(max(lo, 0.0) + 0.01, 2.0 * limit))
        return lo, hi - lo

    def big(limit):
        # longer than 2 * side, starting inside the frame
        length = draw(st.floats(2.0 * side + 0.01, 2.0 * side + 2.0 * limit))
        return draw(st.floats(0.0, limit - 0.01)), length

    def to_edge(limit):
        # ends exactly at the frame's far edge, or past it
        beyond = draw(st.sampled_from([0.0, 0.0, 0.5, 3.0]))
        length = draw(st.floats(beyond + 0.01, beyond + limit))
        return limit + beyond - length, length

    def sliver(limit):
        # at most 1 px of it inside the frame, at either end
        inside = draw(st.floats(0.01, 1.0))
        length = draw(st.floats(inside, inside + limit))
        return (inside - length, length) if draw(st.booleans()) else (limit - inside, length)

    boxes = []
    for _ in range(n):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            boxes.append(BBox(0.0, 0.0, float(w), float(h)))
            continue
        fx, fy = {1: (big, span), 2: (span, big), 3: (to_edge, span),
                  4: (span, to_edge), 5: (sliver, span), 6: (span, sliver)}.get(
            kind, (span, span))
        (x, bw), (y, bh) = fx(w), fy(h)
        boxes.append(BBox(x, y, bw, bh))
    return img, boxes, side


def mixed_boxes(rng, n, w, h, side):
    """n boxes cycling through the kinds crop_cases draws, so every chunk
    mixes row spans above and below 2 * side."""
    rows = []
    for i in range(n):
        bw, bh = rng.uniform(1.0, 0.5 * w), rng.uniform(1.0, 0.5 * h)
        # at least half of each side inside the frame
        x, y = rng.uniform(-0.5 * bw, w - 0.5 * bw), rng.uniform(-0.5 * bh, h - 0.5 * bh)
        kind = i % 6
        if kind == 1:
            y, bh = rng.uniform(0, h - 2 * side - 2), rng.uniform(2 * side + 1, 3 * side)
        elif kind == 2:
            x, bw = w - bw, bw  # touching the right edge
        elif kind == 3:
            y = h - bh + rng.choice([0.0, 0.5 * bh])  # touching or crossing the bottom
        elif kind == 4:
            x = -bw + rng.uniform(0.05, 1.0)  # a sliver at the left edge
        elif kind == 5:
            y = h - rng.uniform(0.05, 1.0)  # a sliver at the bottom edge
        rows.append((x, y, bw, bh))
    return np.array(rows)


class TestCropMany:
    @settings(max_examples=60, deadline=None)
    @given(crop_cases())
    def test_matches_per_box_reference_bit_for_bit(self, case):
        img, boxes, side = case
        arr = np.array([b.as_tuple() for b in boxes])
        stack = crop_many(img, arr, side)
        assert stack.shape == (len(boxes), side, side) + img.shape[2:]
        for i, box in enumerate(boxes):
            assert np.array_equal(stack[i], reference_crop(img, box, side)), i

    @pytest.mark.parametrize("rgb", [False, True])
    @pytest.mark.parametrize("side", [8, 32])
    @pytest.mark.parametrize("n", [CROP_CHUNK - 1, CROP_CHUNK, CROP_CHUNK + 1, 800])
    def test_mixed_batches_match_reference(self, n, side, rgb):
        rng = np.random.default_rng(n * side + rgb)
        h, w = 100, 120
        shape = (h, w, 3) if rgb else (h, w)
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        boxes = mixed_boxes(rng, n, w, h, side)
        # the first chunk really mixes row spans above and below 2 * side
        heights = clip_boxes(boxes[:CROP_CHUNK], w, h)[:, 3]
        assert (heights > 2 * side + 1).any() and (heights < 2 * side - 1).any()
        stack = crop_many(img, boxes, side)
        assert stack.shape == (n, side, side) + img.shape[2:]
        for i, row in enumerate(boxes):
            assert np.array_equal(stack[i], reference_crop(img, BBox(*row), side)), i

    def test_bbox_list_and_array_agree(self):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, size=(30, 40, 3), dtype=np.uint8)
        boxes = [BBox(2, 3, 10, 8), BBox(-4.5, 20.25, 7.0, 9.0), BBox(0, 0, 40, 30)]
        arr = np.array([b.as_tuple() for b in boxes])
        assert np.array_equal(crop_many(img, boxes, 8), crop_many(img, arr, 8))

    def test_off_frame_box_is_named_by_index(self):
        img = np.zeros((20, 20), dtype=np.uint8)
        boxes = np.tile([2.0, 2.0, 5.0, 5.0], (CROP_CHUNK + 8, 1))
        boxes[CROP_CHUNK + 3] = [100.0, 3.0, 5.0, 5.0]
        with pytest.raises(OutOfViewError, match=f"box {CROP_CHUNK + 3} "):
            crop_many(img, boxes, side=4)

    @pytest.mark.parametrize("box", [[math.nan, 10, 5, 5], [10, 10, math.nan, 5]])
    def test_nan_box_is_out_of_view(self, box):
        img = np.zeros((120, 160), dtype=np.uint8)
        with pytest.raises(OutOfViewError, match="box 0 "):
            crop_many(img, np.array([box]), side=4)

    def test_empty_batch(self):
        img = np.zeros((20, 20), dtype=np.uint8)
        assert crop_many(img, np.zeros((0, 4)), side=4).shape == (0, 4, 4)
