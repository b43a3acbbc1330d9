"""Tests for the evaluation metrics and their file emitters.

Curve values are fractions over frames, so the derived cases check
against brute-force per-frame counting written independently here
(including a from-scratch IoU for the success oracle).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowtrack.evaluate import (
    EVAL_TABLE_HEADER,
    PRECISION_THRESHOLDS,
    SUCCESS_THRESHOLDS,
    Curve,
    auc,
    emit_plots,
    precision_at,
    precision_curve,
    success_curve,
    write_eval_table,
)
from slowtrack.geometry import BBox


def boxes_strategy(count):
    coord = st.floats(-30.0, 130.0, allow_nan=False, allow_infinity=False)
    size = st.floats(1.0, 60.0, allow_nan=False, allow_infinity=False)
    box = st.builds(BBox, coord, coord, size, size)
    return st.lists(box, min_size=count, max_size=count)


def oracle_iou(a: BBox, b: BBox) -> float:
    # Independent re-derivation on purpose: corner overlap from scratch.
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


class TestCurveType:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="thresholds"):
            Curve((0.0, 1.0), (0.5,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Curve((), ())

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            Curve((0.0, 1.0, 1.0), (0.1, 0.2, 0.3))

    def test_at_exact_gridpoint(self):
        c = Curve((0.0, 10.0, 20.0), (1.0, 0.5, 0.25))
        assert c.at(10.0) == 0.5

    def test_at_off_grid_rejected(self):
        c = Curve((0.0, 10.0), (1.0, 0.5))
        with pytest.raises(ValueError, match="grid"):
            c.at(5.0)


class TestPrecisionCurve:
    def test_grids(self):
        assert PRECISION_THRESHOLDS[0] == 0.0
        assert PRECISION_THRESHOLDS[-1] == 50.0
        assert len(PRECISION_THRESHOLDS) == 51
        assert SUCCESS_THRESHOLDS == tuple(i / 20 for i in range(21))

    def test_perfect_predictions_flat_one(self):
        gt = [BBox(10.0 * i, 5.0, 20.0, 20.0) for i in range(8)]
        c = precision_curve(gt, gt)
        assert c.values == (1.0,) * 51

    def test_constant_25px_miss_is_a_step(self):
        gt = [BBox(0.0, 0.0, 10.0, 10.0)] * 5
        preds = [BBox(25.0, 0.0, 10.0, 10.0)] * 5
        c = precision_curve(preds, gt)
        for tau, v in zip(c.thresholds, c.values):
            assert v == (1.0 if tau >= 25.0 else 0.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(12)
        gt = [BBox(*rng.uniform(0, 100, 2), *rng.uniform(5, 30, 2)) for _ in range(40)]
        preds = [
            BBox(b.x + rng.normal(0, 12), b.y + rng.normal(0, 12), b.w, b.h)
            for b in gt
        ]
        c = precision_curve(preds, gt)
        for tau, v in zip(c.thresholds, c.values):
            hits = sum(
                math.hypot(p.cx - g.cx, p.cy - g.cy) <= tau
                for p, g in zip(preds, gt)
            )
            assert v == hits / 40

    def test_length_mismatch_rejected(self):
        boxes = [BBox(0.0, 0.0, 1.0, 1.0)]
        with pytest.raises(ValueError, match="vs"):
            precision_curve(boxes, boxes * 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no frames"):
            precision_curve([], [])

    @settings(max_examples=30, deadline=None)
    @given(boxes_strategy(6))
    def test_non_decreasing_in_threshold(self, gt):
        preds = [b.shifted(3.0, -2.0) for b in gt]
        c = precision_curve(preds, gt)
        assert all(b >= a for a, b in zip(c.values, c.values[1:]))
        assert all(0.0 <= v <= 1.0 for v in c.values)


class TestSuccessCurve:
    def test_perfect_predictions(self):
        gt = [BBox(3.0, 4.0, 12.0, 9.0) for _ in range(5)]
        c = success_curve(gt, gt)
        for tau, v in zip(c.thresholds, c.values):
            # IoU == 1.0 beats every threshold below 1, strictly.
            assert v == (1.0 if tau < 1.0 else 0.0)

    def test_zero_overlap_is_flat_zero(self):
        gt = [BBox(0.0, 0.0, 10.0, 10.0)] * 4
        preds = [BBox(50.0, 50.0, 10.0, 10.0)] * 4
        c = success_curve(preds, gt)
        assert c.values == (0.0,) * 21

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(21)
        gt = [BBox(*rng.uniform(0, 80, 2), *rng.uniform(8, 30, 2)) for _ in range(30)]
        preds = [
            BBox(b.x + rng.normal(0, 5), b.y + rng.normal(0, 5), b.w * 1.1, b.h * 0.9)
            for b in gt
        ]
        c = success_curve(preds, gt)
        for tau, v in zip(c.thresholds, c.values):
            hits = sum(oracle_iou(p, g) > tau for p, g in zip(preds, gt))
            assert v == hits / 30

    def test_length_mismatch_rejected(self):
        boxes = [BBox(0.0, 0.0, 1.0, 1.0)]
        with pytest.raises(ValueError):
            success_curve(boxes * 3, boxes)

    @settings(max_examples=30, deadline=None)
    @given(boxes_strategy(6))
    def test_non_increasing_in_threshold(self, gt):
        preds = [b.shifted(2.0, 2.0) for b in gt]
        c = success_curve(preds, gt)
        assert all(b <= a for a, b in zip(c.values, c.values[1:]))
        assert all(0.0 <= v <= 1.0 for v in c.values)


class TestAuc:
    def test_constant_one(self):
        c = Curve(SUCCESS_THRESHOLDS, (1.0,) * 21)
        assert auc(c) == 1.0

    def test_constant_half(self):
        c = Curve(SUCCESS_THRESHOLDS, (0.5,) * 21)
        assert auc(c) == 0.5

    def test_linear_descent_symmetry(self):
        values = tuple((20 - i) / 20 for i in range(21))
        c = Curve(SUCCESS_THRESHOLDS, values)
        assert auc(c) == pytest.approx(0.5, rel=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            auc(Curve((0.0,), (1.0,)))

    def test_invariant_under_frame_duplication(self):
        rng = np.random.default_rng(5)
        gt = [BBox(*rng.uniform(0, 50, 2), 10.0, 12.0) for _ in range(9)]
        preds = [b.shifted(1.5, -0.5) for b in gt]
        once = auc(success_curve(preds, gt))
        twice = auc(success_curve(preds + preds, gt + gt))
        assert once == twice


class TestPrecisionAt:
    def test_is_the_20px_gridpoint(self):
        gt = [BBox(0.0, 0.0, 10.0, 10.0)] * 4
        preds = [
            BBox(5.0, 0.0, 10.0, 10.0),   # 5 px off
            BBox(19.0, 0.0, 10.0, 10.0),  # 19 px
            BBox(21.0, 0.0, 10.0, 10.0),  # 21 px
            BBox(0.0, 0.0, 10.0, 10.0),   # exact
        ]
        c = precision_curve(preds, gt)
        assert precision_at(c) == c.at(20.0) == 0.75


class TestEmitPlots:
    def _curves(self):
        a = Curve(SUCCESS_THRESHOLDS, tuple((20 - i) / 20 for i in range(21)))
        b = Curve(SUCCESS_THRESHOLDS, (0.5,) * 21)
        return {"full": a, "ablated": b}

    def test_writes_csv_per_curve_and_one_svg(self, tmp_path):
        paths = emit_plots(self._curves(), tmp_path, stem="success")
        names = sorted(p.name for p in paths)
        assert names == ["success-ablated.csv", "success-full.csv", "success.svg"]
        for p in paths:
            assert p.exists()

    def test_csv_round_trip_full_precision(self, tmp_path):
        curves = self._curves()
        emit_plots(curves, tmp_path, stem="s")
        header, *rows = (tmp_path / "s-full.csv").read_text().splitlines()
        assert header == "threshold,value"
        pairs = [tuple(map(float, row.split(","))) for row in rows]
        back = Curve(tuple(t for t, _ in pairs), tuple(v for _, v in pairs))
        assert back == curves["full"]

    def test_identical_inputs_identical_svg_bytes(self, tmp_path):
        emit_plots(self._curves(), tmp_path / "a", stem="s")
        emit_plots(self._curves(), tmp_path / "b", stem="s")
        assert (tmp_path / "a" / "s.svg").read_bytes() == (
            tmp_path / "b" / "s.svg"
        ).read_bytes()

    def test_svg_has_series_and_legend(self, tmp_path):
        emit_plots(self._curves(), tmp_path, stem="s")
        svg = (tmp_path / "s.svg").read_text()
        assert svg.count("<polyline") == 2
        assert ">full<" in svg and ">ablated<" in svg

    def test_empty_curve_set_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no curves"):
            emit_plots({}, tmp_path)


class TestEvalTable:
    def test_layout_and_name_order(self, tmp_path):
        rows = [
            ("full", "seq-b", 1.0, 0.75),
            ("ablated", "seq-a", 0.5, 0.25),
            ("full", "seq-a", 0.9, 0.6),
        ]
        path = tmp_path / "table.csv"
        write_eval_table(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == EVAL_TABLE_HEADER
        assert lines[1].startswith("ablated,seq-a,")
        assert lines[2].startswith("full,seq-a,")
        assert lines[3].startswith("full,seq-b,")
        assert float(lines[3].split(",")[3]) == 0.75

    def test_rewrite_byte_identical(self, tmp_path):
        rows = [("full", "s", 1.0, 2 / 3)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_eval_table(rows, a)
        write_eval_table(rows, b)
        assert a.read_bytes() == b.read_bytes()
        assert float(a.read_text().splitlines()[1].split(",")[3]) == 2 / 3
