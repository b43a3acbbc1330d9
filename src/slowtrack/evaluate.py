"""One-pass tracking evaluation: precision and success curves, their
scalar summaries, and deterministic CSV/SVG emission.

Precision at threshold tau is the fraction of frames whose predicted
center lies within tau pixels of the true center (inclusive). Success
at threshold tau is the fraction of frames whose predicted box overlaps
the true box with IoU strictly greater than tau. The area-under-curve
summary is the plain mean of the curve values over its threshold grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import write_rows
from .geometry import BBox, center_distance, iou

# 0..50 pixels in 1-pixel steps; 0..1 IoU in 0.05 steps. Built by
# integer division so the grid points are the shortest-repr doubles.
PRECISION_THRESHOLDS: tuple[float, ...] = tuple(float(t) for t in range(51))
SUCCESS_THRESHOLDS: tuple[float, ...] = tuple(i / 20 for i in range(21))

PRECISION_RANK_PIXELS = 20.0

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Curve:
    """A metric value per threshold; thresholds are strictly increasing."""

    thresholds: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.thresholds) != len(self.values):
            raise ValueError(
                f"{len(self.thresholds)} thresholds vs {len(self.values)} values"
            )
        if not self.thresholds:
            raise ValueError("curve needs at least one point")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    def at(self, tau: float) -> float:
        """Value at an exact grid point."""
        try:
            return self.values[self.thresholds.index(tau)]
        except ValueError:
            raise ValueError(f"threshold {tau} is not on the curve grid") from None


def _check_pairs(results: Sequence[BBox], groundtruth: Sequence[BBox]) -> None:
    if len(results) != len(groundtruth):
        raise ValueError(
            f"{len(results)} result boxes vs {len(groundtruth)} ground-truth boxes"
        )
    if not results:
        raise ValueError("nothing to evaluate: no frames")


def precision_curve(results: Sequence[BBox], groundtruth: Sequence[BBox]) -> Curve:
    """Fraction of frames with center error <= tau, per tau of
    PRECISION_THRESHOLDS."""
    _check_pairs(results, groundtruth)
    d = np.array([center_distance(r, g) for r, g in zip(results, groundtruth)])
    values = (d[:, None] <= np.array(PRECISION_THRESHOLDS)).mean(axis=0)
    return Curve(PRECISION_THRESHOLDS, tuple(float(v) for v in values))


def success_curve(results: Sequence[BBox], groundtruth: Sequence[BBox]) -> Curve:
    """Fraction of frames with IoU strictly above tau, per tau of
    SUCCESS_THRESHOLDS."""
    _check_pairs(results, groundtruth)
    overlaps = np.array([iou(r, g) for r, g in zip(results, groundtruth)])
    values = (overlaps[:, None] > np.array(SUCCESS_THRESHOLDS)).mean(axis=0)
    return Curve(SUCCESS_THRESHOLDS, tuple(float(v) for v in values))


def auc(curve: Curve) -> float:
    """Mean curve value over the threshold grid."""
    if len(curve.values) < 2:
        raise ValueError("auc needs a curve with at least two points")
    return float(np.mean(curve.values))


def precision_at(curve: Curve) -> float:
    """The ranking scalar of a precision curve: its value at 20 px."""
    return curve.at(PRECISION_RANK_PIXELS)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg_line_plot(
    curves: list[tuple[str, Curve]], x_label: str, y_label: str
) -> str:
    """A small multi-series line plot. Layout constants are fixed so
    identical inputs give identical bytes."""
    width, height = 640, 440
    left, right, top, bottom = 70.0, 620.0, 20.0, 390.0
    xmin = min(c.thresholds[0] for _, c in curves)
    xmax = max(c.thresholds[-1] for _, c in curves)
    span = xmax - xmin or 1.0

    def sx(x: float) -> float:
        return left + (x - xmin) / span * (right - left)

    def sy(y: float) -> float:
        return bottom - y * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{_fmt(left)}" y1="{_fmt(bottom)}" x2="{_fmt(right)}" '
        f'y2="{_fmt(bottom)}" stroke="black"/>',
        f'<line x1="{_fmt(left)}" y1="{_fmt(bottom)}" x2="{_fmt(left)}" '
        f'y2="{_fmt(top)}" stroke="black"/>',
    ]
    for i in range(5):
        frac = i / 4
        y = sy(frac)
        parts.append(
            f'<line x1="{_fmt(left - 4)}" y1="{_fmt(y)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(left - 8)}" y="{_fmt(y + 4)}" font-size="12" '
            f'text-anchor="end">{frac:.2f}</text>'
        )
        x = sx(xmin + frac * span)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(bottom)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(bottom + 4)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(bottom + 18)}" font-size="12" '
            f'text-anchor="middle">{xmin + frac * span:g}</text>'
        )
    parts.append(
        f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(bottom + 36)}" '
        f'font-size="13" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt((top + bottom) / 2)}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{_fmt((top + bottom) / 2)})">{y_label}</text>'
    )
    for i, (name, curve) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(sx(t))},{_fmt(sy(v))}"
            for t, v in zip(curve.thresholds, curve.values)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = top + 16 + 16 * i
        parts.append(
            f'<line x1="{_fmt(right - 150)}" y1="{_fmt(ly)}" '
            f'x2="{_fmt(right - 126)}" y2="{_fmt(ly)}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(right - 120)}" y="{_fmt(ly + 4)}" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(
    curves: dict[str, Curve],
    out_dir: str | Path,
    stem: str = "curves",
    x_label: str = "threshold",
    y_label: str = "fraction",
) -> list[Path]:
    """Write one `threshold,value` CSV per curve plus a combined SVG
    line plot. Series are ordered by name so output bytes depend only
    on the curve contents. Returns the written paths."""
    if not curves:
        raise ValueError("no curves to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(curves.items())
    written = []
    for name, curve in ordered:
        path = out / f"{stem}-{name}.csv"
        write_rows(path, zip(curve.thresholds, curve.values), "threshold,value")
        written.append(path)
    svg_path = out / f"{stem}.svg"
    svg_path.write_text(_svg_line_plot(ordered, x_label, y_label), encoding="utf-8")
    written.append(svg_path)
    return written


EVAL_TABLE_HEADER = "tracker,sequence,prec@20,auc"


def write_eval_table(
    rows: Iterable[tuple[str, str, float, float]], path: str | Path
) -> None:
    """Aggregate table, one row per (tracker, sequence), sorted by name
    so re-runs are byte-identical."""
    write_rows(path, sorted(rows), EVAL_TABLE_HEADER)
