"""Bounding-box arithmetic, overlap metrics and patch extraction.

All boxes are axis-aligned (x, y, w, h) in pixel coordinates with the
origin at the top-left corner of the frame. Everything here is a pure
function; nothing holds state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfViewError


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner (x, y) plus width and height."""

    x: float
    y: float
    w: float
    h: float

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def shifted(self, dx: float, dy: float) -> "BBox":
        return BBox(self.x + dx, self.y + dy, self.w, self.h)

    def clipped(self, frame_w: float, frame_h: float) -> "BBox":
        """Intersect with the frame rectangle. May return a degenerate box
        (w or h <= 0) when there is no overlap; callers must check."""
        x0 = max(self.x, 0.0)
        y0 = max(self.y, 0.0)
        x1 = min(self.x + self.w, float(frame_w))
        y1 = min(self.y + self.h, float(frame_h))
        return BBox(x0, y0, x1 - x0, y1 - y0)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


def _require_valid(box: BBox, name: str = "box") -> None:
    if box.w <= 0 or box.h <= 0:
        raise ValueError(f"degenerate {name}: w={box.w}, h={box.h}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    _require_valid(a, "first box")
    _require_valid(b, "second box")
    # Work entirely in corner coordinates: deriving widths as x2 - x makes
    # iou(a, a) == 1.0 exact and keeps the result <= 1 under rounding.
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    area_a = (ax2 - a.x) * (ay2 - a.y)
    area_b = (bx2 - b.x) * (by2 - b.y)
    ix = max(min(ax2, bx2) - max(a.x, b.x), 0.0)
    iy = max(min(ay2, by2) - max(a.y, b.y), 0.0)
    inter = ix * iy
    union = area_a + area_b - inter
    return inter / union


def iou_many(boxes: np.ndarray, ref: BBox) -> np.ndarray:
    """IoU of each row of an (N, 4) x/y/w/h array against one reference box."""
    _require_valid(ref, "reference box")
    boxes = np.asarray(boxes, dtype=np.float64)
    x2 = boxes[:, 0] + boxes[:, 2]
    y2 = boxes[:, 1] + boxes[:, 3]
    rx2, ry2 = ref.x + ref.w, ref.y + ref.h
    areas = (x2 - boxes[:, 0]) * (y2 - boxes[:, 1])
    area_ref = (rx2 - ref.x) * (ry2 - ref.y)
    ix = np.maximum(np.minimum(x2, rx2) - np.maximum(boxes[:, 0], ref.x), 0.0)
    iy = np.maximum(np.minimum(y2, ry2) - np.maximum(boxes[:, 1], ref.y), 0.0)
    inter = ix * iy
    union = areas + area_ref - inter
    return inter / union


def center_distance(a: BBox, b: BBox) -> float:
    """Euclidean distance between box centers, in pixels."""
    _require_valid(a, "first box")
    _require_valid(b, "second box")
    return math.hypot(a.cx - b.cx, a.cy - b.cy)


def average_boxes(boxes: list[BBox]) -> BBox:
    """Component-wise arithmetic mean of boxes.

    Averaging is anchored on the first box so that averaging k copies of
    one box reproduces it bit-exactly (a plain sum/k does not).
    """
    if not boxes:
        raise ValueError("average_boxes needs a non-empty list")
    first = boxes[0]
    k = len(boxes)

    def mean(attr: str) -> float:
        base = getattr(first, attr)
        return base + math.fsum(getattr(b, attr) - base for b in boxes) / k

    return BBox(mean("x"), mean("y"), mean("w"), mean("h"))


def clip_boxes(boxes, frame_w: float, frame_h: float) -> np.ndarray:
    """BBox.clipped over an (N, 4) x/y/w/h array or a list of BBox, bit
    for bit: like Python's max/min, a tie keeps the box's own value."""
    if not isinstance(boxes, np.ndarray):
        boxes = [b.as_tuple() for b in boxes]
    x, y, w, h = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    x1, y1 = x + w, y + h
    x0, y0 = np.where(0.0 > x, 0.0, x), np.where(0.0 > y, 0.0, y)
    x1 = np.where(float(frame_w) < x1, float(frame_w), x1)
    y1 = np.where(float(frame_h) < y1, float(frame_h), y1)
    return np.stack([x0, y0, x1 - x0, y1 - y0], axis=1)


# Boxes resampled per pass of crop_many. It bounds the index, weight and
# gather temporaries to a few (CROP_CHUNK, S, S[, C]) arrays whatever the
# number of boxes. One pass over all 800 tracking candidates raised the
# tracking benchmark's peak memory from 68 to 87 MB, and ran slower.
CROP_CHUNK = 32


def crop_many(image: np.ndarray, boxes, side: int) -> np.ndarray:
    """Crop boxes from one frame, resample each to side x side, and
    normalize; returns (N, S, S[, C]) float64.

    boxes is an (N, 4) x/y/w/h array or a list of BBox. Each box is
    clipped to the frame first; sampling is bilinear at output-pixel
    centers with edge clamping. Values are scaled to [0, 1] and each
    patch's own mean is subtracted. Raises OutOfViewError naming the
    first box that does not overlap the frame.
    """
    if side <= 0:
        raise ValueError(f"patch side must be positive, got {side}")
    img = np.asarray(image)
    h, w = img.shape[:2]
    clip = clip_boxes(boxes, w, h)
    bad = np.flatnonzero((clip[:, 2] <= 0) | (clip[:, 3] <= 0))
    if bad.size:
        raise OutOfViewError(f"box {bad[0]} has no overlap with the frame")
    # Pixels are gathered in the frame's own dtype; the weight products
    # convert them to float64 exactly.
    flat = img.reshape((h * w,) + img.shape[2:])
    tail = (1,) * (img.ndim - 2)
    out = np.empty((len(clip), side, side) + img.shape[2:], dtype=np.float64)
    steps = np.arange(side, dtype=np.float64) + 0.5
    for start in range(0, len(clip), CROP_CHUNK):
        c = clip[start : start + CROP_CHUNK]
        n = len(c)
        xs = c[:, 0:1] + steps * (c[:, 2:3] / side) - 0.5
        ys = c[:, 1:2] + steps * (c[:, 3:4] / side) - 0.5
        np.clip(xs, 0.0, w - 1.0, out=xs)
        np.clip(ys, 0.0, h - 1.0, out=ys)
        col0 = np.floor(xs).astype(np.intp)
        row0 = np.floor(ys).astype(np.intp)
        fx = (xs - col0).reshape((n, 1, side) + tail)
        fy = (ys - row0).reshape((n, side, 1) + tail)
        col1 = np.minimum(col0 + 1, w - 1)[:, None, :]
        row1 = (np.minimum(row0 + 1, h - 1) * w)[:, :, None]
        col0 = col0[:, None, :]
        row0 = (row0 * w)[:, :, None]
        top = _lerp(flat, row0, col0, col1, fx)
        bot = _lerp(flat, row1, col0, col1, fx)
        top *= 1.0 - fy
        bot *= fy
        top += bot
        top /= 255.0
        mean = top.reshape(n, -1).mean(axis=1)
        np.subtract(top, mean.reshape((n, 1, 1) + tail), out=out[start : start + n])
    return out


def _lerp(flat, row, col0, col1, fx) -> np.ndarray:
    """flat[row + col0] * (1 - fx) + flat[row + col1] * fx, in float64."""
    acc = np.multiply(np.take(flat, row + col0, axis=0), 1.0 - fx)
    acc += np.multiply(np.take(flat, row + col1, axis=0), fx)
    return acc
