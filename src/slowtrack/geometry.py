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

    def shifted(self, dx: float, dy: float) -> "BBox":
        return BBox(self.x + dx, self.y + dy, self.w, self.h)

    def clipped(self, frame_w: float, frame_h: float) -> "BBox":
        """Intersect with the frame rectangle. May return a degenerate box
        (w or h <= 0) when there is no overlap; callers must check."""
        return BBox(*clip_boxes([self], frame_w, frame_h)[0].tolist())

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


def _require_valid(box: BBox, name: str = "box") -> None:
    if not usable([box])[0]:
        raise ValueError(f"{name} {box} is not a box with finite values and positive size")


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    _require_valid(a, "first box")
    _require_valid(b, "second box")
    return float(iou_many(box_array([a]), b)[0])


def iou_many(boxes: np.ndarray, ref: BBox) -> np.ndarray:
    """IoU of each row of an (N, 4) x/y/w/h array against one reference box."""
    _require_valid(ref, "reference box")
    boxes = np.asarray(boxes, dtype=np.float64)
    # Work entirely in corner coordinates: deriving widths as x2 - x makes
    # the IoU of a box with itself exactly 1.0 and keeps the result <= 1
    # under rounding.
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


def average_boxes(boxes) -> BBox:
    """Column-wise arithmetic mean of a (k, 4) x/y/w/h array or a list
    of BBox.

    Averaging is anchored on the first box so that averaging k copies of
    one box reproduces it bit-exactly (a plain sum/k does not).
    """
    boxes = box_array(boxes)
    if not len(boxes):
        raise ValueError("average_boxes needs at least one box")
    first = boxes[0]
    sums = np.array([math.fsum(c) for c in (boxes - first).T])
    return BBox(*(first + sums / len(boxes)).tolist())


def box_array(boxes) -> np.ndarray:
    """An (N, 4) float64 x/y/w/h array from such an array or a list of BBox."""
    if not isinstance(boxes, np.ndarray):
        boxes = [b.as_tuple() for b in boxes]
    return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)


def clip_boxes(boxes, frame_w: float, frame_h: float) -> np.ndarray:
    """BBox.clipped over an (N, 4) x/y/w/h array or a list of BBox, bit
    for bit: like Python's max/min, a tie keeps the box's own value."""
    x, y, w, h = box_array(boxes).T
    x1, y1 = x + w, y + h
    x0, y0 = np.where(0.0 > x, 0.0, x), np.where(0.0 > y, 0.0, y)
    x1 = np.where(float(frame_w) < x1, float(frame_w), x1)
    y1 = np.where(float(frame_h) < y1, float(frame_h), y1)
    return np.stack([x0, y0, x1 - x0, y1 - y0], axis=1)


def usable(boxes) -> np.ndarray:
    """Rows of an (N, 4) x/y/w/h array or a list of BBox whose four values
    are finite and whose width and height are positive: the one test of
    a box every module asks."""
    if not isinstance(boxes, np.ndarray):
        boxes = box_array(boxes)
    return np.isfinite(boxes).all(axis=1) & (boxes[:, 2] > 0) & (boxes[:, 3] > 0)


def on_frame(boxes, frame_w: float, frame_h: float) -> np.ndarray:
    """Rows whose box, clipped to the frame, is usable: the boxes
    crop_many accepts."""
    return usable(clip_boxes(boxes, frame_w, frame_h))


def inside_frame(boxes: np.ndarray, frame_w: float, frame_h: float) -> np.ndarray:
    """Rows of an (N, 4) x/y/w/h array that lie wholly inside the frame."""
    x, y, w, h = boxes.T
    return (x >= 0) & (y >= 0) & (x + w <= frame_w) & (y + h <= frame_h)


def clip_outside(boxes: np.ndarray, frame_w: float, frame_h: float) -> np.ndarray:
    """clip_boxes applied only to the rows of an (N, 4) array that reach
    outside the frame; a row inside it comes back bit for bit, since
    (x + w) - x need not equal w."""
    inside = inside_frame(boxes, frame_w, frame_h)
    return np.where(inside[:, None], boxes, clip_boxes(boxes, frame_w, frame_h))


# Boxes resampled per pass of crop_many. It bounds the gather, lerped-row
# and weight temporaries to a few (CROP_CHUNK, S, S[, C]) arrays whatever
# the number of boxes; only the (N, S) taps grow with it. Measured when
# the tracker cropped all 800 candidates per box in one float64 call, one
# pass over them raised the tracking benchmark's peak memory from 68 to
# 87 MB, and ran slower. The tracker now crops most candidates as slices
# of a few scale-ladder windows; its per-box call holds the rest, all m
# only when no window pays.
CROP_CHUNK = 32


def crop_many(image: np.ndarray, boxes, side: int, dtype=np.float64) -> np.ndarray:
    """Crop boxes from one frame, resample each to side x side, and
    normalize; returns (N, S, S[, C]) of dtype, float64 by default.

    boxes is an (N, 4) x/y/w/h array or a list of BBox. Each box is
    clipped to the frame first; sampling is bilinear at output-pixel
    centers with edge clamping. Values are scaled to [0, 1] and each
    patch's own mean is subtracted. The tap positions are found in
    float64 whatever dtype is; the pixels, the tap weights and all the
    arithmetic on them use dtype. Raises OutOfViewError naming the
    first box that does not overlap the frame.
    """
    if side <= 0:
        raise ValueError(f"patch side must be positive, got {side}")
    img = np.asarray(image)
    h, w = img.shape[:2]
    clip = clip_boxes(boxes, w, h)
    bad = np.flatnonzero(~usable(clip))
    if bad.size:
        raise OutOfViewError(f"box {bad[0]} has no overlap with the frame")
    out = np.empty((len(clip), side, side) + img.shape[2:], dtype=dtype)
    if not len(clip):
        return out
    steps = np.arange(side, dtype=np.float64) + 0.5
    row0, row1, fy = _taps(clip[:, 1], clip[:, 3], steps, side, h)
    col0, col1, fx = _taps(clip[:, 0], clip[:, 2], steps, side, w)
    # Only the frame window the taps read is converted, once per call. A
    # product of a pixel and a weight of dtype casts the pixel to dtype
    # first, so converting here changes no result.
    r_lo, c_lo = row0[:, 0].min(), col0[:, 0].min()
    window = img[r_lo : row1[:, -1].max() + 1, c_lo : col1[:, -1].max() + 1]
    flat = window.astype(dtype).reshape((-1,) + img.shape[2:])
    for taps, lo in ((row0, r_lo), (row1, r_lo), (col0, c_lo), (col1, c_lo)):
        taps -= lo
    tail = (1,) * (img.ndim - 2)
    fx = fx.astype(dtype, copy=False).reshape(fx.shape + tail)
    fy = fy.astype(dtype, copy=False).reshape(fy.shape + (1,) + tail)
    for start in range(0, len(clip), CROP_CHUNK):
        sl = slice(start, start + CROP_CHUNK)
        top, bot = _lerp_rows(flat, window.shape[1], row0[sl], row1[sl], col0[sl], col1[sl], fx[sl])
        top *= 1.0 - fy[sl]
        bot *= fy[sl]
        top += bot
        top /= 255.0
        n = len(top)
        mean = top.reshape(n, -1).mean(axis=1)
        np.subtract(top, mean.reshape((n, 1, 1) + tail), out=out[sl])
    return out


def _taps(start, length, steps, side, limit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Along one axis, the bilinear taps of each box's sample points
    start + steps * (length / side) - 0.5, clamped to [0, limit - 1]:
    (n, S) arrays of the lower and upper pixel index and the upper one's
    weight. Both indices never decrease along a row."""
    pos = start[:, None] + steps * (length[:, None] / side) - 0.5
    np.clip(pos, 0.0, limit - 1.0, out=pos)
    lower = np.floor(pos).astype(np.intp)
    pos -= lower
    return lower, np.minimum(lower + 1, limit - 1), pos


def _lerp_rows(flat, ww, row0, row1, col0, col1, fx) -> tuple[np.ndarray, np.ndarray]:
    """The horizontal pass: the top and bottom rows, (n, S, S[, C]), of
    each output pixel's bilinear quad, lerped as flat[r * ww + col0] *
    (1 - fx) + flat[r * ww + col1] * fx. Each source row a box reads is
    lerped once: the span from its first top row to its last bottom row,
    or, when that span is longer than 2 * S rows, only the 2 * S rows its
    output rows reference, as many as one lerp per output row costs."""
    n, side = row0.shape
    first = row0[:, 0]
    span = row1[:, -1] - first + 1
    tall = span > 2 * side
    size = np.where(tall, 2 * side, span)
    offset = np.cumsum(size) - size
    # The source row of each lerped row, boxes one after another, and
    # where each output row finds its top and bottom rows among them.
    rows = np.arange(size.sum()) + np.repeat(first - offset, size)
    top = row0 + (offset - first)[:, None]
    bot = row1 + (offset - first)[:, None]
    if tall.any():
        pos = offset[tall, None] + np.arange(2 * side)
        rows[pos] = np.concatenate([row0[tall], row1[tall]], axis=1)
        top[tall] = pos[:, :side]
        bot[tall] = pos[:, side:]
    base = (rows * ww)[:, None]
    wx = np.repeat(fx, size, axis=0)
    lerp = np.multiply(np.take(flat, base + np.repeat(col0, size, axis=0), axis=0), 1.0 - wx)
    lerp += np.multiply(np.take(flat, base + np.repeat(col1, size, axis=0), axis=0), wx)
    return np.take(lerp, top, axis=0), np.take(lerp, bot, axis=0)
