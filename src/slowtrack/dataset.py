"""Sequence storage, benchmark-directory ingestion, and the synthetic generator.

A sequence on disk is `img/%06d.pgm` (grayscale) or `img/%06d.ppm` (RGB)
plus `groundtruth_rect.txt` with one comma-separated "x,y,w,h" line per
frame, so real benchmark directories ingest unchanged. Synthetic
sequences additionally carry per-frame occlusion flags (written to an
`occlusion.txt` sidecar only when something is actually occluded).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, read_text, write_rows
from .geometry import BBox, box_array, on_frame, usable


@dataclass
class Frame:
    """One video frame: a uint8 pixel array."""

    pixels: np.ndarray

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class Sequence:
    """An ordered list of frames of one shape, with one ground-truth box
    and one occlusion flag per frame (all False when none are given)."""

    name: str
    frames: list[Frame]
    groundtruth: list[BBox]
    occluded: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.occluded:
            self.occluded = [False] * len(self.frames)
        counts = {"ground-truth boxes": len(self.groundtruth), "occlusion flags": len(self.occluded)}
        for what, n in counts.items():
            if n != len(self.frames):
                raise ValueError(f"{self.name}: {len(self.frames)} frames but {n} {what}")
        shapes = [frame.pixels.shape for frame in self.frames]
        for t, shape in enumerate(shapes[1:], start=2):
            if shape != shapes[0]:
                raise ValueError(f"{self.name}: frame {t} has shape {shape}, frame 1 {shapes[0]}")

    @property
    def T(self) -> int:
        return len(self.frames)


@dataclass
class SynthSpec:
    """Parameters of a synthetic sequence.

    Position follows x(t) = start_x + vx * t and size follows
    w(t) = target_w * scale_rate ** t for 0-based frame index t.
    Occlusion windows are inclusive (start, end) pairs of 0-based
    frame indices during which the target is overdrawn.
    """

    T: int = 100
    frame_w: int = 160
    frame_h: int = 120
    target_w: float = 24.0
    target_h: float = 24.0
    start_x: float | None = None
    start_y: float | None = None
    velocity: tuple[float, float] = (0.0, 0.0)
    scale_rate: float = 1.0
    occlusions: tuple[tuple[int, int], ...] = ()
    distractors: int = 0
    appearance_drift: float = 0.0
    noise_level: float = 20.0
    rgb: bool = False
    seed: int = 0

    def origin(self) -> tuple[float, float]:
        x = self.start_x if self.start_x is not None else (self.frame_w - self.target_w) / 2.0
        y = self.start_y if self.start_y is not None else (self.frame_h - self.target_h) / 2.0
        return x, y

    def box_at(self, t: int) -> BBox:
        x0, y0 = self.origin()
        try:
            scale = self.scale_rate**t
        except OverflowError:
            scale = math.inf
        w, h = self.target_w * scale, self.target_h * scale
        if not (math.isfinite(w) and math.isfinite(h)):
            raise ConfigError(f"target size overflows at frame {t}; reduce scale_rate or T")
        return BBox(x0 + self.velocity[0] * t, y0 + self.velocity[1] * t, w, h)

    def occluded_at(self, t: int) -> bool:
        return any(a <= t <= b for a, b in self.occlusions)


# Texture tile resolution for targets and distractors. Small enough to
# stay stable under the tracker's 32px patch resampling, large enough to
# give the feature net real structure.
_TEXTURE_TILES = 6


def _validate_spec(spec: SynthSpec) -> None:
    if spec.T < 1:
        raise ConfigError(f"T must be >= 1, got {spec.T}")
    if spec.frame_w < 4 or spec.frame_h < 4:
        raise ConfigError(f"frame {spec.frame_w}x{spec.frame_h} too small")
    if spec.scale_rate <= 0:
        raise ConfigError(f"scale_rate must be positive, got {spec.scale_rate}")
    for name in ("distractors", "noise_level", "appearance_drift"):
        if not getattr(spec, name) >= 0:
            raise ConfigError(f"{name} must be >= 0, got {getattr(spec, name)}")
    for start, end in spec.occlusions:
        if not 0 <= start <= end < spec.T:
            raise ConfigError(
                f"occlusions window {start}:{end} must have 0 <= start <= end < T = {spec.T}"
            )
    boxes = box_array([spec.box_at(t) for t in range(spec.T)])
    if not usable(boxes[:1])[0]:
        raise ConfigError("target size must be positive")
    off = np.flatnonzero(~on_frame(boxes, spec.frame_w, spec.frame_h))
    if off.size:
        raise ConfigError(
            f"target fully exits the frame at frame {off[0]}; "
            "reduce velocity/scale_rate or enlarge the frame"
        )


def _paint_rect(canvas: np.ndarray, box: BBox, texture: np.ndarray) -> None:
    """Fill the integer-rasterized box with the texture tile pattern.

    Tile lookup uses coordinates relative to the box, so the pattern
    moves and scales with the target instead of sliding underneath it.
    """
    h, w = canvas.shape[:2]
    x0 = max(int(round(box.x)), 0)
    y0 = max(int(round(box.y)), 0)
    x1 = min(int(round(box.x + box.w)), w)
    y1 = min(int(round(box.y + box.h)), h)
    if x1 <= x0 or y1 <= y0:
        return
    k = texture.shape[0]
    cols = np.arange(x0, x1)
    rows = np.arange(y0, y1)
    u = np.clip(((cols - box.x) / box.w * k).astype(int), 0, k - 1)
    v = np.clip(((rows - box.y) / box.h * k).astype(int), 0, k - 1)
    canvas[y0:y1, x0:x1] = texture[np.ix_(v, u)]


@dataclass
class _Mover:
    """A distractor rectangle bouncing inside the frame."""

    x: float
    y: float
    vx: float
    vy: float
    w: float
    h: float
    texture: np.ndarray

    def step(self, frame_w: int, frame_h: int) -> None:
        self.x += self.vx
        self.y += self.vy
        if self.x < 0 or self.x + self.w > frame_w:
            self.vx = -self.vx
            self.x = min(max(self.x, 0.0), frame_w - self.w)
        if self.y < 0 or self.y + self.h > frame_h:
            self.vy = -self.vy
            self.y = min(max(self.y, 0.0), frame_h - self.h)


def generate(spec: SynthSpec) -> Sequence:
    """Render a synthetic sequence with exact ground truth.

    Deterministic given spec.seed. The target is a textured rectangle on
    a fresh-noise background; distractors are independently textured,
    bouncing rectangles; occlusion windows overdraw the target with a
    flat block while the ground truth keeps following the kinematics.
    """
    _validate_spec(spec)
    rng = np.random.default_rng(spec.seed)
    channels = (3,) if spec.rgb else ()
    tex_shape = (_TEXTURE_TILES, _TEXTURE_TILES) + channels

    target_tex = rng.integers(0, 256, size=tex_shape).astype(np.float64)
    movers = []
    for _ in range(spec.distractors):
        # A distractor larger than the frame is clamped to it; the draws
        # stay the same, so sequences that never needed it are unchanged.
        mw = min(spec.target_w * rng.uniform(0.8, 1.2), spec.frame_w)
        mh = min(spec.target_h * rng.uniform(0.8, 1.2), spec.frame_h)
        movers.append(
            _Mover(
                x=rng.uniform(0, spec.frame_w - mw),
                y=rng.uniform(0, spec.frame_h - mh),
                vx=rng.uniform(-2.0, 2.0),
                vy=rng.uniform(-2.0, 2.0),
                w=mw,
                h=mh,
                texture=rng.integers(0, 256, size=tex_shape).astype(np.float64),
            )
        )

    frames: list[Frame] = []
    groundtruth: list[BBox] = []
    occluded: list[bool] = []
    for t in range(spec.T):
        gt = spec.box_at(t)
        canvas = 128.0 + spec.noise_level * rng.standard_normal(
            (spec.frame_h, spec.frame_w) + channels
        )
        for mv in movers:
            _paint_rect(canvas, BBox(mv.x, mv.y, mv.w, mv.h), mv.texture)
            mv.step(spec.frame_w, spec.frame_h)
        _paint_rect(canvas, gt, target_tex)
        hidden = spec.occluded_at(t)
        if hidden:
            pad = 2.0
            block = BBox(gt.x - pad, gt.y - pad, gt.w + 2 * pad, gt.h + 2 * pad)
            _paint_rect(canvas, block, np.full(tex_shape, 96.0))
        if spec.appearance_drift > 0:
            target_tex = np.clip(
                target_tex + spec.appearance_drift * rng.standard_normal(tex_shape),
                0.0,
                255.0,
            )
        frames.append(Frame(np.clip(canvas, 0, 255).astype(np.uint8)))
        groundtruth.append(gt)
        occluded.append(hidden)
    return Sequence(f"synth-{spec.seed}", frames, groundtruth, occluded)


def save_sequence(seq: Sequence, directory: str | Path) -> None:
    """Write a sequence directory: img/%06d.pgm|ppm + groundtruth_rect.txt,
    and occlusion.txt when a frame is occluded. The frames and flags of a
    sequence saved there before are removed; other files stay."""
    if seq.T == 0:
        raise ValueError(f"refusing to save empty sequence {seq.name!r}")
    directory = Path(directory)
    img_dir = directory / "img"
    img_dir.mkdir(parents=True, exist_ok=True)
    rgb = seq.frames[0].pixels.ndim == 3
    ext = "ppm" if rgb else "pgm"
    paths = [img_dir / f"{i:06d}.{ext}" for i in range(1, seq.T + 1)]
    for stale in set(_frame_paths(img_dir)) - set(paths):
        stale.unlink()
    for path, frame in zip(paths, seq.frames):
        _write_netpbm(path, frame.pixels)
    write_rows(directory / "groundtruth_rect.txt", box_array(seq.groundtruth))
    if any(seq.occluded):
        write_rows(directory / "occlusion.txt", ((bool(o),) for o in seq.occluded))
    else:
        (directory / "occlusion.txt").unlink(missing_ok=True)


def _frame_paths(img_dir: Path) -> list[Path]:
    """The .pgm/.ppm frames in `img_dir`, shorter names first: `2` before `10`."""
    paths = [p for p in img_dir.iterdir() if p.suffix.lower() in (".pgm", ".ppm")]
    return sorted(paths, key=lambda p: (len(p.stem), p.stem))


def sequence_name(directory: str | Path) -> str:
    """A sequence's name: the last component of its directory's
    normalised absolute path, so `.` and `seq/..` name the directories
    they stand for and a symlinked directory keeps its own name. The root
    has no name and raises ConfigError."""
    name = os.path.basename(os.path.abspath(directory))
    if not name:
        raise ConfigError(f"sequence directory {str(directory)!r} has no name")
    return name


def load_sequence(directory: str | Path) -> Sequence:
    """Load a sequence directory written by save_sequence or benchmark-style,
    named by sequence_name."""
    name = sequence_name(directory)
    directory = Path(directory)
    img_dir = directory / "img"
    if not img_dir.is_dir():
        raise FormatError(f"{directory}: missing img/ subdirectory")
    paths = _frame_paths(img_dir)
    if not paths:
        raise FormatError(f"{img_dir}: no .pgm/.ppm frames found")

    gt_path = directory / "groundtruth_rect.txt"
    if not gt_path.is_file():
        raise FormatError(f"{directory}: missing groundtruth_rect.txt")
    boxes = []
    lines = read_text(gt_path).splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = re.split(r"[,\s]+", line.strip())
        if len(parts) != 4:
            raise FormatError(f"{gt_path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            x, y, w, h = (float(p) for p in parts)
        except ValueError as exc:
            raise FormatError(f"{gt_path}:{lineno}: {exc}") from None
        box = BBox(x, y, w, h)
        if not usable([box])[0]:
            raise FormatError(f"{gt_path}:{lineno}: box {x},{y},{w},{h} is not a valid box")
        boxes.append(box)
    if len(boxes) != len(paths):
        raise FormatError(
            f"{directory}: {len(paths)} frames but {len(boxes)} ground-truth lines"
        )

    frames = []
    for path in paths:
        frames.append(Frame(_read_netpbm(path)))
        if frames[-1].pixels.shape != frames[0].pixels.shape:
            raise FormatError(
                f"{path}: frame shape {frames[-1].pixels.shape} differs from "
                f"{paths[0].name}'s {frames[0].pixels.shape} (height, width[, channels])"
            )
    occluded = []
    occ_path = directory / "occlusion.txt"
    if occ_path.is_file():
        for lineno, line in enumerate(read_text(occ_path).splitlines(), start=1):
            for tok in line.split():
                if tok not in ("0", "1"):
                    raise FormatError(f"{occ_path}:{lineno}: flag {tok!r} is not 0 or 1")
                occluded.append(tok == "1")
        if len(occluded) != len(frames):
            raise FormatError(f"{occ_path}: expected {len(frames)} flags")
    return Sequence(name, frames, boxes, occluded)


def _write_netpbm(path: Path, pixels: np.ndarray) -> None:
    if pixels.dtype != np.uint8:
        raise ValueError(f"frame pixels must be uint8, got {pixels.dtype}")
    magic = b"P6" if pixels.ndim == 3 else b"P5"
    header = magic + f"\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    try:
        path.write_bytes(header + pixels.tobytes())
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _read_netpbm(path: Path) -> np.ndarray:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: bad magic {magic!r}, expected binary P5/P6")
    # Header = magic + 3 whitespace-separated ints, with optional comments.
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header")
        try:
            tokens.append(int(raw[start:pos]))
        except ValueError:
            raise FormatError(f"{path}: bad header token {raw[start:pos]!r}") from None
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    data = raw[pos : pos + expected]
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} pixel bytes, got {len(data)}")
    arr = np.frombuffer(data, dtype=np.uint8)
    shape = (height, width, 3) if channels == 3 else (height, width)
    return arr.reshape(shape)
