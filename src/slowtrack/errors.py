"""Exception types shared across the package, the one reader of text
input files and the one writer of text tables.

Everything raised on purpose derives from SlowTrackError so the CLI can
distinguish validation failures (exit 1) from genuine bugs (exit 2).
"""

from pathlib import Path
from typing import Iterable

import numpy as np


class SlowTrackError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SlowTrackError):
    """Invalid configuration value, unknown config key, or bad dimensions."""


class FormatError(SlowTrackError):
    """A file on disk does not match its expected format."""


class OutOfViewError(SlowTrackError):
    """A box has no overlap with the frame, so no patch can be cropped."""


class SamplerExhausted(SlowTrackError):
    """Rejection sampling hit its attempt cap before filling the quota."""


class NumericalError(SlowTrackError):
    """NaN/Inf appeared where finite values are required."""


def read_text(path: str | Path, error: type[SlowTrackError] = FormatError) -> str:
    """The contents of the UTF-8 text file at `path`. A file that cannot
    be read, or is not UTF-8, raises `error` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _cell(v: object) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return str(v)


def write_rows(path: str | Path, rows: Iterable[Iterable], header: str | None = None) -> None:
    """Write the UTF-8 text table at `path`: `header`, if given, then one
    line of comma-separated cells per row, each line ended by `\\n`. A bool
    is written as 1 or 0, a float as its `repr` (so it reads back bit for
    bit) and any other cell with `str`."""
    lines = [] if header is None else [header]
    lines += [",".join(map(_cell, row)) for row in rows]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
