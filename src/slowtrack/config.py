"""Flat key=value experiment configuration.

One file drives a whole experiment. Keys are dotted: the first segment
names a section (``sampler.lo=0.2`` configures the sampler), and each
section maps onto one config dataclass. Blank lines and ``#`` comments
are ignored. Unknown sections, unknown keys, duplicate keys, and
malformed values are all hard errors — a silent typo in an experiment
file is worse than a crash.

Value syntax per field type: ints, floats, and strings are literal,
and floats must be finite; bools accept true/false/yes/no/1/0; optional
fields accept ``none``; fixed-size tuples are colon- or comma-separated
(``velocity=1.0,0.5``); variadic tuples are comma-separated with
colon-separated inner pairs (``occlusions=20:30,50:60``).
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from pathlib import Path

from .errors import ConfigError, read_text


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse key=value lines into an ordered flat dict."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config_text(read_text(path, ConfigError), source=str(path))


def split_sections(entries: dict[str, str]) -> dict[str, dict[str, str]]:
    """Group flat entries by their first dotted segment. Keys without a
    dot land in the "" section."""
    sections: dict[str, dict[str, str]] = {}
    for key, value in entries.items():
        prefix, _, rest = key.partition(".")
        if not rest:
            prefix, rest = "", key
        sections.setdefault(prefix, {})[rest] = value
    return sections


_TRUE = frozenset({"true", "yes", "1"})
_FALSE = frozenset({"false", "no", "0"})


def _convert(raw: str, hint, key: str):
    if hint is bool:
        lowered = raw.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if hint in (int, float, str):
        try:
            value = hint(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        # Validators written as x < 0 would let NaN through.
        if hint is float and not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return value
    origin = typing.get_origin(hint)
    if origin in (types.UnionType, typing.Union):
        members = [a for a in typing.get_args(hint) if a is not type(None)]
        if raw.lower() in ("none", "") and len(members) < len(typing.get_args(hint)):
            return None
        return _convert(raw, members[0], key)
    if origin is tuple:
        args = typing.get_args(hint)
        if not raw.strip():
            return ()
        if len(args) == 2 and args[1] is Ellipsis:
            parts = raw.split(",")
            return tuple(_convert(p.strip(), args[0], key) for p in parts)
        sep = ":" if ":" in raw else ","
        parts = raw.split(sep)
        if len(parts) != len(args):
            raise ConfigError(
                f"{key}: expected {len(args)} values, got {len(parts)} in {raw!r}"
            )
        return tuple(
            _convert(p.strip(), a, key) for p, a in zip(parts, args)
        )
    raise ConfigError(f"{key}: unsupported field type {hint!r}")


def build(dc, entries: dict[str, str], section: str = ""):
    """Instantiate a config dataclass from string entries.

    dc is a config dataclass, or an instance of one. Every key must name
    a dataclass field; values are converted using the field's type
    annotation. A field that is itself a dataclass is not a key: it is
    configured through its own section. Fields not mentioned keep their
    defaults, or the instance's values (via dataclasses.replace). The
    dataclass's own validation then runs as usual.
    """
    dc_type = dc if isinstance(dc, type) else type(dc)
    label = section or dc_type.__name__
    hints = settable_fields(dc_type)
    kwargs = {}
    for key, raw in entries.items():
        if key not in hints:
            known = ", ".join(sorted(hints))
            raise ConfigError(f"{label}.{key}: unknown key (known: {known})")
        kwargs[key] = _convert(raw, hints[key], f"{label}.{key}")
    return dc(**kwargs) if dc is dc_type else dataclasses.replace(dc, **kwargs)


def settable_fields(dc_type) -> dict[str, object]:
    """The keys build accepts for a config dataclass, with their types:
    every field but those that are themselves dataclasses."""
    hints = typing.get_type_hints(dc_type)
    return {
        f.name: hints[f.name]
        for f in dataclasses.fields(dc_type)
        if not dataclasses.is_dataclass(hints[f.name])
    }


def check_known_sections(sections: dict[str, dict[str, str]], known: set[str]) -> None:
    extra = set(sections) - known
    if extra:
        raise ConfigError(
            f"config: unknown section(s) {sorted(extra)}; "
            f"this command reads {sorted(known)}"
        )
