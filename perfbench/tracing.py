"""Spans around every call into slowtrack's layers, and the per-layer
metrics derived from them.

`instrument` wraps each public function of each layer module, and each
public method of the layer's plain (non-dataclass) classes, in every
slowtrack namespace that holds it. A span is named `<layer>.<function>`
and records its start, end, parent span and a work count read off the
call's arguments or result. Spans stay in memory until `save` writes
them out. Layer metrics sum over a layer's functions, so renaming or
splitting a function keeps it counted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "geometry", "dataset", "sampler", "net", "loss",
    "train", "tracker", "evaluate", "bound",
)


class Tracer:
    """In-memory span store. Records only while `active` is set."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.counts.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        if not self.active:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def save(self, path) -> None:
        """Write the spans as one compressed npz file."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(table),
            name=np.array([ids[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
            count=np.array(self.counts, dtype=np.int64),
        )


# -- work counts --------------------------------------------------------------


def _patches(args, result) -> int:
    """Patches a geometry call produced: one Patch, or an (N, S, S[, C])
    batch."""
    if type(result).__name__ == "Patch":
        return 1
    if isinstance(result, np.ndarray) and result.ndim >= 3:
        return result.shape[0]
    return 0


def _boxes(args, result) -> int:
    """Boxes a sampler call produced: BBox objects, possibly in (nested)
    lists and tuples, or (N, 4) arrays."""
    if type(result).__name__ == "BBox":
        return 1
    if isinstance(result, np.ndarray):
        return result.shape[0] if result.ndim == 2 and result.shape[1] == 4 else 0
    if isinstance(result, (list, tuple)):
        return sum(_boxes(args, item) for item in result)
    return 0


def _entries(args, result) -> int:
    """Entries a gradient check compared."""
    return result.entries_checked if type(result).__name__ == "FDReport" else 0


def _rows(args, result) -> int:
    """Rows a forward call embedded or scored."""
    x = np.asarray(args[1])
    return 1 if x.ndim == 1 else x.shape[0]


def _trials(args, result) -> int:
    return result.trials if type(result).__name__ == "BoundReport" else 0


def _counter(layer: str, name: str):
    if layer == "geometry":
        return _patches
    if layer == "sampler":
        return _boxes
    if layer == "net":
        return _rows if name.startswith("forward") else _entries
    if layer == "bound":
        return _trials
    return None


# -- instrumentation ----------------------------------------------------------


def _wrap(tracer: Tracer, span_name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            tracer.counts[idx] = counter(args, result)
        return result

    return traced


def _public_callables(module):
    """(owner, attribute, function) for each public function defined in
    the module and each public method of its plain classes."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj
        elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, fn


def instrument(tracer: Tracer):
    """Wrap every layer's public callables; returns a function that
    restores the originals."""
    for layer in LAYERS:
        importlib.import_module(f"slowtrack.{layer}")
    namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "slowtrack"]
    replaced: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        module = sys.modules[f"slowtrack.{layer}"]
        for owner, attr, fn in list(_public_callables(module)):
            wrapper = _wrap(tracer, f"{layer}.{attr}", fn, _counter(layer, attr))
            replaced.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if owner is not module:
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        replaced.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def restore() -> None:
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)

    return restore


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    Self time is a span's duration minus the durations of its direct
    children. Ratios whose base is zero (the layer did no such work)
    read 0.
    """
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    parent = np.array(tracer.parents, dtype=np.int64)
    count = np.array(tracer.counts, dtype=np.int64)
    child_time = np.zeros(len(dur))
    np.add.at(child_time, parent[parent >= 0], dur[parent >= 0])
    self_time = dur - child_time
    names = np.array(tracer.names, dtype=str)
    layer = np.array([s.split(".")[0] for s in tracer.names], dtype=str)
    forward = np.array([s.startswith("net.forward") for s in tracer.names], dtype=bool)

    def per(values, mask, base, scale) -> float:
        return float(values[mask].sum()) / base * scale if base else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = (float(self_time[layer == name].sum()), "s")

    for name, work, unit in (("geometry", "patches", "patch"), ("sampler", "boxes", "box")):
        did = (layer == name) & (count > 0)
        total = int(count[did].sum())
        out[f"{name}.{work}"] = (total, "count")
        out[f"{name}.us_per_{unit}"] = (per(self_time, did, total, 1e6), "us")

    rows = int(count[forward].sum())
    out["net.forward_rows"] = (rows, "count")
    out["net.forward_us_per_row"] = (per(self_time, forward, rows, 1e6), "us")
    fd = (layer == "net") & ~forward & (count > 0)
    entries = int(count[fd].sum())
    out["net.fd_entries"] = (entries, "count")
    out["net.fd_us_per_entry"] = (per(dur, fd, entries, 1e6), "us")

    def mean_ms(span: str, values=self_time) -> float:
        mask = names == span
        return per(values, mask, int(mask.sum()), 1e3)

    out["net.backward_ms_per_call"] = (mean_ms("net.backward"), "ms")
    out["train.steps"] = (int((names == "train.optimizer_step").sum()), "count")
    out["train.optimizer_ms_per_step"] = (mean_ms("train.optimizer_step"), "ms")
    out["train.finetune_initial_s"] = (mean_ms("train.finetune_initial", dur) / 1e3, "s")
    out["train.finetune_update_ms"] = (mean_ms("train.finetune_update", dur), "ms")
    out["tracker.frames"] = (int((names == "tracker.track_frame").sum()), "count")
    out["tracker.track_frame_ms"] = (mean_ms("tracker.track_frame", dur), "ms")

    trials = int(count[layer == "bound"].sum())
    out["bound.trials"] = (trials, "count")
    out["bound.us_per_trial"] = (per(self_time, layer == "bound", trials, 1e6), "us")

    out["tracing.spans"] = (int(np.isin(layer, LAYERS).sum()), "count")
    return out
