"""A speed probe that scales wall time to a reference machine speed.

On a shared machine the same single-threaded code runs at one of two
speeds about 1.6x apart, switching every few seconds with a neighbour's
load, so wall-clock rates differ by 20-40% between runs of the same
inputs. The probe times a fixed piece of work (small matrix products in
a Python loop) at the start and then every `period` seconds from a
SIGALRM handler, and `scaled` converts a wall-clock window into the
seconds it would have taken at the reference speed: each stretch
between two probes is multiplied by REF_MS / (that stretch's probe
time). Time spent in the probe itself is left out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The probe's time on an uncontended reference machine (a 2.1 GHz Xeon
# virtual CPU, one OpenBLAS thread). Scaled figures read as if every
# probe had taken this long.
REF_MS = 5.5
_ROUNDS = 1500


class SpeedProbe:
    def __init__(self, period: float = 0.3):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe
        self._a = np.random.default_rng(0).random((64, 64))
        self._previous = None

    def probe(self, *_signal) -> None:
        a = self._a
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            float((a[:4] @ a).sum())
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds the window [start, end] would have taken at the
        reference speed. Each gap between probes is costed at the mean
        speed of the two probes around it."""
        ms = [(e - s) * 1e3 for s, e in self.samples]
        total = 0.0
        for j, (_, gap_start) in enumerate(self.samples):
            gap_end = self.samples[j + 1][0] if j + 1 < len(self.samples) else float("inf")
            overlap = min(end, gap_end) - max(start, gap_start)
            if overlap > 0:
                speed = REF_MS / (ms[j] if j + 1 == len(ms) else (ms[j] + ms[j + 1]) / 2)
                total += overlap * speed
        return total

    def mean_ms(self) -> float:
        return float(np.mean([(e - s) * 1e3 for s, e in self.samples]))
