"""How fast the shared host ran during a run, from a fixed reference routine.

The benchmark runs on a few cores of a shared host that switches, every few
tens to hundreds of milliseconds, between running it at full speed and at
about half speed, and spends from under a tenth to about half of a 30-second
run at full speed. The program's timings follow that share. So the reference
routine below, which does not touch specdesk, is timed at most every
REF_EVERY_NS throughout the run. A window's scale is the reference's mean
time within the window (a round, a rebuild, a pass or a set-up) over
NOMINAL_NS, and every timing taken in the window is divided by it; the
benchmark then reports means (totals) of the scaled timings. The program's
time and the reference's mean both move linearly with the share of time at
full speed, so their quotient does not. A change to specdesk cannot move the
reference, so it moves the scaled timings in full.
"""

from __future__ import annotations

import contextlib
import random
import time

import numpy as np

REF_EVERY_NS = 25_000_000
# Scaled timings are those of a host on which the reference averages 1 ms. A
# 2-vCPU x86-64 VM (Xeon, CPython 3.11, numpy 2.4) runs it in 0.9-1.0 ms at
# full speed and 1.8-2.0 ms at half speed.
NOMINAL_NS = 1_000_000

_rng = random.Random(20240617)
_TEXT = "".join(_rng.choice("abcdefghij ") for _ in range(4000))
_VECTOR = np.arange(256, dtype=float)


def reference() -> int:
    """Character-trigram counting and small vector arithmetic: the dict,
    string and numpy work the library does, in fixed amounts."""
    counts = {}
    for i in range(len(_TEXT) - 3):
        key = _TEXT[i:i + 3]
        counts[key] = counts.get(key, 0) + 1
    x = _VECTOR
    for _ in range(20):
        x = np.exp(np.log(x + 1.0) * 0.5)
        x = x / x.sum()
    return len(counts)


class HostClock:
    """Times the reference at most once per REF_EVERY_NS, when ticked."""

    def __init__(self) -> None:
        self.times_ns: list = []
        self.last_ns = 0

    def tick(self) -> None:
        now = time.perf_counter_ns()
        if now - self.last_ns >= REF_EVERY_NS:
            self.probe()

    def probe(self) -> None:
        started = time.perf_counter_ns()
        reference()
        self.last_ns = time.perf_counter_ns()
        self.times_ns.append(self.last_ns - started)

    def scale(self, first: int = 0) -> float:
        """How much slower than nominal the host ran on average, from probe
        `first` on; at least one probe is always taken."""
        if len(self.times_ns) <= first:
            self.probe()
        return float(np.mean(self.times_ns[first:])) / NOMINAL_NS

    @contextlib.contextmanager
    def window(self):
        """Probe, run the body, probe again; the yielded Window holds the
        body's scale afterwards."""
        window = Window()
        first = len(self.times_ns)
        self.probe()
        yield window
        self.probe()
        window.scale = self.scale(first)


class Window:
    scale = 1.0
