"""Machine-speed probe: a fixed kernel timed between the program's operations.

On a shared host the speed of a CPU drifts by tens of percent over tens
of seconds, and every operation of the program slows with it.  The
timed phase therefore pauses every ``PROBE_EVERY_S`` seconds, with no
operation in flight, and times this kernel: a sort, a gather and a
segment reduction over fixed numpy arrays, the kind of work the
program's columnar paths do.  Its time over its reference time is the
machine's slowdown at that moment, and the end-to-end times are divided
by the local slowdown.

The kernel is the benchmark's own code and never changes with the
program, so a faster program reads faster and a slower one slower; only
the machine's drift is taken out.  The raw figures are printed beside
the corrected ones.  A pure-Python loop was tried as a second kernel and
dropped: its swings did not follow the program's, so it added noise
instead of removing it.  Without numpy there is no kernel and the
slowdown reads 1.0 (no correction).
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no kernel, no correction
    np = None

#: the probe runs this often during a timed phase (active seconds)
PROBE_EVERY_S = 0.5
#: probes within this many seconds of an instant set its slowdown
SMOOTH_S = 2.0
#: the kernel's time on the machine the benchmark was tuned on (2-CPU
#: x86-64 VM, Python 3.11, numpy 2.4): a slowdown of 1.0 means that speed
REFERENCE_S = 0.0021

_ELEMENTS = 20000
_SEGMENT = 64


class SpeedProbe:
    def __init__(self) -> None:
        if np is not None:
            gen = np.random.default_rng(20090115)
            self._keys = gen.integers(0, 1 << 30, _ELEMENTS)
            self._gather = gen.integers(0, _ELEMENTS, _ELEMENTS)
            self._starts = np.arange(0, _ELEMENTS, _SEGMENT)

    def _kernel(self) -> float:
        started = time.perf_counter()
        order = np.argsort(self._keys, kind="stable")
        np.minimum.reduceat(self._keys[order][self._gather], self._starts)
        return time.perf_counter() - started

    def measure(self) -> float:
        """The machine's slowdown now: kernel time over its reference.

        The kernel runs twice and keeps its faster time, so one page
        fault or interrupt does not read as a slow machine; the
        collector is off meanwhile.
        """
        if np is None:
            return 1.0
        enabled = gc.isenabled()
        gc.disable()
        try:
            return min(self._kernel(), self._kernel()) / REFERENCE_S
        finally:
            if enabled:
                gc.enable()


class Slowdown:
    """The probes of one phase, as a function of time."""

    def __init__(self, probes: Sequence[Tuple[float, float]]):
        #: (perf_counter time, slowdown), in time order
        self.times = [t for t, _ in probes]
        self.ratios = [r for _, r in probes]

    def at(self, when: float) -> float:
        """Median slowdown of the probes within SMOOTH_S of ``when``
        (the nearest probe when none is that close)."""
        lo = bisect.bisect_left(self.times, when - SMOOTH_S)
        hi = bisect.bisect_right(self.times, when + SMOOTH_S)
        if lo < hi:
            return statistics.median(self.ratios[lo:hi])
        i = bisect.bisect_left(self.times, when)
        near = [j for j in (i - 1, i) if 0 <= j < len(self.times)]
        nearest = min(near, key=lambda j: abs(self.times[j] - when))
        return self.ratios[nearest]

    def median(self) -> float:
        return statistics.median(self.ratios)


def corrected_seconds(segments: List[Tuple[float, float]],
                      slowdown: Slowdown) -> float:
    """Active time of a phase at reference speed."""
    return sum((end - start) / slowdown.at((start + end) / 2.0)
               for start, end in segments)
