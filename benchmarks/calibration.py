"""Host-speed reference for the timed loop.

The host the benchmark runs on changes speed by up to ~1.6x, in bursts
that last from a fraction of a second to minutes, for reasons outside
the process (CPU time follows wall time).  A run's median then lands on
whichever speed dominated it.  To take that out, the loop runs a fixed
reference kernel every ``EVERY_S`` seconds, between experiments and
outside their timing, and each timed interval is scaled by how fast the
kernel ran just around it:

    host-normalised seconds = wall seconds * REFERENCE_S / local kernel time

where the local kernel time is the median of the last ``BRACKET`` kernel
runs before the interval and the first ``BRACKET`` after it.  The result
reads as the wall time the interval would have taken on a host where the
kernel takes ``REFERENCE_S``.  A change to pitaron-lab moves it exactly
as it moves wall time; a change of host speed mostly cancels.

The bracket is this tight because the speed can switch several times a
second.  Over five 30 s runs per workload, the quartile distance over the
median of the runs' medians was 0.14-0.18 for wall times, 0.03-0.10 when
scaled by the median kernel time within 1 s of each experiment, and
0.02-0.08 with the bracket; the tails gained as much.

The kernel is a Python loop of 2x2 complex numpy products, norms and
Hermitian eigendecompositions: interpreter-bound small-array work, the
profile that dominates all three workloads.  It uses no pitaron-lab code
and no multi-threaded BLAS, whose thread wake-ups made a 64x64 kernel
track the host worse than this one.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 2.3e-3   # the kernel's typical time on the host the bounds were fixed on
EVERY_S = 0.1          # kernel sampling interval in the timed loop
BURST = 2              # kernel runs per sample point
BRACKET = 2            # kernel runs on each side of an interval that set its scale


class HostSpeed:
    """Kernel samples taken over a run, and the scaling they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(32)]
        self.times: list[float] = []     # midpoint of each sample, perf_counter seconds
        self.seconds: list[float] = []   # the kernel's duration
        self._last = -np.inf

    def kernel(self) -> float:
        """Run the reference kernel once; its wall seconds."""
        started = time.perf_counter()
        acc = np.eye(2, dtype=np.complex128)
        for _ in range(3):
            for m in self._mats:
                acc = acc @ m
                acc = acc / np.linalg.norm(acc)
                np.linalg.eigh(m + m.conj().T)
        return time.perf_counter() - started

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            took = self.kernel()
            self.times.append(started + took / 2)
            self.seconds.append(took)
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        """Run the kernel ``BURST`` times when ``EVERY_S`` has passed since the last run."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample(BURST)

    def local(self, start: float, end: float) -> float:
        """Median of the ``BRACKET`` kernel times before ``start`` and after ``end``."""
        if not self.times:
            raise ValueError("no kernel samples taken")
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_right(self.times, end)
        return statistics.median(self.seconds[max(0, before - BRACKET):before]
                                 + self.seconds[after:after + BRACKET])

    def normalise(self, start: float, seconds: float) -> float:
        """Host-normalised seconds of an interval that began at ``start``."""
        return seconds * REFERENCE_S / self.local(start, start + seconds)
