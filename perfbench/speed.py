"""Machine-speed probe, to divide a shared CPU's speed drift out of timings.

On a shared host the same code runs at different speeds from one moment to
the next: in slow stretches lasting seconds to minutes everything takes up
to about 1.6 times as long.  A pass is timed with a fixed reference kernel
(``probe``) interleaved into it: a real-time interval timer interrupts the
pass every ``INTERVAL_S`` seconds and the signal handler times one probe.
The probe's time is left out of the pass's time.  Then

    normalised time = raw time * REFERENCE_PROBE_S * mean(1 / probe times)

which is the time the pass would have taken had the machine run all along
at the speed where one probe takes ``REFERENCE_PROBE_S``.  The mean of
rates, not of times, is the right average: a probe sampled in a slow
stretch stands for a stretch in which less of the pass got done.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.002
INTERVAL_S = 0.1
_MASK = (1 << 96) - 1


def probe() -> float:
    """Seconds one fixed kernel takes: tuple-keyed dict updates with
    96-bit integer products and a short ``Fraction`` sum, the operations
    the package spends its time in.  About 2 ms on a 2.1 GHz Xeon."""
    start = time.perf_counter()
    table: dict = {}
    x = 0x9E3779B97F4A7C15
    for i in range(1600):
        key = (i % 13, i % 7, i % 5)
        x = (x * 0x5851F42D4C957F2D + i) & _MASK
        table[key] = table.get(key, 0) + x * (x >> 40)
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 7)
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that turns a raw time into a normalised one."""
    return REFERENCE_PROBE_S * sum(1 / s for s in samples) / len(samples)


class Sampler:
    """Times a probe every ``INTERVAL_S`` seconds while the block runs, and
    once on entry and on exit, so even a short block has samples.  The
    probes run in the main thread, between two bytecodes of the pass.
    ``inside_s`` is the time the probes took inside the block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _tick(self, signum, frame) -> None:
        took = probe()
        self.samples.append(took)
        self.inside_s += took

    def __enter__(self) -> "Sampler":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
