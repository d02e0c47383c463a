"""How fast the host ran while the benchmark measured, to take out of its times.

On a shared VM the CPU slows down for seconds to minutes at a time, by up
to 40%, on both vCPUs at once, whenever neighbours load the machine; CPU
time slows down with wall time, so it does not help.  A
:class:`Speedometer` times a fixed probe — a pure-Python loop plus a small
float32 numpy kernel, about a millisecond — in thread CPU time, between
the operations the workload times: before every miss-mix query, before
every ingest round, every 64 answers of serve-hot's closed loop, and in a
burst on each side of a set-up.  :meth:`Speedometer.factor` is how much
slower than :data:`NOMINAL_S` the probe ran around a timed operation or
window; dividing its time by that gives it at the reference speed.  The
probe never calls the code under test, so a faster commit still shows as
faster.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Thread CPU seconds of one probe at the reference speed: the fast
#: level of a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4.
NOMINAL_S = 1.0e-3
#: Probes on each side of a set-up.
BURST = 8
#: A timed operation's slowdown counts the probes this close to it
#: (seconds): the host's speed holds for about a second at a time.
MARGIN_S = 0.25

_POINTS = np.random.default_rng(0).random((512, 3)).astype(np.float32)
_CENTRES = _POINTS[:48].copy()


def probe() -> float:
    """Thread CPU seconds of one fixed unit of interpreter and numpy work."""
    began = time.thread_time()
    total = 0
    for i in range(3000):
        total += i * i % 7
    gaps = ((_POINTS[:, None, :] - _CENTRES[None, :, :]) ** 2).sum(axis=2)
    gaps.min(axis=1).argmax()
    return time.thread_time() - began


class Speedometer:
    """The probe times of one run, and the slowdown they give a window."""

    def __init__(self):
        #: ``time.monotonic()`` at the end of each probe, in order.
        self.at: list[float] = []
        #: Thread CPU seconds of each probe.
        self.costs: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Run the probe *count* times now."""
        for _ in range(count):
            cost = probe()
            self.at.append(time.monotonic())
            self.costs.append(cost)

    def factor(self, lo: float, hi: float) -> float:
        """How many times slower than the reference the host ran in
        ``[lo - MARGIN_S, hi + MARGIN_S]`` (``time.monotonic()``): the
        median probe there over :data:`NOMINAL_S`, or over the whole run
        if none fell inside."""
        inside = self.costs[bisect.bisect_left(self.at, lo - MARGIN_S):
                            bisect.bisect_right(self.at, hi + MARGIN_S)]
        return statistics.median(inside or self.costs or [NOMINAL_S]) \
            / NOMINAL_S
