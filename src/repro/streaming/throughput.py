"""Streaming kernel throughput measurement (Figure 3).

The paper reports the rate sustained by the core-set construction itself,
"ignoring the cost of streaming data from memory": we therefore time the
aggregate of the sketch's ``process`` / ``process_batch`` calls, not the
surrounding loop.  Pass ``batch_size`` to measure the vectorized ingestion
path; it produces the same sketch state, so batched and per-point reports
are directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.coresets.smm import SMM
from repro.streaming.stream import Stream
from repro.utils.validation import as_float_array


@dataclass(frozen=True)
class ThroughputReport:
    """Result of one throughput measurement.

    ``batch_size`` is 0 for point-at-a-time ingestion, else the block size
    fed to ``process_batch``.
    """

    points: int
    kernel_seconds: float
    wall_seconds: float
    batch_size: int = 0

    @property
    def kernel_points_per_second(self) -> float:
        """Throughput of the sketch kernel alone (Figure 3's metric)."""
        if self.kernel_seconds <= 0.0:
            return float("inf")
        return self.points / self.kernel_seconds

    @property
    def wall_points_per_second(self) -> float:
        """Throughput including stream iteration overhead."""
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.points / self.wall_seconds


def measure_throughput(sketch: SMM, stream: Stream,
                       batch_size: int | None = None) -> ThroughputReport:
    """Feed *stream* through *sketch*, timing the kernel.

    With ``batch_size`` unset, each point goes through ``process`` (the
    historical per-point measurement); otherwise the stream is read in
    ``batch_size`` blocks through ``process_batch``.
    """
    kernel_seconds = 0.0
    points = 0
    wall_start = time.perf_counter()
    if batch_size:
        for block in stream.batches(batch_size):
            start = time.perf_counter()
            sketch.process_batch(block)
            kernel_seconds += time.perf_counter() - start
            points += block.shape[0]
    else:
        for point in stream:
            row = as_float_array(point)
            start = time.perf_counter()
            sketch.process(row)
            kernel_seconds += time.perf_counter() - start
            points += 1
    wall_seconds = time.perf_counter() - wall_start
    return ThroughputReport(points=points, kernel_seconds=kernel_seconds,
                            wall_seconds=wall_seconds,
                            batch_size=batch_size or 0)
