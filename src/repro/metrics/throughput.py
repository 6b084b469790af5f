"""Throughput measurement (paper metric: million operations per second).

The paper reports Mpps of the C++ implementations; absolute Python numbers
are orders of magnitude lower and not comparable, so the experiment harness
only ever interprets these results *relatively* between algorithms run under
identical conditions (same stream, same process, back to back).

Two measurement modes exist since the batch datapath rework:

* :func:`measure_throughput` — one call of ``operation`` per input element
  (the scalar datapath);
* :func:`measure_batch_throughput` — inputs are chunked and ``operation``
  receives whole chunks (the batch datapath); the result still counts
  *items*, not chunks, so the two modes are directly comparable.
  :func:`measure_chunk_throughput` times chunks the caller built, such as
  the ``int64`` slices the batch datapath ingests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class ThroughputResult:
    """Result of one throughput measurement."""

    operations: int
    seconds: float

    @property
    def ops_per_second(self) -> float:
        """Raw operations per second.

        Zero operations yield ``0.0`` (an empty measurement has no
        throughput); a positive operation count against a timer reading of
        zero (possible at very coarse timer resolution) yields ``inf``.
        """
        if self.operations == 0:
            return 0.0
        if self.seconds <= 0:
            return float("inf")
        return self.operations / self.seconds

    @property
    def mops(self) -> float:
        """Million operations per second (the paper's Mpps unit).

        Inherits the degenerate-case behaviour of :attr:`ops_per_second`
        (0.0 for empty measurements, inf for zero elapsed time).
        """
        return self.ops_per_second / 1e6


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of per-operation latencies, in milliseconds.

    The serving layer's closed-loop measurements (one outstanding request)
    report p50/p99 of *service* latency — there is no queueing delay to
    conflate.  An empty sample yields all-zero summaries rather than NaNs,
    so JSON artifacts stay clean for write-only runs.
    """

    count: int
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float

    @classmethod
    def from_seconds(cls, latencies_seconds: Sequence[float]) -> "LatencySummary":
        """Summarise raw per-operation wall-clock samples (seconds)."""
        import numpy as np

        if not len(latencies_seconds):
            return cls(count=0, p50_ms=0.0, p99_ms=0.0, mean_ms=0.0, max_ms=0.0)
        samples_ms = np.asarray(latencies_seconds, dtype=np.float64) * 1e3
        return cls(
            count=int(samples_ms.size),
            p50_ms=float(np.percentile(samples_ms, 50)),
            p99_ms=float(np.percentile(samples_ms, 99)),
            mean_ms=float(samples_ms.mean()),
            max_ms=float(samples_ms.max()),
        )


@dataclass(frozen=True)
class ShardLoadReport:
    """Per-shard ingest accounting of one sharded measurement.

    ``items_per_shard`` is the number of items each shard ingested (the
    ``ShardedSketch.items_per_shard`` series) and ``seconds`` the wall-clock
    of the whole sharded run.  Per-shard throughput attributes each shard's
    item count to the common wall-clock — the rate at which that shard's
    partition was ingested — so the figures stay comparable with the
    unsharded items-per-second numbers.
    """

    items_per_shard: tuple[int, ...]
    seconds: float

    @property
    def total_items(self) -> int:
        return sum(self.items_per_shard)

    @property
    def per_shard_ips(self) -> tuple[float, ...]:
        """Items/second contributed by each shard over the measured window."""
        if self.seconds <= 0:
            return tuple(float("inf") if count else 0.0 for count in self.items_per_shard)
        return tuple(count / self.seconds for count in self.items_per_shard)

    @property
    def load_imbalance(self) -> float:
        """Max/mean shard load — 1.0 is a perfectly balanced partition.

        The partition hash splits keys, not items, so a skewed stream (one
        elephant key) shows up here as imbalance; the paper-style Zipf
        workloads typically stay within a few percent of 1.0.
        """
        if not self.items_per_shard or self.total_items == 0:
            return 1.0
        mean = self.total_items / len(self.items_per_shard)
        return max(self.items_per_shard) / mean


def shard_load_report(items_per_shard: Sequence[int], seconds: float) -> ShardLoadReport:
    """Build a :class:`ShardLoadReport` from raw shard counts and wall-clock."""
    return ShardLoadReport(tuple(int(count) for count in items_per_shard), seconds)


def measure_throughput(operation: Callable[[object], object], inputs: Iterable[object]) -> ThroughputResult:
    """Apply ``operation`` to every element of ``inputs`` and time the loop.

    The inputs are materialised before timing starts so that generator cost is
    excluded from the measurement.
    """
    materialised = list(inputs)
    start = time.perf_counter()
    for element in materialised:
        operation(element)
    elapsed = time.perf_counter() - start
    return ThroughputResult(operations=len(materialised), seconds=elapsed)


def measure_batch_throughput(
    operation: Callable[[Sequence[object]], object],
    inputs: Iterable[object],
    chunk_size: int,
) -> ThroughputResult:
    """Chunk ``inputs`` and time one ``operation`` call per chunk.

    ``operation`` receives each chunk as a list (e.g. a lambda forwarding to
    ``Sketch.insert_batch``).  Inputs are materialised and chunked before
    timing starts, mirroring :func:`measure_throughput`, and the reported
    operation count is the number of *items* so scalar and batch results are
    directly comparable.
    """
    from repro.streams.items import chunked

    materialised = list(inputs)
    return measure_chunk_throughput(
        operation, list(chunked(materialised, chunk_size)), len(materialised)
    )


def measure_chunk_throughput(
    operation: Callable[[object], object], chunks: Sequence[object], items: int
) -> ThroughputResult:
    """Time one ``operation`` call per pre-built chunk, counting ``items``.

    For chunks that are not plain item lists — ``(keys, values)`` array
    slices, say — built by the caller before timing starts; ``items`` is
    the number of items they hold together.
    """
    start_time = time.perf_counter()
    for chunk in chunks:
        operation(chunk)
    elapsed = time.perf_counter() - start_time
    return ThroughputResult(operations=items, seconds=elapsed)
