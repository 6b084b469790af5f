"""Speed experiments: Figure 10 (throughput) and Figure 16 (hash calls).

Absolute throughput in pure Python is not comparable to the paper's C++
numbers; the harness therefore reports *relative* throughput between
algorithms measured back to back on the same stream, plus the
platform-independent operation count of Figure 16 (average number of hash
function calls per insert / query), which is the paper's own explanation of
the speed trends.

Timing runs are never process-parallel (concurrent measurement would distort
the numbers); the ``workers`` knob of :func:`hash_call_profile` is safe
because hash-call counting is deterministic regardless of scheduling.  The
``shards`` knob of :func:`throughput_comparison` measures the sharded-ingest
datapath and attaches per-shard load accounting to each row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.datasets import DEFAULT_SCALE, dataset, scaled_memory_points
from repro.experiments.parallel import parallel_map
from repro.metrics.memory import BYTES_PER_MB
from repro.metrics.throughput import (
    ShardLoadReport,
    measure_chunk_throughput,
    measure_throughput,
    shard_load_report,
)
from repro.sketches.registry import build_sketch, competitor_names
from repro.sketches.sharded import ShardedSketch
from repro.streams.items import iter_key_value_chunks


@dataclass(frozen=True)
class ThroughputRow:
    """One bar pair of Figure 10: insert and query throughput of one algorithm.

    ``shard_load`` is attached when the measurement ran on the sharded
    datapath (``shards > 1``): per-shard item counts, per-shard items/sec and
    the partition's load-imbalance factor.
    """

    algorithm: str
    insert_mops: float
    query_mops: float
    shard_load: ShardLoadReport | None = None


@dataclass(frozen=True)
class HashCallCurve:
    """One line of Figure 16: average hash calls per operation vs memory."""

    algorithm: str
    memory_bytes: list[float]
    insert_calls: list[float]
    query_calls: list[float]


def throughput_comparison(
    dataset_name: str = "ip",
    memory_megabytes: float = 1.0,
    scale: float = DEFAULT_SCALE,
    algorithms: tuple[str, ...] | None = None,
    seed: int = 0,
    batch_size: int | None = None,
    shards: int = 1,
) -> list[ThroughputRow]:
    """Insertion and query throughput of every algorithm (Figure 10).

    With ``batch_size`` set, both inserts and queries run through the batch
    datapath (``insert_batch`` / ``query_batch``) in chunks of that size,
    built before the clock starts: ``int64`` key and value slices for int
    streams, as the batch datapath ingests them, and key lists otherwise.
    The reported unit is still items per second, so scalar and batch runs
    are directly comparable.  With ``shards > 1`` every sketch is a
    hash-partitioned :class:`ShardedSketch` and each row carries a
    :class:`ShardLoadReport` of the partition.
    """
    stream = dataset(dataset_name, scale=scale, seed=seed + 1)
    memory_bytes = scaled_memory_points([memory_megabytes], scale)[0]
    algorithms = algorithms or competitor_names("speed")
    keys = stream.keys()
    if batch_size is not None:
        insert_chunks = list(iter_key_value_chunks(stream, batch_size))
        query_keys = keys if stream.key_array.dtype == object else np.asarray(keys, dtype=np.int64)
        query_chunks = [
            query_keys[start : start + batch_size] for start in range(0, len(keys), batch_size)
        ]

    rows: list[ThroughputRow] = []
    for name in algorithms:
        if shards > 1:
            sketch = ShardedSketch.from_registry(name, memory_bytes, shards, seed=seed)
        else:
            sketch = build_sketch(name, memory_bytes, seed=seed)
        if batch_size is None:
            insert_result = measure_throughput(
                lambda item, s=sketch: s.insert(item.key, item.value), stream
            )
            query_result = measure_throughput(lambda key, s=sketch: s.query(key), keys)
        else:
            insert_result = measure_chunk_throughput(
                lambda chunk, s=sketch: s.insert_batch(*chunk), insert_chunks, len(stream)
            )
            query_result = measure_chunk_throughput(sketch.query_batch, query_chunks, len(keys))
        load = (
            shard_load_report(sketch.items_per_shard, insert_result.seconds)
            if isinstance(sketch, ShardedSketch)
            else None
        )
        rows.append(
            ThroughputRow(
                algorithm=name,
                insert_mops=insert_result.mops,
                query_mops=query_result.mops,
                shard_load=load,
            )
        )
    return rows


@dataclass(frozen=True)
class _HashCallContext:
    """Shared state of the parallel hash-call grid (Figure 16)."""

    dataset_name: str
    scale: float
    seed: int


def _hash_call_task(
    shared: _HashCallContext, task: tuple[str, float]
) -> tuple[float, float]:
    """One (algorithm, memory) cell: average hash calls per insert and query."""
    name, memory = task
    stream = dataset(shared.dataset_name, scale=shared.scale, seed=shared.seed + 1)
    keys = stream.keys()
    sketch = build_sketch(name, memory, seed=shared.seed)
    sketch.reset_hash_calls()
    sketch.insert_stream(stream)
    insert_calls = sketch.hash_calls() / len(stream)
    sketch.reset_hash_calls()
    for key in keys:
        sketch.query(key)
    query_calls = sketch.hash_calls() / max(1, len(keys))
    return insert_calls, query_calls


def hash_call_profile(
    dataset_name: str = "ip",
    scale: float = DEFAULT_SCALE,
    memory_points: list[float] | None = None,
    algorithms: tuple[str, ...] = ("Ours", "Ours(Raw)", "CM_fast"),
    seed: int = 0,
    workers: int = 1,
) -> list[HashCallCurve]:
    """Average number of hash calls per insert and per query (Figure 16).

    The paper shows ReliableSketch's raw variant converging to 1 call per
    operation as memory grows (almost everything settles in layer 1), the
    mice-filter variant converging to 3 (2 extra calls in the filter), and
    CM staying flat at its array count.  Hash-call counts are exact integers
    independent of scheduling, so the parallel grid matches the sequential
    one.
    """
    if memory_points is None:
        memory_points = scaled_memory_points([0.5, 1.0, 2.0, 3.0, 4.0], scale)

    tasks = [(name, memory) for name in algorithms for memory in memory_points]
    context = _HashCallContext(dataset_name, scale, seed)
    cells = parallel_map(_hash_call_task, tasks, workers=workers, shared=context)
    by_cell = dict(zip(tasks, cells))
    return [
        HashCallCurve(
            name,
            list(memory_points),
            [by_cell[(name, memory)][0] for memory in memory_points],
            [by_cell[(name, memory)][1] for memory in memory_points],
        )
        for name in algorithms
    ]


def paper_scale_memory(memory_megabytes: float) -> float:
    """Convenience: a paper-scale memory budget in bytes (no scaling)."""
    return memory_megabytes * BYTES_PER_MB
