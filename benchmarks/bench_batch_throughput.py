"""Scalar vs. batch datapath throughput — the perf trajectory tracker.

Runs every sketch with a vectorized batch datapath (CM, CU, Count,
ReliableSketch with and without the mice filter) over the same Zipfian
stream twice — once through the scalar ``insert``/``query`` loop, once
through ``insert_batch``/``query_batch`` in fixed-size chunks — and writes
the items/sec numbers plus speedups to ``BENCH_throughput.json``.

Every input is built before its clock starts.  The scalar loop inserts
``(key, value)`` pairs taken from the stream's arrays and queries the
distinct keys one by one; the batch side inserts the ``int64`` key and
value slices :func:`~repro.streams.items.iter_key_value_chunks` cuts from
the stream and queries ``int64`` slices of the distinct keys — the chunks
every real fill hands to ``insert_batch`` — timed through
:func:`~repro.metrics.throughput.measure_chunk_throughput`.

Because batch and scalar paths are bit-identical, the JSON is a pure
performance artifact: regenerate it after any datapath change and compare
against the committed numbers to see the trajectory.

Not collected by pytest (the module name avoids the ``test_`` prefix); run
it directly::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py
    PYTHONPATH=src python benchmarks/bench_batch_throughput.py --count 100000
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from repro.metrics.throughput import measure_chunk_throughput, measure_throughput
from repro.sketches.registry import build_sketch
from repro.streams.items import iter_key_value_chunks
from repro.streams.synthetic import zipf_stream

#: Algorithms with a vectorized batch datapath (ReliableSketch's bucket
#: updates run through the conflict-free update kernels).
ALGORITHMS = ("CM_fast", "CU_fast", "Count", "Ours(Raw)", "Ours")

DEFAULT_COUNT = 1_000_000
DEFAULT_SKEW = 1.1
DEFAULT_CHUNK = 65_536
DEFAULT_MEMORY_BYTES = 64 * 1024


def bench_algorithm(
    name: str, items, keys, insert_chunks, key_chunks, memory_bytes: float, seed: int
) -> dict:
    """Measure one algorithm's insert and query throughput on both paths.

    ``items`` and ``keys`` feed the scalar loop; ``insert_chunks`` (``(keys,
    values)`` ``int64`` slices) and ``key_chunks`` (``int64`` slices of
    ``keys``) feed the batch path.
    """
    scalar_sketch = build_sketch(name, memory_bytes, seed=seed)
    scalar_insert = measure_throughput(
        lambda item, s=scalar_sketch: s.insert(item[0], item[1]), items
    )
    scalar_query = measure_throughput(lambda key, s=scalar_sketch: s.query(key), keys)

    batch_sketch = build_sketch(name, memory_bytes, seed=seed)
    batch_insert = measure_chunk_throughput(
        lambda chunk, s=batch_sketch: s.insert_batch(*chunk), insert_chunks, len(items)
    )
    batch_query = measure_chunk_throughput(batch_sketch.query_batch, key_chunks, len(keys))

    return {
        "algorithm": name,
        "scalar_insert_ips": scalar_insert.ops_per_second,
        "batch_insert_ips": batch_insert.ops_per_second,
        "insert_speedup": batch_insert.ops_per_second / scalar_insert.ops_per_second,
        "scalar_query_ips": scalar_query.ops_per_second,
        "batch_query_ips": batch_query.ops_per_second,
        "query_speedup": batch_query.ops_per_second / scalar_query.ops_per_second,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT,
                        help="stream length (default: %(default)s)")
    parser.add_argument("--skew", type=float, default=DEFAULT_SKEW,
                        help="Zipf skew (default: %(default)s)")
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK,
                        help="batch chunk size (default: %(default)s)")
    parser.add_argument("--memory-bytes", type=float, default=DEFAULT_MEMORY_BYTES,
                        help="per-sketch memory budget (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="hash seed")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_throughput.json",
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)

    stream = zipf_stream(args.count, skew=args.skew, seed=args.seed + 1)
    items = list(zip(stream.key_array.tolist(), stream.value_array.tolist()))
    keys = stream.keys()
    insert_chunks = list(iter_key_value_chunks(stream, args.chunk_size))
    distinct = np.asarray(keys, dtype=np.int64)
    key_chunks = [
        distinct[start : start + args.chunk_size]
        for start in range(0, len(distinct), args.chunk_size)
    ]
    print(f"stream: {len(items)} items, {len(keys)} distinct keys, skew {args.skew}")

    results = []
    for name in ALGORITHMS:
        row = bench_algorithm(
            name, items, keys, insert_chunks, key_chunks, args.memory_bytes, args.seed
        )
        results.append(row)
        print(
            f"{name:>10}: insert {row['scalar_insert_ips']:>10.0f} -> "
            f"{row['batch_insert_ips']:>10.0f} items/s ({row['insert_speedup']:.1f}x)   "
            f"query {row['scalar_query_ips']:>10.0f} -> {row['batch_query_ips']:>10.0f} "
            f"items/s ({row['query_speedup']:.1f}x)"
        )

    payload = {
        "workload": {
            "stream": "zipf",
            "count": args.count,
            "skew": args.skew,
            "distinct_keys": len(keys),
            "chunk_size": args.chunk_size,
            "memory_bytes": args.memory_bytes,
            "seed": args.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
