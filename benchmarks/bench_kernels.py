"""Conflict-free update kernels vs. per-item insertion.

Measures, for every order-dependent family ported onto the kernel
subsystem (CU, ReliableSketch with and without the mice filter, Elastic,
Coco, HashPipe, PRECISION) and for both kernel backends (``python-replay``
and ``numpy-grouped``), the batch-insert and batch-query throughput over
the same Zipfian workload ``bench_batch_throughput.py`` uses — and
verifies on the *full stream* that each backend leaves the sketch
bit-identical to the scalar insert loop (estimates for every key,
hash-call accounting and, for ReliableSketch, the failure/settling
statistics).

Inserts are timed on the ``int64`` key and value slices that
:func:`~repro.streams.items.iter_key_value_chunks` cuts from the stream
before the clock starts — the chunks every real fill hands to
``insert_batch``.  Queries are timed the same way, on ``int64`` slices of
the distinct keys built before the clock starts.

Two in-run baselines anchor the speedups.  The scalar reference fill is
*timed* (``per_item_insert_ips``): it inserts one item at a time through
the public ``insert`` path, exactly the pre-kernel datapath of the ported
families, so ``speedup_vs_per_item`` measures what the batch engines buy
over per-item replay.  The ``python-replay`` rows double as a batch
baseline (per-item kernel replay behind the batch front end).

Not collected by pytest (the module name avoids the ``test_`` prefix); run
it directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --count 100000
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ReliableSketch
from repro.kernels import BACKEND_NAMES, use_backend
from repro.metrics.throughput import ThroughputResult
from repro.sketches.registry import build_sketch
from repro.streams.items import iter_key_value_chunks
from repro.streams.synthetic import zipf_stream

#: Families whose order-dependent inner loops run on the kernel subsystem.
#: ``CU_acc`` is the deep-sketch configuration (d=16, the paper's accurate
#: variant): same kernels as ``CU_fast``, 16 interfering rows instead of 3 —
#: the stress case for the fixpoint relaxation noted as unbenchmarked in the
#: ROADMAP.  Coco, HashPipe and PRECISION are the pipeline competitors
#: ported in the final kernel batch: probabilistic replacement, eviction
#: walks and probabilistic recirculation respectively.
FAMILIES = (
    "CU_fast", "CU_acc", "Ours", "Ours(Raw)", "Elastic",
    "Coco", "HashPipe", "PRECISION",
)

DEFAULT_COUNT = 1_000_000
DEFAULT_SKEW = 1.1
DEFAULT_CHUNK = 65_536
DEFAULT_MEMORY_BYTES = 64 * 1024


def _fill_batched(sketch, chunks, count: int) -> ThroughputResult:
    """Time ``insert_batch`` over pre-built ``(keys, values)`` chunks."""
    start = time.perf_counter()
    for keys, values in chunks:
        sketch.insert_batch(keys, values)
    return ThroughputResult(operations=count, seconds=time.perf_counter() - start)


def _query_batched(sketch, key_chunks, count: int) -> ThroughputResult:
    """Time ``query_batch`` over pre-built ``int64`` key slices."""
    start = time.perf_counter()
    for keys in key_chunks:
        sketch.query_batch(keys)
    return ThroughputResult(operations=count, seconds=time.perf_counter() - start)


def _bit_identical(reference, expected, insert_calls, candidate, keys) -> bool:
    """Full-stream equivalence: estimates, insert hash calls, statistics.

    ``expected`` and ``insert_calls`` are the reference's estimates and
    post-fill hash-call counter, captured once per family; the candidate's
    counter is read before its own queries so both sides count exactly the
    insert-time hashing.
    """
    if candidate.hash_calls() != insert_calls:
        return False
    if not bool((candidate.query_batch(keys) == expected).all()):
        return False
    if isinstance(reference, ReliableSketch):
        if reference.insert_failures != candidate.insert_failures:
            return False
        if reference.inserts_settled_per_layer != candidate.inserts_settled_per_layer:
            return False
    # PRECISION's public recirculation counter is part of its observable
    # state and must survive the kernel port.
    if getattr(reference, "recirculations", None) != getattr(
        candidate, "recirculations", None
    ):
        return False
    return True


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
                        default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json",
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)

    stream = zipf_stream(args.count, skew=args.skew, seed=args.seed + 1)
    items = list(zip(stream.key_array.tolist(), stream.value_array.tolist()))
    chunks = list(iter_key_value_chunks(stream, args.chunk_size))
    keys = stream.keys()
    distinct = np.asarray(keys, dtype=np.int64)
    key_chunks = [
        distinct[start : start + args.chunk_size]
        for start in range(0, len(distinct), args.chunk_size)
    ]
    query_keys = keys + [10**9 + i for i in range(25)]
    # Measure the replay baseline first so the default backend can report
    # its speedup against it.
    backends = sorted(BACKEND_NAMES, key=lambda name: name != "python-replay")
    print(
        f"stream: {len(items)} items, {len(keys)} distinct keys, skew {args.skew}; "
        f"backends: {', '.join(backends)}"
    )

    results = []
    for family in FAMILIES:
        # One scalar-filled reference per family anchors the bit-identity
        # checks of every backend; timing it yields the per-item baseline
        # (the pre-kernel datapath inserted exactly like this loop).
        reference = build_sketch(family, args.memory_bytes, seed=args.seed)
        start = time.perf_counter()
        for key, value in items:
            reference.insert(key, value)
        per_item_ips = len(items) / (time.perf_counter() - start)
        insert_calls = reference.hash_calls()
        expected = reference.query_batch(query_keys)
        replay_ips = None
        for backend in backends:
            with use_backend(backend):
                sketch = build_sketch(family, args.memory_bytes, seed=args.seed)
            insert = _fill_batched(sketch, chunks, len(items))
            identical = _bit_identical(reference, expected, insert_calls, sketch, query_keys)
            query = _query_batched(sketch, key_chunks, len(keys))
            row = {
                "family": family,
                "backend": backend,
                "insert_ips": insert.ops_per_second,
                "query_ips": query.ops_per_second,
                "bit_identical": identical,
                "per_item_insert_ips": per_item_ips,
                "speedup_vs_per_item": insert.ops_per_second / per_item_ips,
            }
            if backend == "python-replay":
                replay_ips = insert.ops_per_second
            if replay_ips:
                row["speedup_vs_python_replay"] = insert.ops_per_second / replay_ips
            results.append(row)
            print(
                f"{family:>10} {backend:>14}: insert {insert.ops_per_second:>10.0f} items/s"
                f" ({row['speedup_vs_per_item']:.1f}x vs per-item)"
                f"  query {query.ops_per_second:>10.0f} items/s"
                + ("" if identical else "  BIT-IDENTITY FAILED")
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
    return 0 if all(row["bit_identical"] for row in results) else 1


if __name__ == "__main__":
    sys.exit(main())
