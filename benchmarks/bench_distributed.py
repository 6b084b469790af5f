"""Distributed-ingest benchmark — per-transport cost of going remote.

Three measurements, written to ``BENCH_distributed.json``:

1. **Serialization overhead** — pure wire cost, no transport: encode and
   decode every chunk of the stream through
   ``repro.distributed.wire.encode_batch``/``decode_batch`` and record
   items/sec and wire bytes per item.  This bounds what any backend can
   lose to the wire format itself.
2. **Per-transport ingest** — for each backend (``inproc`` queue, ``pipe``
   processes, ``tcp`` sockets) and each benchmarked algorithm, run the full
   coordinator -> workers -> collector pipeline and record ingest
   throughput, wire volume in both directions, tree-merge latency and the
   ``bit_identical`` flag against a single-node sketch fed the same stream
   (CM/Count must be exact; CU records its documented never-underestimates
   guarantee instead).
3. **Single-node baseline** — the same stream batch-inserted into one local
   sketch, so every transport row reads as a ratio against staying local.
4. **Reshard under load** — the dynamic fleet splits its busiest worker a
   third of the way into the stream and folds it back at two thirds;
   recorded against a quiet dynamic fleet: items/s dip, per-handoff
   latency, the epoch trail, and ``bit_identical`` against a local static
   ``partitions``-shard fleet (the no-failure reshard path must not move a
   single counter).

Correctness here is pinned by ``tests/distributed/``; the JSON is a pure
performance artifact.  Read it against ``environment.cpu_count`` — on a
single-core container the process-backed ``pipe`` backend cannot overlap
with the coordinator, so its ratio is a floor, not a verdict (see
``docs/benchmarks.md``).

Not collected by pytest (the module name avoids the ``test_`` prefix); run
it directly::

    PYTHONPATH=src python benchmarks/bench_distributed.py
    PYTHONPATH=src python benchmarks/bench_distributed.py --count 20000 --transports inproc
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

from repro.distributed.ingest import run_distributed_ingest
from repro.distributed.wire import decode_batch, encode_batch
from repro.metrics.throughput import measure_batch_throughput
from repro.sketches.registry import build_sketch
from repro.sketches.sharded import ShardedSketch
from repro.streams.items import chunked
from repro.streams.synthetic import zipf_stream

ALGORITHMS = ("CM_fast", "CU_fast", "Count")
DEFAULT_TRANSPORTS = ("inproc", "pipe", "tcp")

DEFAULT_COUNT = 400_000
DEFAULT_SKEW = 1.1
DEFAULT_CHUNK = 8192
DEFAULT_MEMORY_BYTES = 64 * 1024
DEFAULT_WORKERS = 4


def bench_serialization(items, chunk_size: int) -> dict:
    """Pure wire cost: encode/decode every chunk, no transport in the loop."""
    chunks = [
        ([key for key, _ in chunk], [value for _, value in chunk])
        for chunk in chunked(items, chunk_size)
    ]
    start = time.perf_counter()
    payloads = [encode_batch(keys, values) for keys, values in chunks]
    encode_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for payload in payloads:
        decode_batch(payload)
    decode_seconds = time.perf_counter() - start

    wire_bytes = sum(len(payload) for payload in payloads)
    return {
        "chunk_size": chunk_size,
        "chunks": len(chunks),
        "encode_seconds": encode_seconds,
        "decode_seconds": decode_seconds,
        "encode_items_per_s": len(items) / max(encode_seconds, 1e-9),
        "decode_items_per_s": len(items) / max(decode_seconds, 1e-9),
        "wire_bytes": wire_bytes,
        "bytes_per_item": wire_bytes / max(len(items), 1),
    }


def bench_transport(transport: str, name: str, items, keys, truth, single,
                    single_ips: float, memory_bytes: float, workers: int,
                    chunk_size: int, seed: int) -> dict:
    """One full coordinator->workers->collector run over one backend."""
    result = run_distributed_ingest(
        name, memory_bytes, items,
        workers=workers, transport=transport, chunk_size=chunk_size, seed=seed,
    )
    ingest_ips = result.total_items / max(result.ingest_seconds, 1e-9)
    row = {
        "transport": transport,
        "algorithm": name,
        "workers": workers,
        "ingest_seconds": result.ingest_seconds,
        "ingest_ips": ingest_ips,
        "single_node_ips": single_ips,
        "distributed_vs_single": ingest_ips / max(single_ips, 1e-9),
        "merge_seconds": result.merge_seconds,
        "bytes_sent": result.bytes_sent,
        "bytes_received": result.bytes_received,
        "items_per_worker": list(result.items_per_worker),
    }
    if result.merged is not None:
        merged_answers = result.merged.query_batch(keys)
        row["bit_identical"] = bool((merged_answers == single.query_batch(keys)).all())
        if name.startswith("CU"):
            # CU's merge is an upper bound by contract, not bit-identical:
            # the meaningful regression signal is "never below the exact
            # counts" (comparing against the routed answers would be true by
            # construction — sums of non-negative tables always dominate).
            row["merge_never_underestimates"] = bool((merged_answers >= truth).all())
    else:
        # Snapshotable but unmergeable (ReliableSketch): the queryable
        # result is the routed sharded view, and the regression signal is
        # its bit-identity against a local sharded ingest of the same
        # stream over the same partition.
        local = ShardedSketch.from_registry(
            name, memory_bytes, workers, seed=seed
        )
        local.insert_stream(items, batch_size=chunk_size)
        row["bit_identical"] = bool(
            (result.sharded().query_batch(keys) == local.query_batch(keys)).all()
        )
        row["merged"] = None
    return row


def bench_reshard(name: str, items, keys, memory_bytes: float, workers: int,
                  partitions: int, chunk_size: int, seed: int) -> dict:
    """Reshard-under-load: live fleet surgery vs the same dynamic fleet at rest.

    Two runs over the identical stream: a quiet dynamic fleet (the baseline)
    and one that splits the busiest worker a third of the way in and folds
    the new worker back at two thirds.  The row records the throughput dip,
    per-handoff latency, the epoch trail, and ``bit_identical`` against a
    local static ``partitions``-shard fleet — the no-failure reshard path
    must not move a single counter.
    """
    from repro.distributed.ingest import run_dynamic_ingest

    quiet = run_dynamic_ingest(
        name, memory_bytes, items,
        workers=workers, partitions=partitions, transport="inproc",
        chunk_size=chunk_size, seed=seed,
    )
    quiet_ips = quiet.total_items / max(quiet.ingest_seconds, 1e-9)

    chunks_total = max(1, -(-len(items) // chunk_size))
    new_ids: list[int] = []

    def split(coordinator):
        busiest = max(
            coordinator.alive_workers(),
            key=lambda w: len(coordinator.router.partitions_of(w)),
        )
        new_ids.append(coordinator.split_worker(busiest))

    def merge(coordinator):
        if new_ids and new_ids[-1] in coordinator.alive_workers():
            coordinator.merge_workers(
                new_ids[-1], coordinator._least_loaded(exclude={new_ids[-1]})
            )

    result = run_dynamic_ingest(
        name, memory_bytes, items,
        workers=workers, partitions=partitions, transport="inproc",
        chunk_size=chunk_size, seed=seed,
        actions={max(1, chunks_total // 3): split,
                 max(2, 2 * chunks_total // 3): merge},
    )
    ingest_ips = result.total_items / max(result.ingest_seconds, 1e-9)

    local = ShardedSketch.from_registry(name, memory_bytes, partitions, seed=seed)
    local.insert_stream(items, batch_size=chunk_size)
    bit_identical = bool(
        (result.sharded().query_batch(keys) == local.query_batch(keys)).all()
    )
    handoff_seconds = [record["seconds"] for record in result.handoffs]
    return {
        "algorithm": name,
        "transport": "inproc",
        "workers": workers,
        "partitions": partitions,
        "ingest_ips": ingest_ips,
        "static_ips": quiet_ips,
        "reshard_vs_static": ingest_ips / max(quiet_ips, 1e-9),
        "handoffs": len(result.handoffs),
        "handoff_seconds_mean": float(np.mean(handoff_seconds)) if handoff_seconds else 0.0,
        "handoff_seconds_max": float(np.max(handoff_seconds)) if handoff_seconds else 0.0,
        "handoff_items_moved": int(sum(r["items"] for r in result.handoffs)),
        "final_epoch": result.epoch,
        "max_outstanding": result.max_outstanding,
        "bit_identical": bit_identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT,
                        help="stream length (default: %(default)s)")
    parser.add_argument("--skew", type=float, default=DEFAULT_SKEW,
                        help="Zipf skew (default: %(default)s)")
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK,
                        help="coordinator chunk size (default: %(default)s)")
    parser.add_argument("--memory-bytes", type=float, default=DEFAULT_MEMORY_BYTES,
                        help="per-worker sketch memory budget (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        help="ingest workers / shards (default: %(default)s)")
    parser.add_argument("--transports", default=",".join(DEFAULT_TRANSPORTS),
                        help="comma-separated backends to benchmark "
                             "(default: %(default)s)")
    parser.add_argument("--algorithms", default=",".join(ALGORITHMS),
                        help="comma-separated registry names (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="hash seed")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_distributed.json",
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)
    transports = tuple(name for name in args.transports.split(",") if name)
    algorithms = tuple(name for name in args.algorithms.split(",") if name)

    stream = zipf_stream(args.count, skew=args.skew, seed=args.seed + 1)
    keys = stream.keys()
    counts = stream.counts()
    truth = np.asarray([counts[key] for key in keys], dtype=np.int64)
    print(
        f"stream: {len(stream)} items, {len(keys)} distinct keys, skew {args.skew}; "
        f"{args.workers} workers, chunk {args.chunk_size}, cpu_count={os.cpu_count()}"
    )

    serialization = bench_serialization(stream, args.chunk_size)
    print(
        f"wire: encode {serialization['encode_items_per_s']:,.0f} items/s, "
        f"decode {serialization['decode_items_per_s']:,.0f} items/s, "
        f"{serialization['bytes_per_item']:.2f} B/item"
    )

    transport_rows = []
    ok = True
    for name in algorithms:
        single = build_sketch(name, args.memory_bytes, seed=args.seed)
        single_insert = measure_batch_throughput(
            lambda chunk, s=single: s.insert_batch(
                [key for key, _ in chunk], [value for _, value in chunk]
            ),
            stream,
            args.chunk_size,
        )
        for transport in transports:
            row = bench_transport(
                transport, name, stream, keys, truth, single,
                single_insert.ops_per_second,
                args.memory_bytes, args.workers, args.chunk_size, args.seed,
            )
            transport_rows.append(row)
            if not name.startswith("CU") and not row["bit_identical"]:
                ok = False
            print(
                f"{transport:>7} {name:>8}: {row['ingest_ips']:>10,.0f} items/s "
                f"({row['distributed_vs_single']:.2f}x single-node), "
                f"merge {row['merge_seconds'] * 1e3:.2f} ms, "
                f"wire {row['bytes_sent']:,} B out, "
                f"bit_identical={row['bit_identical']}"
            )

    partitions = max(2 * args.workers, 2)
    reshard_rows = []
    for name in algorithms:
        row = bench_reshard(
            name, stream, keys, args.memory_bytes, args.workers, partitions,
            args.chunk_size, args.seed,
        )
        reshard_rows.append(row)
        if not row["bit_identical"]:
            ok = False
        print(
            f"reshard {name:>8}: {row['ingest_ips']:>10,.0f} items/s "
            f"({row['reshard_vs_static']:.2f}x quiet fleet), "
            f"{row['handoffs']} handoffs "
            f"(mean {row['handoff_seconds_mean'] * 1e3:.2f} ms, "
            f"max {row['handoff_seconds_max'] * 1e3:.2f} ms), "
            f"epoch {row['final_epoch']}, "
            f"bit_identical={row['bit_identical']}"
        )

    payload = {
        "workload": {
            "stream": "zipf",
            "count": args.count,
            "skew": args.skew,
            "distinct_keys": len(keys),
            "chunk_size": args.chunk_size,
            "memory_bytes": args.memory_bytes,
            "workers": args.workers,
            "seed": args.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "serialization": serialization,
        "transports": transport_rows,
        "reshard": reshard_rows,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not ok:
        print("ERROR: a distributed run diverged from its local reference "
              "(merge vs single-node, or reshard vs static fleet)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
