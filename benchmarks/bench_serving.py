"""Online-serving benchmark — closed loop plus concurrency sweep.

**Closed loop** (the original section): for every algorithm, serves one
service behind the TCP event loop of ``repro-cli serve``
(:class:`~repro.serve.async_server.AsyncSketchServer`, on a background
thread) and drives it over loopback TCP with the closed-loop load generator
(:mod:`repro.serve.loadgen`): a Zipf key mix at a configurable read/write
ratio, one outstanding operation at a time.  Each row of
``BENCH_serving.json`` records:

* sustained operations/sec, read qps and ingest items/sec;
* read latency p50/p99/mean (closed-loop service latency, milliseconds);
* staleness — items between epoch publishes (mean/max) and the number of
  epochs rotated during the run;
* ``epoch_consistent`` — both correctness signals of the load generator
  held: repeat reads within one epoch were bit-identical (no torn reads)
  and the final epoch's answers equal a local reference sketch fed the
  identical write stream (CI asserts this flag on every row);
* ``drained`` and ``frame_errors`` — the server's own shutdown stats: the
  drain finished and no malformed frame arrived.

**Concurrency** (the ``"concurrency"`` section): pre-loads one service,
then sweeps client counts over tcp against the selector event loop that
serves it (:class:`~repro.serve.async_server.AsyncSketchServer`, the
``repro-cli serve`` front end).  Each client-count row runs the open-loop
generator twice:

* *blast mode* (``target_qps=0``) — saturation throughput
  (``saturation_qps``): every client streams pipelined requests as fast as
  the socket accepts them;
* *paced mode* — Poisson arrivals at an offered load (default: half the
  measured saturation), reporting schedule-relative latency p50/p99/p99.9
  — the open-loop convention, so queueing delay counts.

Every row also carries the BUSY admission-control counters, the server's
own drain and frame-error stats, and the same ``epoch_consistent`` flag
(cross-client same-epoch agreement plus final bit-identity against a local
reference), including across epoch publishes forced mid-run.

**Temporal** (the ``"temporal"`` section): for each subtractable family,
drives enough epoch publishes through a bounded ring to force evictions,
then measures read qps three ways against the same in-process service —
latest-epoch reads, reads pinned to a ring-resident historical epoch
(``epoch=``), and sliding-window reads (``window=``, answered by the
mergeable-family delta).  Each row verifies temporal correctness before
timing anything: the pinned answers are bit-identical to the pinned
snapshot's own (including after a further publish-and-evict), and the
windowed answers equal the exact pinned subtraction — recorded as the
row's ``epoch_consistent`` flag.  The row also counts successful epoch
pins and typed ``EPOCH_GONE`` rejections (CI asserts at least one of
each), and isolates ring-eviction overhead by timing the identical
publish schedule against a single-epoch ring.

**Warm restart** (the ``"warm_restart"`` section): ingests a stream into
a service backed by a durable store (``--store``), kills it *without*
flushing, then measures restart-to-first-answer — recover the newest
checksummed snapshot plus the WAL tail — against rebuilding the same
state by replaying the full stream from scratch.  Each row asserts
``bit_identical``: the restarted service's answers equal the replayed
reference's exactly (CI gates on this flag, like ``epoch_consistent``).

Not collected by pytest (the module name avoids the ``test_`` prefix); run
it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --operations 500 --algorithms Ours
    PYTHONPATH=src python benchmarks/bench_serving.py --skip-closed-loop \\
        --concurrency-clients 1,8 --concurrency-requests 400
    PYTHONPATH=src python benchmarks/bench_serving.py --skip-closed-loop \\
        --skip-concurrency --warm-restart-items 100000
    PYTHONPATH=src python benchmarks/bench_serving.py --skip-closed-loop \\
        --skip-concurrency --skip-warm-restart --temporal-reads 500
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from repro.serve.async_server import AsyncServingSession
from repro.serve.errors import EpochGoneError
from repro.serve.loadgen import (
    LoadGenConfig,
    OpenLoopConfig,
    run_loadgen,
    run_open_loop,
)
from repro.serve.server import ServeConfig
from repro.sketches.registry import build_sketch
from repro.streams.synthetic import ZipfGenerator

#: Families benchmarked by default: the cheapest mergeable baseline, the
#: order-dependent CU, and the paper's sketch — all snapshot-rotated.
ALGORITHMS = ("CM_fast", "CU_fast", "Ours")

DEFAULT_OPERATIONS = 4000
DEFAULT_READ_RATIO = 0.5
DEFAULT_WRITE_BATCH = 256
DEFAULT_READ_BATCH = 64
DEFAULT_SKEW = 1.1
DEFAULT_UNIVERSE = 10_000
DEFAULT_MEMORY_BYTES = 64 * 1024
DEFAULT_PUBLISH_EVERY = 8192

# --- concurrency-section defaults -----------------------------------------
DEFAULT_CONCURRENCY_CLIENTS = (1, 8)
DEFAULT_CONCURRENCY_REQUESTS = 600
DEFAULT_CONCURRENCY_READ_BATCH = 16
DEFAULT_CONCURRENCY_ALGORITHM = "Ours"
DEFAULT_PRELOAD_ITEMS = 20_000

# --- temporal-section defaults ---------------------------------------------
#: Only subtractable families answer windowed reads, so the temporal sweep
#: defaults to the two delta-capable baselines rather than ``ALGORITHMS``.
DEFAULT_TEMPORAL_ALGORITHMS = ("CM_fast", "Count")
DEFAULT_TEMPORAL_READS = 2000
DEFAULT_TEMPORAL_RING_EPOCHS = 8
DEFAULT_TEMPORAL_WINDOW = 4
DEFAULT_TEMPORAL_EPOCH_ITEMS = 2000

TEMPORAL_ONE_CORE_NOTE = (
    "single-core container: the benchmark loop and the service time-slice "
    "one CPU, so compare the modes' relative qps (pinned/windowed vs "
    "latest) and treat absolute rates and the eviction-overhead ratio as "
    "indicative, not parallel-hardware numbers (see docs/benchmarks.md)"
)


def bench_closed_loop(algorithm: str, args) -> dict:
    """One closed-loop load-generation run against one served sketch."""
    serve_config = ServeConfig(
        algorithm,
        args.memory_bytes,
        seed=args.seed,
        publish_every_items=args.publish_every,
    )
    load_config = LoadGenConfig(
        operations=args.operations,
        read_ratio=args.read_ratio,
        write_batch=args.write_batch,
        read_batch=args.read_batch,
        skew=args.skew,
        universe=args.universe,
        seed=args.seed,
    )
    reference = build_sketch(algorithm, args.memory_bytes, seed=args.seed)
    session = AsyncServingSession(serve_config.build_service())
    try:
        client = session.connect()
        report = run_loadgen(client, load_config, reference=reference)
        client.close()
    finally:
        stats = session.shutdown()
    return {
        "transport": "tcp",
        "algorithm": algorithm,
        **report.to_row(),
        "bytes_sent": client.bytes_sent,
        "bytes_received": client.bytes_received,
        "drained": stats.drained,
        "frame_errors": stats.frame_errors,
    }


# ---------------------------------------------------------------------------
# Concurrency sweep: the async event loop under 1..N clients, over tcp.


def _preloaded_service(algorithm: str, args):
    """A service pre-loaded with a Zipf stream, plus its local reference."""
    serve_config = ServeConfig(
        algorithm,
        args.memory_bytes,
        seed=args.seed,
        publish_every_items=args.publish_every,
    )
    service = serve_config.build_service()
    reference = build_sketch(algorithm, args.memory_bytes, seed=args.seed)
    zipf = ZipfGenerator(args.skew, universe=args.universe, seed=args.seed + 7)
    keys = zipf.draw(args.preload_items).tolist()
    service.ingest(keys)
    reference.insert_batch(keys)
    service.flush()
    return service, reference


def bench_concurrency_row(clients: int, algorithm: str, args) -> dict:
    """One client-count row: a blast run then a paced run."""
    service, reference = _preloaded_service(algorithm, args)
    session = AsyncServingSession(service, max_inflight=args.max_inflight)
    # Rotate epochs mid-run: consistency must hold across publishes.
    flushes = 2
    blast_config = OpenLoopConfig(
        clients=clients,
        requests_per_client=args.concurrency_requests,
        target_qps=0.0,
        read_batch=args.concurrency_read_batch,
        skew=args.skew,
        universe=args.universe,
        seed=args.seed,
        flushes_during_run=flushes,
    )
    blast = run_open_loop(session.connect, blast_config, reference=reference)
    offered = args.offered_qps if args.offered_qps > 0 else 0.5 * blast.achieved_qps
    paced_config = OpenLoopConfig(
        clients=clients,
        requests_per_client=args.concurrency_requests,
        target_qps=offered,
        read_batch=args.concurrency_read_batch,
        skew=args.skew,
        universe=args.universe,
        seed=args.seed + 1,
        flushes_during_run=flushes,
    )
    paced = run_open_loop(session.connect, paced_config, reference=reference)
    stats = session.shutdown()

    busy = blast.busy_rejected + paced.busy_rejected
    attempts = blast.completed + paced.completed + busy
    return {
        "transport": "tcp",
        "algorithm": algorithm,
        "clients": clients,
        "requests_per_client": args.concurrency_requests,
        "read_batch": args.concurrency_read_batch,
        "saturation_qps": blast.achieved_qps,
        "offered_qps": offered,
        "achieved_qps": paced.achieved_qps,
        "latency_p50_ms": paced.latency_p50_ms,
        "latency_p99_ms": paced.latency_p99_ms,
        "latency_p999_ms": paced.latency_p999_ms,
        "latency_mean_ms": paced.latency_mean_ms,
        "latency_max_ms": paced.latency_max_ms,
        "completed": blast.completed + paced.completed,
        "failed": blast.failed + paced.failed,
        "busy_rejected": busy,
        "busy_retried": blast.busy_retried + paced.busy_retried,
        "busy_rejection_rate": busy / attempts if attempts else 0.0,
        "epoch_consistent": blast.epoch_consistent and paced.epoch_consistent,
        "epochs_observed": max(blast.epochs_observed, paced.epochs_observed),
        "client_errors": blast.client_errors + paced.client_errors,
        "server_stats": stats.to_dict(),
    }


def run_concurrency_section(args) -> dict:
    """The whole sweep: one row per client count."""
    rows = []
    for clients in args.concurrency_client_counts:
        row = bench_concurrency_row(clients, args.concurrency_algorithm, args)
        rows.append(row)
        print(
            f"x{clients:<2} clients: "
            f"saturation {row['saturation_qps']:>8,.0f} qps, "
            f"paced {row['achieved_qps']:,.0f}/{row['offered_qps']:,.0f} qps, "
            f"p50 {row['latency_p50_ms']:.2f} ms, "
            f"p99 {row['latency_p99_ms']:.2f} ms, "
            f"p99.9 {row['latency_p999_ms']:.2f} ms, "
            f"busy rate {row['busy_rejection_rate']:.4f}, "
            f"epoch_consistent={row['epoch_consistent']}"
        )
    return {
        "workload": {
            "algorithm": args.concurrency_algorithm,
            "client_counts": list(args.concurrency_client_counts),
            "requests_per_client": args.concurrency_requests,
            "read_batch": args.concurrency_read_batch,
            "preload_items": args.preload_items,
            "offered_qps": args.offered_qps or "auto (half of saturation)",
            "max_inflight": args.max_inflight,
            "seed": args.seed,
        },
        "results": rows,
    }


# ---------------------------------------------------------------------------
# Warm restart: durable-store recovery vs full stream replay.

WARM_RESTART_ALGORITHMS = ("CM_fast", "Ours")
DEFAULT_WARM_RESTART_ITEMS = 30_000
WARM_RESTART_BATCH = 4096


def bench_warm_restart_row(algorithm: str, args) -> dict:
    """One family: kill a durable service mid-journal, race recovery vs replay."""
    import shutil
    import tempfile
    import time

    directory = tempfile.mkdtemp(prefix="bench-warm-restart-")
    try:
        durable_config = ServeConfig(
            algorithm,
            args.memory_bytes,
            seed=args.seed,
            publish_every_items=args.publish_every,
            store_dir=directory,
        )
        zipf = ZipfGenerator(args.skew, universe=args.universe, seed=args.seed + 13)
        keys = zipf.draw(args.warm_restart_items).tolist()
        service = durable_config.build_service()
        for start in range(0, len(keys), WARM_RESTART_BATCH):
            service.ingest(keys[start : start + WARM_RESTART_BATCH])
        # Kill without flush: recovery must replay the journal tail, not
        # just reload the last published snapshot.
        service.close()

        probe = keys[:64]
        begin = time.perf_counter()
        warm = durable_config.build_service()
        warm_answers = warm.query_batch(probe)
        restart_seconds = time.perf_counter() - begin
        warm_stats = warm.stats()
        warm.close()

        replay_config = ServeConfig(
            algorithm,
            args.memory_bytes,
            seed=args.seed,
            publish_every_items=args.publish_every,
        )
        begin = time.perf_counter()
        replay = replay_config.build_service()
        for start in range(0, len(keys), WARM_RESTART_BATCH):
            replay.ingest(keys[start : start + WARM_RESTART_BATCH])
        replay.flush()
        replay_answers = replay.query_batch(probe)
        replay_seconds = time.perf_counter() - begin

        bit_identical = bool(
            np.array_equal(warm_answers, replay_answers)
            and warm_stats["items_ingested"] == replay.stats()["items_ingested"]
        )
        return {
            "algorithm": algorithm,
            "items": len(keys),
            "publish_every_items": args.publish_every,
            "restart_to_first_answer_seconds": restart_seconds,
            "full_replay_seconds": replay_seconds,
            "replay_over_restart": replay_seconds / max(restart_seconds, 1e-9),
            "recovered_items": warm_stats["items_ingested"],
            "recovered_epoch": warm_stats.get("store", {}).get("last_snapshot_epoch"),
            "bit_identical": bit_identical,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_warm_restart_section(args) -> list[dict]:
    rows = []
    for algorithm in WARM_RESTART_ALGORITHMS:
        row = bench_warm_restart_row(algorithm, args)
        rows.append(row)
        print(
            f"warm restart {algorithm:>8}: "
            f"{row['restart_to_first_answer_seconds'] * 1e3:.1f} ms to first "
            f"answer vs {row['full_replay_seconds'] * 1e3:.1f} ms full replay "
            f"({row['replay_over_restart']:.1f}x), "
            f"{row['recovered_items']} items recovered, "
            f"bit_identical={row['bit_identical']}"
        )
    return rows


# ---------------------------------------------------------------------------
# Temporal section: pinned/windowed reads vs latest-epoch reads, ring churn.


def bench_temporal_row(algorithm: str, args) -> dict:
    """One family: time-travel and window read rates over a churning ring."""
    import time

    ring_epochs = args.temporal_ring_epochs
    epoch_items = args.temporal_epoch_items
    config = ServeConfig(
        algorithm,
        args.memory_bytes,
        seed=args.seed,
        publish_every_items=epoch_items,
        ring_epochs=ring_epochs,
    )
    zipf = ZipfGenerator(args.skew, universe=args.universe, seed=args.seed + 19)
    # Enough publishes past the ring budget that epoch 0 is long evicted,
    # pre-drawn so the eviction-overhead rerun replays the same schedule.
    batches = [zipf.draw(epoch_items).tolist() for _ in range(ring_epochs + 4)]

    service = config.build_service()
    begin = time.perf_counter()
    for batch in batches:
        service.ingest(batch)
    publish_seconds_ring = time.perf_counter() - begin

    resident = service.ring.epochs
    pinned_epoch = resident[len(resident) // 2]
    window = min(args.temporal_window, len(resident) - 1)
    read_keys = zipf.draw(args.read_batch).tolist()
    reads = args.temporal_reads
    epoch_pins = 0

    def pinned_read(epoch):
        nonlocal epoch_pins
        estimates, _ = service.serve_batch(read_keys, epoch=epoch)
        epoch_pins += 1
        return estimates

    # Correctness before timing: pinned answers are bit-identical to the
    # ring snapshot's own, windowed answers are bit-identical to a fresh
    # sketch fed only the window's slice of the stream (the delta is exact
    # at the table level — estimates are min/median'd after subtraction,
    # so comparing against pinned-estimate arithmetic would be wrong),
    # and pins do not move under a further publish-and-evict.
    pinned_before = pinned_read(pinned_epoch)
    snapshot = service.ring.get(pinned_epoch)
    consistent = bool(
        np.array_equal(pinned_before, snapshot.query_batch(read_keys))
    )
    windowed, later = service.serve_batch(read_keys, window=window)
    fresh = build_sketch(algorithm, args.memory_bytes, seed=args.seed)
    for batch in batches[later - window : later]:
        fresh.insert_batch(batch)
    consistent = consistent and bool(
        np.array_equal(windowed, fresh.query_batch(read_keys))
    )
    epoch_pins += 1  # the windowed read above pins its anchor epoch
    service.ingest(zipf.draw(epoch_items).tolist())
    consistent = consistent and bool(
        np.array_equal(pinned_before, pinned_read(pinned_epoch))
    )

    # The construction epoch was evicted many publishes ago: a pin against
    # it must fail typed, and the service must count the rejection.
    try:
        service.serve_batch(read_keys, epoch=0)
        consistent = False  # unreachable if eviction works
    except EpochGoneError:
        pass
    gone_rejections = service.epoch_gone_rejections

    def read_qps(run_read) -> float:
        begin = time.perf_counter()
        for _ in range(reads):
            run_read()
        return reads / max(time.perf_counter() - begin, 1e-9)

    latest_read_qps = read_qps(lambda: service.serve_batch(read_keys))
    pinned_read_qps = read_qps(lambda: pinned_read(pinned_epoch))
    windowed_read_qps = read_qps(
        lambda: service.serve_batch(read_keys, window=window)
    )
    ring_evictions = service.ring.evictions
    service.close()

    # Eviction overhead: the identical publish schedule against a ring that
    # retains only the current epoch, so every publish evicts.
    minimal_config = ServeConfig(
        algorithm,
        args.memory_bytes,
        seed=args.seed,
        publish_every_items=epoch_items,
        ring_epochs=1,
    )
    minimal = minimal_config.build_service()
    begin = time.perf_counter()
    for batch in batches:
        minimal.ingest(batch)
    publish_seconds_minimal = time.perf_counter() - begin
    minimal.close()

    return {
        "algorithm": algorithm,
        "ring_epochs": ring_epochs,
        "publish_every_items": epoch_items,
        "read_batch": args.read_batch,
        "reads_per_mode": reads,
        "window": window,
        "pinned_epoch": pinned_epoch,
        "latest_read_qps": latest_read_qps,
        "pinned_read_qps": pinned_read_qps,
        "windowed_read_qps": windowed_read_qps,
        "pinned_over_latest": pinned_read_qps / max(latest_read_qps, 1e-9),
        "windowed_over_latest": windowed_read_qps / max(latest_read_qps, 1e-9),
        "epoch_pins": epoch_pins,
        "epoch_gone_rejections": gone_rejections,
        "publish_seconds_ring": publish_seconds_ring,
        "publish_seconds_minimal_ring": publish_seconds_minimal,
        "ring_eviction_overhead": publish_seconds_ring
        / max(publish_seconds_minimal, 1e-9),
        "ring_evictions": ring_evictions,
        "epoch_consistent": consistent,
        **({"note": TEMPORAL_ONE_CORE_NOTE} if (os.cpu_count() or 1) <= 1 else {}),
    }


def run_temporal_section(args) -> list[dict]:
    rows = []
    for algorithm in args.temporal_algorithm_names:
        row = bench_temporal_row(algorithm, args)
        rows.append(row)
        print(
            f"temporal {algorithm:>8}: "
            f"latest {row['latest_read_qps']:,.0f} q/s, "
            f"pinned {row['pinned_read_qps']:,.0f} q/s "
            f"({row['pinned_over_latest']:.2f}x), "
            f"window({row['window']}) {row['windowed_read_qps']:,.0f} q/s, "
            f"eviction overhead {row['ring_eviction_overhead']:.2f}x, "
            f"{row['epoch_pins']} pins, "
            f"{row['epoch_gone_rejections']} gone, "
            f"epoch_consistent={row['epoch_consistent']}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--operations", type=int, default=DEFAULT_OPERATIONS,
                        help="closed-loop operations per run (default: %(default)s)")
    parser.add_argument("--read-ratio", type=float, default=DEFAULT_READ_RATIO,
                        help="fraction of operations that are reads (default: %(default)s)")
    parser.add_argument("--write-batch", type=int, default=DEFAULT_WRITE_BATCH,
                        help="items per write operation (default: %(default)s)")
    parser.add_argument("--read-batch", type=int, default=DEFAULT_READ_BATCH,
                        help="keys per read operation (default: %(default)s)")
    parser.add_argument("--skew", type=float, default=DEFAULT_SKEW,
                        help="Zipf skew of the key mix (default: %(default)s)")
    parser.add_argument("--universe", type=int, default=DEFAULT_UNIVERSE,
                        help="distinct-key universe (default: %(default)s)")
    parser.add_argument("--memory-bytes", type=float, default=DEFAULT_MEMORY_BYTES,
                        help="served sketch memory budget (default: %(default)s)")
    parser.add_argument("--publish-every", type=int, default=DEFAULT_PUBLISH_EVERY,
                        help="epoch length in items (default: %(default)s)")
    parser.add_argument("--algorithms", default=",".join(ALGORITHMS),
                        help="comma-separated registry names (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="schedule / hash seed")
    parser.add_argument("--concurrency-clients", default=",".join(
                            str(n) for n in DEFAULT_CONCURRENCY_CLIENTS),
                        help="comma-separated client counts for the concurrency "
                             "sweep (default: %(default)s)")
    parser.add_argument("--concurrency-requests", type=int,
                        default=DEFAULT_CONCURRENCY_REQUESTS,
                        help="open-loop requests per client per run (default: %(default)s)")
    parser.add_argument("--concurrency-read-batch", type=int,
                        default=DEFAULT_CONCURRENCY_READ_BATCH,
                        help="keys per open-loop request (default: %(default)s)")
    parser.add_argument("--concurrency-algorithm",
                        default=DEFAULT_CONCURRENCY_ALGORITHM,
                        help="registry name served in the concurrency sweep "
                             "(default: %(default)s)")
    parser.add_argument("--preload-items", type=int, default=DEFAULT_PRELOAD_ITEMS,
                        help="items pre-loaded before the read-only sweep "
                             "(default: %(default)s)")
    parser.add_argument("--offered-qps", type=float, default=0.0,
                        help="paced-run offered load; 0 = half of the measured "
                             "saturation (default: %(default)s)")
    parser.add_argument("--max-inflight", type=int, default=1024,
                        help="async server admission bound (default: %(default)s)")
    parser.add_argument("--warm-restart-items", type=int,
                        default=DEFAULT_WARM_RESTART_ITEMS,
                        help="items ingested before the durable-store restart "
                             "race (default: %(default)s)")
    parser.add_argument("--temporal-algorithms",
                        default=",".join(DEFAULT_TEMPORAL_ALGORITHMS),
                        help="comma-separated subtractable families for the "
                             "temporal section (default: %(default)s)")
    parser.add_argument("--temporal-reads", type=int,
                        default=DEFAULT_TEMPORAL_READS,
                        help="timed reads per temporal mode (default: %(default)s)")
    parser.add_argument("--temporal-ring-epochs", type=int,
                        default=DEFAULT_TEMPORAL_RING_EPOCHS,
                        help="ring budget for the temporal section "
                             "(default: %(default)s)")
    parser.add_argument("--temporal-window", type=int,
                        default=DEFAULT_TEMPORAL_WINDOW,
                        help="sliding-window span in epochs (default: %(default)s)")
    parser.add_argument("--temporal-epoch-items", type=int,
                        default=DEFAULT_TEMPORAL_EPOCH_ITEMS,
                        help="items per temporal epoch (default: %(default)s)")
    parser.add_argument("--skip-concurrency", action="store_true",
                        help="skip the concurrency sweep")
    parser.add_argument("--skip-closed-loop", action="store_true",
                        help="skip the closed-loop section")
    parser.add_argument("--skip-warm-restart", action="store_true",
                        help="skip the durable-store restart section")
    parser.add_argument("--skip-temporal", action="store_true",
                        help="skip the pinned/windowed read section")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_serving.json",
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)
    algorithms = tuple(name for name in args.algorithms.split(",") if name)
    args.concurrency_client_counts = tuple(
        int(name) for name in args.concurrency_clients.split(",") if name
    )
    args.temporal_algorithm_names = tuple(
        name for name in args.temporal_algorithms.split(",") if name
    )

    print(
        f"load: {args.operations} ops, read ratio {args.read_ratio}, "
        f"write batch {args.write_batch}, read batch {args.read_batch}, "
        f"zipf {args.skew} over {args.universe} keys, "
        f"epoch every {args.publish_every} items, cpu_count={os.cpu_count()}"
    )
    rows = []
    if not args.skip_closed_loop:
        for algorithm in algorithms:
            row = bench_closed_loop(algorithm, args)
            rows.append(row)
            print(
                f"{algorithm:>8}: {row['ops_per_second']:>8,.0f} ops/s "
                f"({row['keys_read_per_second']:,.0f} keys/s read, "
                f"{row['items_written_per_second']:,.0f} items/s write), "
                f"p50 {row['read_latency_p50_ms']:.3f} ms, "
                f"p99 {row['read_latency_p99_ms']:.3f} ms, "
                f"staleness {row['mean_staleness_items']:,.0f} items, "
                f"epoch_consistent={row['epoch_consistent']}, "
                f"drained={row['drained']}"
            )

    concurrency = None
    if not args.skip_concurrency:
        print("concurrency sweep: async event loop under concurrent clients (tcp)")
        concurrency = run_concurrency_section(args)

    warm_restart = None
    if not args.skip_warm_restart:
        print("warm restart: durable-store recovery vs full stream replay")
        warm_restart = run_warm_restart_section(args)

    temporal = None
    if not args.skip_temporal:
        print("temporal: pinned and windowed reads over a churning epoch ring")
        temporal = run_temporal_section(args)

    payload = {
        "workload": {
            "operations": args.operations,
            "read_ratio": args.read_ratio,
            "write_batch": args.write_batch,
            "read_batch": args.read_batch,
            "skew": args.skew,
            "universe": args.universe,
            "memory_bytes": args.memory_bytes,
            "publish_every_items": args.publish_every,
            "seed": args.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "results": rows,
    }
    if concurrency is not None:
        payload["concurrency"] = concurrency
    if warm_restart is not None:
        payload["warm_restart"] = {
            "items": args.warm_restart_items,
            "results": warm_restart,
        }
    if temporal is not None:
        payload["temporal"] = {
            "ring_epochs": args.temporal_ring_epochs,
            "window": args.temporal_window,
            "epoch_items": args.temporal_epoch_items,
            "results": temporal,
        }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    all_rows = rows + (concurrency["results"] if concurrency else [])
    all_rows += temporal or []
    if not all(row["epoch_consistent"] for row in all_rows):
        print("ERROR: a serving run violated epoch consistency", file=sys.stderr)
        return 1
    if warm_restart is not None and not all(
        row["bit_identical"] for row in warm_restart
    ):
        print("ERROR: a warm restart was not bit-identical", file=sys.stderr)
        return 1
    if temporal is not None and not all(
        row["epoch_pins"] > 0 and row["epoch_gone_rejections"] > 0
        for row in temporal
    ):
        print("ERROR: a temporal run pinned nothing or never saw EPOCH_GONE",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
