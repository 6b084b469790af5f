"""Command-line interface: regenerate any table or figure of the paper.

``repro-cli <command> [flags]``: the command comes first, and each command
accepts only the flags it reads; ``repro-cli <command> --help`` lists them
with their defaults, and an unknown or foreign flag is an error.

Examples
--------
Run the default (small-scale) version of Figure 4b::

    repro-cli fig4 --tolerance 25

Run Figure 10 at a larger scale::

    repro-cli fig10 --scale 0.05

Run the memory sweep or the throughput comparison on the batch datapath::

    repro-cli fig4 --batch-size 4096
    repro-cli fig10 --batch-size 4096

Fan a sweep out over worker processes (bit-identical results) or run the
sketches sharded (hash-partitioned distributed-ingest model: S full-budget
replicas over a key partition, so accuracy and memory describe that
deployment, not the monolithic sketch)::

    repro-cli fig5 --workers 0          # 0 = one worker per CPU core
    repro-cli fig10 --batch-size 4096 --shards 4

Run a sweep with the sharded fills executed on remote ingest workers
(bit-identical results; ``--transport`` picks the backend)::

    repro-cli fig4 --shards 4 --transport inproc

Run a distributed ingest end to end — one self-hosted command, or a
collector plus standalone TCP workers in separate terminals/hosts::

    repro-cli ingest-collect --transport pipe --shards 4 --verify
    repro-cli ingest-collect --transport tcp --shards 2 --bind 0.0.0.0:29461
    repro-cli ingest-worker --connect collector-host:29461   # run twice

Serve a sketch online (snapshot-isolated reads concurrent with ingest) and
query it from another terminal/host::

    repro-cli serve --bind 0.0.0.0:29462 --algorithm Ours
    repro-cli query --connect host:29462 --count 100000      # demo writer
    repro-cli query --connect host:29462 --keys 17,42 --top-k 5 --stats

Time-travel against the server's epoch ring (pin a past epoch, estimate
over a sliding window of recent epochs, or watch the heavy-hitter ranking
for changes)::

    repro-cli serve --algorithm CM_fast --ring-epochs 16
    repro-cli query --keys 17,42 --epoch 3        # pinned; EPOCH_GONE if evicted
    repro-cli query --keys 17,42 --window 4       # last 4 epochs only (CM/Count)
    repro-cli query --top-k 5 --watch 10 --interval 0.5

Serve with a crash-safe durable store (WAL + checksummed epoch snapshots;
restarting over the same directory warm-starts bit-identically), and audit
or maintain a store directory offline::

    repro-cli serve --algorithm Ours --store /var/lib/repro/ours
    repro-cli store-inspect --store /var/lib/repro/ours
    repro-cli store-verify --store /var/lib/repro/ours
    repro-cli store-compact --store /var/lib/repro/ours --store-retain 2

Print the three tables::

    repro-cli table1
    repro-cli table3
    repro-cli table4
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import deployment, error, outliers, parameters, sensing, speed, tables
from repro.experiments.datasets import DEFAULT_SCALE
from repro.metrics.memory import BYTES_PER_KB


def _print_curves(curves, value_name: str) -> None:
    for curve in curves:
        memories = ", ".join(f"{m / BYTES_PER_KB:.1f}KB" for m in curve.memory_bytes)
        values = ", ".join(str(v) for v in getattr(curve, value_name))
        print(f"{curve.algorithm:>10}: memory=[{memories}] {value_name}=[{values}]")


def _cmd_table1(args) -> None:
    print(tables.complexity_table_text())


def _cmd_table3(args) -> None:
    print(tables.fpga_table_text())


def _cmd_table4(args) -> None:
    print(tables.tofino_table_text())


def _cmd_fig4(args) -> None:
    curves = outliers.outliers_vs_memory(
        dataset_name=args.dataset,
        tolerance=args.tolerance,
        scale=args.scale,
        seed=args.seed,
        batch_size=args.batch_size,
        shards=args.shards,
        workers=args.workers,
        transport=args.transport,
    )
    _print_curves(curves, "outliers")


def _cmd_fig5(args) -> None:
    result = outliers.zero_outlier_memory(
        scale=args.scale, tolerance=args.tolerance, seed=args.seed, workers=args.workers
    )
    for dataset_name, per_algorithm in result.items():
        print(f"[{dataset_name}]")
        for algorithm, memory in per_algorithm.items():
            text = "not reached" if memory is None else f"{memory / BYTES_PER_KB:.1f} KB"
            print(f"  {algorithm:>10}: {text}")


def _cmd_fig6(args) -> None:
    for dataset_name in ("web", "datacenter", "zipf-0.3", "zipf-3.0"):
        print(f"[{dataset_name}]")
        curves = outliers.outliers_vs_memory(
            dataset_name=dataset_name, tolerance=args.tolerance, scale=args.scale,
            seed=args.seed, batch_size=args.batch_size, shards=args.shards,
            workers=args.workers, transport=args.transport,
        )
        _print_curves(curves, "outliers")


def _cmd_fig7(args) -> None:
    for threshold in (100, 1000):
        print(f"[frequent keys, T={threshold}]")
        curves = outliers.frequent_key_outliers(
            threshold=threshold, scale=args.scale, tolerance=args.tolerance,
            seed=args.seed, workers=args.workers,
        )
        _print_curves(curves, "outliers")


def _cmd_fig8(args) -> None:
    for dataset_name in ("ip", "zipf-3.0"):
        print(f"[{dataset_name}] AAE")
        curves = error.average_error_sweep(
            dataset_name=dataset_name, scale=args.scale, seed=args.seed,
            batch_size=args.batch_size, shards=args.shards, workers=args.workers,
            transport=args.transport,
        )
        for curve in curves:
            print(f"  {curve.algorithm:>10}: {[round(v, 3) for v in curve.aae]}")


def _cmd_fig9(args) -> None:
    for dataset_name in ("ip", "zipf-3.0"):
        print(f"[{dataset_name}] ARE")
        curves = error.average_error_sweep(
            dataset_name=dataset_name, scale=args.scale, seed=args.seed,
            batch_size=args.batch_size, shards=args.shards, workers=args.workers,
            transport=args.transport,
        )
        for curve in curves:
            print(f"  {curve.algorithm:>10}: {[round(v, 4) for v in curve.are]}")


def _cmd_fig10(args) -> None:
    rows = speed.throughput_comparison(
        dataset_name=args.dataset, scale=args.scale, seed=args.seed,
        batch_size=args.batch_size, shards=args.shards,
    )
    print(tables.format_table(
        ["Algorithm", "Insert Mops", "Query Mops"],
        [[row.algorithm, f"{row.insert_mops:.3f}", f"{row.query_mops:.3f}"] for row in rows],
    ))
    if args.shards > 1:
        print("per-shard ingest accounting:")
        for row in rows:
            load = row.shard_load
            print(
                f"  {row.algorithm:>10}: items={list(load.items_per_shard)} "
                f"imbalance={load.load_imbalance:.3f}"
            )


def _readings(points) -> list[tuple[float, float | None]]:
    """(parameter, memory in KB) pairs of a parameter sweep, None where not reached."""
    return [
        (p.parameter, None if p.memory_bytes is None else round(p.memory_bytes / BYTES_PER_KB, 1))
        for p in points
    ]


def _print_ratio_sweep(sweep, fixed_name: str, args, target_aae: float | None) -> None:
    curves = sweep(
        scale=args.scale, tolerance=args.tolerance, seed=args.seed, workers=args.workers,
        target_aae=target_aae,
    )
    for curve in curves:
        print(f"{fixed_name}={curve.fixed_value}: {_readings(curve.points)}")


def _cmd_fig11(args) -> None:
    _print_ratio_sweep(parameters.rw_sweep, "R_lambda", args, target_aae=None)


def _cmd_fig12(args) -> None:
    _print_ratio_sweep(parameters.rw_sweep, "R_lambda", args, target_aae=parameters.TARGET_AAE)


def _cmd_fig13(args) -> None:
    _print_ratio_sweep(parameters.rlambda_sweep, "R_w", args, target_aae=None)


def _cmd_fig14(args) -> None:
    _print_ratio_sweep(parameters.rlambda_sweep, "R_w", args, target_aae=parameters.TARGET_AAE)


def _cmd_fig15(args) -> None:
    for panel, target_aae in (("15a, zero outliers", None),
                              (f"15b, AAE <= {parameters.TARGET_AAE}", parameters.TARGET_AAE)):
        print(f"[Figure {panel}]")
        result = parameters.lambda_sweep(
            scale=args.scale, seed=args.seed, workers=args.workers, target_aae=target_aae
        )
        for dataset_name, points in result.items():
            print(f"{dataset_name}: {_readings(points)}")


def _cmd_fig16(args) -> None:
    curves = speed.hash_call_profile(scale=args.scale, seed=args.seed, workers=args.workers)
    for curve in curves:
        print(
            f"{curve.algorithm:>10}: insert={[round(v, 2) for v in curve.insert_calls]} "
            f"query={[round(v, 2) for v in curve.query_calls]}"
        )


def _cmd_fig17(args) -> None:
    mice, elephants = sensing.sensed_intervals(scale=args.scale, seed=args.seed)
    contained = sum(1 for i in mice + elephants if i.contains_truth)
    print(f"sampled intervals: {len(mice) + len(elephants)}, containing truth: {contained}")


def _cmd_fig18(args) -> None:
    points = sensing.sensed_vs_actual(scale=args.scale, seed=args.seed)
    for point in points[:20]:
        print(f"actual={point.actual_error:>4}  sensed(avg)={point.mean_sensed_error:.2f}  keys={point.keys}")


def _cmd_fig19(args) -> None:
    for distribution in sensing.layer_distribution(scale=args.scale, seed=args.seed):
        print(f"{distribution.memory_bytes / BYTES_PER_KB:.1f}KB: {distribution.keys_per_layer}")


def _cmd_fig20(args) -> None:
    for trace in ("ip", "hadoop"):
        curve = deployment.testbed_accuracy(trace_name=trace, seed=args.seed)
        print(f"[{trace}]")
        for result in curve.results:
            print(
                f"  SRAM={result.sram_bytes / BYTES_PER_KB:.1f}KB  outliers={result.outliers}  "
                f"AAE={result.aae_kbps:.2f}Kbps"
            )


def _parse_address(text: str) -> tuple[str, int]:
    """Split a ``host:port`` CLI address."""
    host, separator, port = text.rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ValueError(f"address must look like host:port, got {text!r}")
    return host, int(port)


def _parse_keys(text: str) -> list[object]:
    """Parse the comma-separated ``--keys`` list (ints where they look it)."""
    keys: list[object] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            keys.append(int(piece))
        except ValueError:
            keys.append(piece)
    if not keys:
        raise ValueError("--keys needs at least one key")
    return keys


def _cmd_serve(args) -> None:
    """Serve one sketch online over TCP on the async event loop.

    Every connection is multiplexed over one shared service, so state a
    writer client loads is visible to concurrent reader clients.
    ``--async`` is accepted for compatibility and changes nothing.
    """
    # Looked up at call time, not bound at import: a harness that replaces
    # ``repro.serve.async_server.AsyncSketchServer`` after importing the CLI
    # (pipebench/server_main.py pins loop settings that way) must be served.
    from repro.serve.async_server import AsyncSketchServer
    from repro.serve.server import ServeConfig
    from repro.sketches.registry import supports_snapshots

    snapshotable = supports_snapshots(args.algorithm)  # ValueError on an unknown name
    if args.store is not None and not snapshotable:
        raise ValueError(
            f"--store needs a snapshotable algorithm, and {args.algorithm} is not "
            "(pick CM_fast, CM_acc, CU_fast, CU_acc, Count, Ours, or Ours(Raw))"
        )
    host, port = _parse_address(args.bind)
    config = ServeConfig(
        args.algorithm,
        args.memory_bytes,
        seed=args.seed,
        shards=args.shards,
        publish_every_items=args.publish_every,
        max_tracked_keys=args.max_tracked_keys,
        store_dir=args.store,
        ring_epochs=args.ring_epochs,
    )
    service = config.build_service()
    if args.store is not None:
        store_stats = service.stats().get("store", {})
        epoch = store_stats.get("last_snapshot_epoch")
        print(
            f"durable store at {args.store}: "
            + (f"warm start from epoch {epoch}" if epoch else "cold start")
        )
    server = AsyncSketchServer(
        service,
        host,
        port,
        max_inflight=args.max_inflight,
        backlog=args.backlog,
        drain_timeout=args.drain_timeout,
    )
    bound_host, bound_port = server.address
    print(
        f"serving {args.algorithm} ({args.memory_bytes:.0f} B budget, epoch every "
        f"{args.publish_every} items) on {bound_host}:{bound_port} "
        f"[async, max {server.max_inflight} in-flight]"
    )
    # serve_forever treats KeyboardInterrupt as shutdown(): stop accepting,
    # finish in-flight requests, flush, close — then report.
    stats = server.serve_forever()
    print(
        f"served {stats.queries_served} queries over {stats.accepted} "
        f"connection(s); {stats.busy_rejected} busy-rejected, "
        f"{stats.frame_errors + stats.oversized_rejected} frame errors, "
        f"drained={stats.drained}"
    )
    service.close()
    if args.store is not None:
        store_stats = service.stats().get("store", {})
        if store_stats.get("degraded"):
            print(
                f"WARNING: store degraded ({store_stats.get('degrade_reason')}); "
                f"{store_stats.get('dropped_batches')} batch(es) and "
                f"{store_stats.get('dropped_publishes')} publish(es) not persisted"
            )


def _cmd_query(args) -> None:
    """Talk to a running ``repro-cli serve`` endpoint."""
    import json as json_module

    from repro.distributed.transport import connect_worker
    from repro.serve.server import QueryClient
    from repro.streams.items import iter_key_value_chunks
    from repro.streams.synthetic import zipf_stream

    if not (args.keys or args.top_k or args.stats or args.count):
        raise ValueError(
            "query needs at least one of --keys / --top-k / --stats / --count"
        )
    if args.pipeline is not None and not args.keys:
        raise ValueError("--pipeline requires --keys")
    if args.window is not None and not args.keys:
        raise ValueError("--window requires --keys")
    if args.epoch is not None and not (args.keys or args.top_k):
        raise ValueError("--epoch requires --keys or --top-k")
    if args.watch is not None and not args.top_k:
        raise ValueError("--watch requires --top-k")
    if args.watch is not None and args.epoch is not None:
        raise ValueError("--watch polls the live ranking; it cannot pin --epoch")
    if args.interval is not _WATCH_INTERVAL_S and args.watch is None:
        raise ValueError("--interval requires --watch")
    host, port = _parse_address(args.connect)
    client = QueryClient(connect_worker(host, port))
    try:
        if args.count:
            stream = zipf_stream(args.count, skew=args.skew, seed=args.seed + 1)
            for keys, values in iter_key_value_chunks(stream, 8192):
                client.ingest(keys, values)
            epoch = client.flush()
            print(f"ingested {len(stream)} items; service now at epoch {epoch}")
        if args.keys:
            keys = _parse_keys(args.keys)
            if args.pipeline:
                # One request per key, up to --pipeline in flight on this
                # single connection; replies come back in order (BUSY
                # rejections are retried transparently).
                answers = client.query_batches_pipelined(
                    [[key] for key in keys], max_inflight=args.pipeline
                )
                epochs = set()
                for key, (estimates, epoch) in zip(keys, answers):
                    print(f"{key}: {int(estimates[0])}")
                    epochs.add(epoch)
                print(
                    f"(pipelined {len(keys)} requests, depth {args.pipeline}; "
                    f"epochs {sorted(epochs)})"
                )
            else:
                estimates, epoch = client.query_batch(
                    keys, epoch=args.epoch, window=args.window
                )
                for key, estimate in zip(keys, estimates.tolist()):
                    print(f"{key}: {estimate}")
                if args.window is not None:
                    print(f"(window of {args.window} epoch(s) ending at epoch {epoch})")
                elif args.epoch is not None:
                    print(f"(pinned to epoch {epoch})")
                else:
                    print(f"(answered at epoch {epoch})")
        if args.top_k and args.watch:
            # Client-side change detection: poll the ranking and diff
            # successive answers.  A key absent from one ranking has an
            # unknown remote estimate (treated as 0 — deltas are lower
            # bounds); the server-side diff (service.diff_epochs) is exact.
            from repro.temporal import diff_rankings

            previous = None
            previous_epoch = None
            for round_index in range(args.watch):
                if round_index and args.interval:
                    time.sleep(args.interval)
                ranking, epoch = client.top_k(args.top_k)
                if previous is not None:
                    report = diff_rankings(
                        previous, ranking,
                        earlier_epoch=previous_epoch, later_epoch=epoch,
                    )
                    print(json_module.dumps(report.to_dict(), default=str))
                previous, previous_epoch = ranking, epoch
            print(f"(watched {args.watch} round(s), ending at epoch {previous_epoch})")
        elif args.top_k:
            ranking, epoch = client.top_k(args.top_k, epoch=args.epoch)
            for rank, (key, estimate) in enumerate(ranking, start=1):
                print(f"#{rank}: {key} = {estimate}")
            if args.epoch is not None:
                print(f"(pinned to epoch {epoch})")
            else:
                print(f"(answered at epoch {epoch})")
        if args.stats:
            print(json_module.dumps(client.stats(), indent=2, default=str))
    finally:
        client.close()


def _cmd_store_inspect(args) -> None:
    """Audit a durable store directory without modifying anything."""
    import json as json_module

    from repro.store import SketchStore

    with SketchStore(args.store) as store:
        print(json_module.dumps(store.inspect(), indent=2, default=str))


def _cmd_store_verify(args) -> None:
    """Run a full recovery pass and report what a warm start would load.

    This is recovery, not a dry run: torn journals are repaired (the
    original preserved in ``quarantine/``) and corrupt files quarantined,
    exactly as ``serve --store`` would on startup.
    """
    from repro.store import SketchStore

    with SketchStore(args.store) as store:
        report = store.recover()
        if report is None:
            print(f"{args.store}: empty store (cold start)")
            return
        print(
            f"{args.store}: recoverable at epoch {report.epoch_id} "
            f"({report.algorithm}, {report.items} items in the snapshot, "
            f"{report.wal_frames} journal frame(s) / {report.wal_items} item(s) "
            f"to replay)"
        )
        if report.wal_tail_error:
            print(f"  journal tail repaired: {report.wal_tail_error}")
        for name in report.quarantined:
            print(f"  quarantined: {name}")


def _cmd_store_compact(args) -> None:
    """Apply the retention policy to a store directory."""
    from repro.store import SketchStore

    with SketchStore(args.store, retention_epochs=args.store_retain) as store:
        removed = store.compact()
        audit = store.inspect()
        print(
            f"{args.store}: removed {removed} file(s); "
            f"{len(audit['snapshots'])} snapshot(s) and {len(audit['wals'])} "
            f"journal(s) retained (newest epoch: {audit['recoverable_epoch']})"
        )


def _cmd_ingest_worker(args) -> None:
    """Run one standalone TCP ingest worker until the collector shuts it down."""
    from repro.distributed.ingest import dynamic_worker_main
    from repro.distributed.transport import connect_worker

    host, port = _parse_address(args.connect)
    print(f"connecting to collector at {host}:{port} ...")
    channel = connect_worker(host, port)
    print("connected; ingesting until the collector shuts down")
    dynamic_worker_main(channel)
    print("collector closed the session; exiting")


def _reshard_actions(chunks_total: int) -> dict:
    """The ``--reshard`` schedule of a stream of ``chunks_total >= 3`` chunks.

    Splits the busiest worker a third of the way in and folds the new
    worker back at two thirds: the quiesce -> snapshot -> epoch flip ->
    handoff cycle, twice, under live ingest.
    """
    new_ids = []

    def split(coordinator):
        busiest = max(
            coordinator.alive_workers(),
            key=lambda w: len(coordinator.router.partitions_of(w)),
        )
        new_ids.append(coordinator.split_worker(busiest))
        print(f"  [chunk {chunks_total // 3}] split worker {busiest} "
              f"-> new worker {new_ids[-1]} (epoch {coordinator.epoch})")

    def merge(coordinator):
        if new_ids and new_ids[-1] in coordinator.alive_workers():
            target = coordinator._least_loaded(exclude={new_ids[-1]})
            coordinator.merge_workers(new_ids[-1], target)
            print(f"  [chunk {2 * chunks_total // 3}] merged worker "
                  f"{new_ids[-1]} into {target} (epoch {coordinator.epoch})")

    return {chunks_total // 3: split, 2 * chunks_total // 3: merge}


def _cmd_ingest_collect(args) -> None:
    """Distribute a synthetic stream over ingest workers and merge the result.

    Keys hash to ``--partitions`` fixed partitions (default: ``--shards``,
    or ``2 * shards`` with ``--reshard``, so every worker owns two
    partitions and a split has one to move) spread over ``--shards``
    workers.  ``--reshard`` needs a stream of at least three batches (its
    split and merge fire a third and two thirds of the way in) and more
    partitions than workers (a split moves partitions).  With
    ``--verify`` the merge is checked against single-node ingest (mergeable
    families) and the routed answers against a local ``partitions``-shard
    sketch (every family).
    """
    from repro.distributed.ingest import run_dynamic_ingest
    from repro.distributed.transport import TcpTransport
    from repro.sketches.registry import build_sketch, supports_snapshots
    from repro.sketches.sharded import ShardedSketch
    from repro.streams.synthetic import zipf_stream

    algorithm = args.algorithm
    memory_bytes = args.memory_bytes
    chunk_size = args.batch_size
    if args.bind is not None and args.transport != "tcp":
        raise ValueError("--bind requires --transport tcp")
    if args.partitions is not None and args.partitions < args.shards:
        raise ValueError("--partitions must be at least --shards")
    if args.store is not None and args.verify:
        raise ValueError(
            "--verify cannot be combined with --store: a resumed fleet "
            "carries prior runs' history, which local re-ingest cannot mirror"
        )
    if not supports_snapshots(algorithm):
        raise ValueError(
            f"--algorithm {algorithm} cannot be collected remotely; pick a "
            "snapshotable family (CM_fast, CM_acc, CU_fast, CU_acc, Count, "
            "Ours, Ours(Raw))"
        )
    chunks_total = -(-args.count // chunk_size)
    if args.reshard and chunks_total < 3:
        raise ValueError(
            f"--reshard needs a stream of at least 3 batches (it splits a "
            f"third of the way in and merges at two thirds); --count {args.count} "
            f"at --batch-size {chunk_size} gives {chunks_total}"
        )
    partitions = args.partitions
    if partitions is None:
        partitions = 2 * args.shards if args.reshard else args.shards
    if args.reshard and partitions <= args.shards:
        raise ValueError(
            f"--reshard needs more partitions than workers, or the split has "
            f"no partition to move; --partitions {partitions} over --shards "
            f"{args.shards} gives each worker one"
        )

    if args.transport == "tcp":
        host, port = _parse_address(args.bind) if args.bind else ("127.0.0.1", 0)
        # An explicit --bind waits for external `repro-cli ingest-worker`
        # processes; without it the transport self-hosts worker threads.
        backend: object = TcpTransport(host, port, self_hosted=args.bind is None)
    else:
        backend = args.transport

    stream = zipf_stream(args.count, skew=args.skew, seed=args.seed + 1)
    print(
        f"stream: {len(stream)} items, {stream.distinct_keys()} distinct keys; "
        f"{args.shards} workers over {args.transport}"
    )
    if isinstance(backend, TcpTransport) and not backend.self_hosted:
        print(f"waiting for {args.shards} workers on {args.bind} ...")
    if args.store is not None:
        print(f"persisting partition checkpoints to {args.store}")

    actions = None
    if args.reshard:
        actions = _reshard_actions(chunks_total)
    start = time.perf_counter()
    result = run_dynamic_ingest(
        algorithm,
        memory_bytes,
        stream,
        workers=args.shards,
        partitions=partitions,
        transport=backend,
        chunk_size=chunk_size,
        seed=args.seed,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        store_dir=args.store,
        actions=actions,
    )
    wall = time.perf_counter() - start
    print(
        f"ingested {result.total_items} items in {result.ingest_seconds:.3f}s "
        f"({result.total_items / max(result.ingest_seconds, 1e-9):,.0f} items/s) "
        f"across {partitions} partitions; final epoch {result.epoch}; "
        f"wire: {result.bytes_sent:,} B out, {result.bytes_received:,} B back"
    )
    print(f"per-partition items: {list(result.items_per_partition)}")
    for record in result.handoffs:
        print(
            f"  handoff: partition {record['partition']} "
            f"worker {record['from_worker']} -> {record['to_worker']} "
            f"({record['items']} items, {record['seconds'] * 1e3:.2f} ms, "
            f"epoch {record['epoch']})"
        )
    if result.merged is not None:
        print(f"tree-merged {partitions} snapshots in {result.merge_seconds * 1e3:.2f} ms")
    else:
        print(
            f"collected {partitions} snapshots into a routed sharded sketch "
            "(this family snapshots but has no lossless merge)"
        )
    if args.verify:
        keys = stream.keys()
        if result.merged is not None:
            single = build_sketch(algorithm, memory_bytes, seed=args.seed)
            single.insert_stream(stream, batch_size=chunk_size)
            identical = bool(
                (result.merged.query_batch(keys) == single.query_batch(keys)).all()
            )
            print(f"merged result bit-identical to single-node ingest: {identical}")
            if not identical and algorithm.startswith("CU"):
                # CU's documented merge guarantee: never below the true value
                # sums, never below the routed per-partition answers.
                counts = stream.counts()
                truth = [counts[key] for key in keys]
                never_underestimates = bool(
                    (result.merged.query_batch(keys) >= truth).all()
                )
                print(
                    "  (CU upper-bound merge semantics; never underestimates the "
                    f"true counts: {never_underestimates})"
                )
        local = ShardedSketch.from_registry(
            algorithm, memory_bytes, partitions, seed=args.seed
        )
        local.insert_stream(stream, batch_size=chunk_size)
        identical = bool(
            (result.sharded().query_batch(keys) == local.query_batch(keys)).all()
        )
        print(f"routed answers bit-identical to local sharded ingest: {identical}")
    print(f"total wall-clock {wall:.3f}s")


def _checked(kind: type, accept, requirement: str):
    """A ``type=`` callable: parse with ``kind``, then require ``accept(value)``."""

    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..." names it
    return parse


_POSITIVE_INT = _checked(int, lambda value: value > 0, "a positive integer")
_NON_NEGATIVE_INT = _checked(int, lambda value: value >= 0, "a non-negative integer")
_POSITIVE_FLOAT = _checked(float, lambda value: value > 0, "positive")
_NON_NEGATIVE_FLOAT = _checked(float, lambda value: value >= 0, "non-negative")

#: Seconds between ``query --watch`` polls: the default of ``--interval``.
#: A given ``--interval`` parses to a new float object, so
#: ``args.interval is not _WATCH_INTERVAL_S`` says the flag was given (the
#: identity test argparse itself applies to mutually exclusive flags).
_WATCH_INTERVAL_S = 1.0

_TRANSPORTS = ("inproc", "pipe", "tcp")


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser of one flag, shared by the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``repro-cli`` entry point.

    One subparser per command, holding only the flags its handler reads;
    ``repro-cli <command> --help`` lists them with their defaults.
    """
    parser = argparse.ArgumentParser(
        prog="repro-cli", description="Regenerate tables and figures of the ReliableSketch paper."
    )
    commands = parser.add_subparsers(dest="experiment", required=True, metavar="command")

    def command(name, handler, summary, parents=()):
        sub = commands.add_parser(name, help=summary, description=summary, parents=list(parents))
        sub.set_defaults(handler=handler)
        return sub

    scale = _flag("--scale", type=float, default=DEFAULT_SCALE,
                  help="stream scale relative to the paper (default: %(default)s)")
    tolerance = _flag("--tolerance", type=float, default=25.0,
                      help="error tolerance Lambda (default: %(default)s)")
    seed = _flag("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    workers = _flag("--workers", type=_NON_NEGATIVE_INT, default=1,
                    help="process-pool width for grid sweeps; 0 = one per CPU core "
                         "(results are bit-identical, only speed changes; "
                         "default: %(default)s)")
    dataset = _flag("--dataset", default="ip", help="dataset to run on (default: %(default)s)")
    batch_size = _flag("--batch-size", type=_POSITIVE_INT, default=None,
                       help="chunk size for the batch datapath; omit for the scalar loop "
                            "(results are bit-identical, only speed changes)")
    shards = _flag("--shards", type=_POSITIVE_INT, default=1,
                   help="hash-partitioned shards per sketch; each shard is a "
                        "full-budget replica, so results model the distributed "
                        "deployment (S x memory, typically fewer collisions) and "
                        "are not comparable to --shards 1 curves "
                        "(default: %(default)s)")
    transport = _flag("--transport", choices=_TRANSPORTS, default=None,
                      help="run sharded fills on remote ingest workers over this "
                           "backend (results are bit-identical: remote routing "
                           "equals local routing)")
    sweep = (scale, tolerance, seed, workers)
    sharded = (batch_size, shards, transport)
    aae = f"AAE <= {parameters.TARGET_AAE:g}"
    for name, handler, summary, parents in (
        ("table1", _cmd_table1, "Table 1: complexity of the sketch families", ()),
        ("table3", _cmd_table3, "Table 3: FPGA synthesis model of ReliableSketch", ()),
        ("table4", _cmd_table4, "Table 4: Tofino pipeline resource usage", ()),
        ("fig4", _cmd_fig4, "Figure 4: #outliers vs memory", (dataset, *sweep, *sharded)),
        ("fig5", _cmd_fig5, "Figure 5: minimum memory for zero outliers", sweep),
        ("fig6", _cmd_fig6, "Figure 6: #outliers vs memory on four datasets",
         (*sweep, *sharded)),
        ("fig7", _cmd_fig7, "Figure 7: worst-case #outliers among frequent keys", sweep),
        ("fig8", _cmd_fig8, "Figure 8: AAE vs memory", (scale, seed, workers, *sharded)),
        ("fig9", _cmd_fig9, "Figure 9: ARE vs memory", (scale, seed, workers, *sharded)),
        ("fig10", _cmd_fig10, "Figure 10: insert and query throughput",
         (dataset, scale, seed, batch_size, shards)),
        ("fig11", _cmd_fig11, "Figure 11: zero-outlier memory vs R_w", sweep),
        ("fig12", _cmd_fig12, f"Figure 12: memory for {aae} vs R_w", sweep),
        ("fig13", _cmd_fig13, "Figure 13: zero-outlier memory vs R_lambda", sweep),
        ("fig14", _cmd_fig14, f"Figure 14: memory for {aae} vs R_lambda", sweep),
        ("fig15", _cmd_fig15, f"Figure 15: memory vs Lambda, zero outliers (a) and {aae} (b)",
         (scale, seed, workers)),
        ("fig16", _cmd_fig16, "Figure 16: hash calls per insert and query",
         (scale, seed, workers)),
        ("fig17", _cmd_fig17, "Figure 17: sensed error intervals contain the truth",
         (scale, seed)),
        ("fig18", _cmd_fig18, "Figure 18: sensed vs actual error", (scale, seed)),
        ("fig19", _cmd_fig19, "Figure 19: keys per layer vs memory", (scale, seed)),
        ("fig20", _cmd_fig20, "Figure 20: Tofino testbed accuracy vs SRAM", (seed,)),
    ):
        command(name, handler, summary, parents)

    algorithm = _flag("--algorithm", default="CM_fast",
                      help="registry name of the sketch; snapshotable families "
                           "(CM_*, CU_*, Count, Ours, Ours(Raw)) for ingest-collect "
                           "and serve --store (default: %(default)s)")
    memory_bytes = _flag("--memory-bytes", type=float, default=64 * 1024,
                         help="sketch memory budget in bytes, per worker for "
                              "ingest-collect (default: %(default)s)")
    skew = _flag("--skew", type=float, default=1.1,
                 help="Zipf skew of the synthetic stream (default: %(default)s)")

    collect = command("ingest-collect", _cmd_ingest_collect,
                      "distribute a synthetic stream over ingest workers and merge the result",
                      (algorithm, memory_bytes, seed, skew))
    collect.add_argument("--count", type=int, default=200_000,
                         help="synthetic stream length (default: %(default)s)")
    collect.add_argument("--batch-size", type=_POSITIVE_INT, default=8192,
                         help="items per routed batch (default: %(default)s)")
    collect.add_argument("--shards", type=_POSITIVE_INT, default=1,
                         help="ingest workers (default: %(default)s)")
    collect.add_argument("--transport", choices=_TRANSPORTS, default="inproc",
                         help="backend between the collector and its workers "
                              "(default: %(default)s)")
    collect.add_argument("--partitions", type=int, default=None,
                         help="hash keys to this many fixed partitions (>= --shards); "
                              "partitions, not workers, are the unit of state "
                              "migration (default: --shards, or 2 x --shards with "
                              "--reshard)")
    collect.add_argument("--bind", default=None, metavar="HOST:PORT",
                         help="with --transport tcp: wait for external ingest-worker "
                              "processes on this address instead of self-hosting "
                              "threads")
    collect.add_argument("--verify", action="store_true",
                         help="re-ingest locally and check the merged sketch against "
                              "single-node ingest and the routed answers against "
                              "local sharded ingest")
    collect.add_argument("--reshard", action="store_true",
                         help="split the busiest worker a third of the way into the "
                              "stream and merge it back at two thirds — a live "
                              "quiesce/snapshot/epoch-flip/handoff demo; needs at "
                              "least 3 batches and more partitions than workers "
                              "(combine with --verify for the bit-identity check)")
    collect.add_argument("--store", default=None, metavar="DIR",
                         help="persist partition checkpoints under DIR and resume "
                              "from them")
    collect.add_argument("--heartbeat-interval", type=_POSITIVE_FLOAT, default=None,
                         help="probe worker liveness between chunks at this "
                              "wall-clock cadence in seconds (default: only on "
                              "failure signals)")
    collect.add_argument("--heartbeat-timeout", type=_POSITIVE_FLOAT, default=None,
                         help="declare a worker dead if a heartbeat ack takes longer "
                              "than this many seconds — hung workers are recovered "
                              "like dead ones (default: wait forever)")

    worker = command("ingest-worker", _cmd_ingest_worker,
                     "run one standalone TCP ingest worker until the collector shuts it down")
    worker.add_argument("--connect", default="127.0.0.1:29461", metavar="HOST:PORT",
                        help="collector address to dial (default: %(default)s)")

    serve = command("serve", _cmd_serve,
                    "serve one sketch online over TCP, snapshot-isolated reads "
                    "concurrent with ingest", (algorithm, memory_bytes, seed))
    serve.add_argument("--shards", type=_POSITIVE_INT, default=1,
                       help="serve a hash-partitioned sketch of this many "
                            "full-budget replicas (default: %(default)s)")
    serve.add_argument("--bind", default="127.0.0.1:29462", metavar="HOST:PORT",
                       help="listen address (default: %(default)s)")
    serve.add_argument("--publish-every", type=_POSITIVE_INT, default=8192,
                       help="epoch length in items — readers lag ingest by at most "
                            "this many items (default: %(default)s)")
    serve.add_argument("--ring-epochs", type=_POSITIVE_INT, default=8,
                       help="how many published epochs stay pinnable for "
                            "query --epoch/--window (default: %(default)s)")
    serve.add_argument("--max-tracked-keys", type=_POSITIVE_INT, default=None,
                       help="bound the top-k key directory to this many heavy-hitter "
                            "candidates (min-estimate pruning; default: unbounded); "
                            "no effect on families that store keys, whose interner "
                            "is the directory")
    serve.add_argument("--max-inflight", type=_POSITIVE_INT, default=1024,
                       help="bound on globally queued queries; excess requests get "
                            "a typed BUSY reply (default: %(default)s)")
    serve.add_argument("--backlog", type=_POSITIVE_INT, default=128,
                       help="listener pending-accept queue length (default: %(default)s)")
    serve.add_argument("--drain-timeout", type=_POSITIVE_FLOAT, default=10.0,
                       help="upper bound in seconds on the graceful drain at "
                            "shutdown (default: %(default)s)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="journal every ingest batch and persist every published "
                            "epoch under DIR, warm-starting from it on restart")
    serve.add_argument("--async", action="store_true", dest="async_mode",
                       help="accepted for compatibility and changes nothing: serve "
                            "always multiplexes connections on one event loop")

    query = command("query", _cmd_query, "talk to a running serve endpoint", (seed, skew))
    query.add_argument("--connect", default="127.0.0.1:29462", metavar="HOST:PORT",
                       help="server address (default: %(default)s)")
    query.add_argument("--count", type=int, default=None,
                       help="first write a synthetic Zipf stream of this many items")
    query.add_argument("--keys", default=None, metavar="K1,K2,...",
                       help="comma-separated keys to estimate")
    query.add_argument("--top-k", type=_POSITIVE_INT, default=None,
                       help="print the server's k heaviest keys")
    query.add_argument("--stats", action="store_true",
                       help="print the service's epoch, staleness, directory and "
                            "store stats")
    reads = query.add_mutually_exclusive_group()
    reads.add_argument("--pipeline", type=_POSITIVE_INT, default=None,
                       help="issue the --keys estimates as pipelined single-key "
                            "requests with this many in flight")
    reads.add_argument("--epoch", type=_NON_NEGATIVE_INT, default=None,
                       help="pin --keys/--top-k to this published epoch instead of "
                            "the latest one; an epoch evicted from the server's "
                            "ring is a typed EPOCH_GONE rejection")
    reads.add_argument("--window", type=_POSITIVE_INT, default=None,
                       help="estimate --keys over the last N epochs only (exact "
                            "epoch-delta subtraction; CM/Count families)")
    query.add_argument("--watch", type=_POSITIVE_INT, default=None,
                       help="poll --top-k this many rounds and print a JSON change "
                            "report (surges/drops/churn) per round")
    query.add_argument("--interval", type=_NON_NEGATIVE_FLOAT, default=_WATCH_INTERVAL_S,
                       help="--watch: seconds between polls (default: %(default)s)")

    store = _flag("--store", required=True, metavar="DIR",
                  help="the store directory to operate on")
    command("store-inspect", _cmd_store_inspect,
            "audit a durable store directory without modifying anything", (store,))
    command("store-verify", _cmd_store_verify,
            "run a full recovery pass and report what a warm start would load", (store,))
    compact = command("store-compact", _cmd_store_compact,
                      "apply the retention policy to a store directory", (store,))
    compact.add_argument("--store-retain", type=_POSITIVE_INT, default=2,
                         help="keep this many newest epoch snapshots (default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment.startswith(("ingest-", "store-")) or args.experiment in ("serve", "query"):
        # Bad addresses, unreachable peers, ports in use, workers that never
        # dial in, an unrecoverable store directory, a typed server
        # rejection (an --epoch pin the ring has evicted) or flags that do
        # not fit together surface as clean argparse errors, not tracebacks
        # (ValueError from parsing and checks, OSError/timeout from sockets
        # and pipes, StoreError from recovery, QueryRejectedError from the
        # serving protocol).
        from repro.serve.errors import QueryRejectedError
        from repro.store import StoreError

        try:
            args.handler(args)
        except (ValueError, OSError, StoreError, QueryRejectedError) as error:
            parser.error(str(error) or type(error).__name__)
    else:
        args.handler(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
