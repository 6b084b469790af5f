"""Fleet coordinator process of the pipeline benchmark (``fleet-ingest``).

Started by the benchmark in a fresh interpreter, so its peak resident set
is the coordinator's alone::

    python3 -u pipebench/fleet_main.py --seed N --store DIR --out DIR \
        [--trace-out FILE] [--worker-cpus 1]

It obeys one command per stdin line, answering each with one JSON line,
so the benchmark can interleave fleet rounds with the serving phases it
runs itself:

``round``
    Materialise ``ip_trace(scale, seed)`` afresh ``SETUPS_PER_ROUND`` times
    (the set-up samples, spread over the whole run), then run
    ``run_dynamic_ingest`` over pipes ``INGESTS_PER_ROUND`` times, with
    every fleet setting pinned.  Every merged sketch must equal the first
    one.
``refs``
    Untimed references (after the first round): a single-node ``CM_fast``
    via ``insert_stream`` and via bare ``insert_batch`` on the same chunks;
    the merged result must equal it on every key and never fall below the
    exact counts.  The merged sketch becomes epoch 0 of a ``SketchStore`` in
    ``--store`` and the read pool with its reference answers goes to
    ``--out/reference.npz``.
``stop`` (or end of input)
    Print the CPU totals, write the spans (when traced) and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import common  # noqa: E402
import tracing  # noqa: E402

#: Timed materialisations of the trace per round.  Single samples vary by
#: a third on a noisy VM; two a round give the run's median enough of them.
SETUPS_PER_ROUND = 2
#: Fleet runs per round, each one throughput sample.  The VM's speed drifts
#: by a fifth over spells of seconds, so a run needs many seconds of ingest
#: for its mean to settle; one fleet run (about 1.3 s) per round gave too
#: few, next to the set-up and serving phases of the round.
INGESTS_PER_ROUND = 3


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _send(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--worker-cpus", default=None,
                        help="comma-separated CPUs the forked pipe workers run on")
    args = parser.parse_args(argv)

    from repro.distributed import ingest
    from repro.sketches.registry import build_sketch
    from repro.store import SketchStore
    from repro.streams import traces

    # The coordinator keeps the load generator's CPU (inherited); the pipe
    # workers it forks move to the system-under-test CPU.
    if args.worker_cpus:
        worker_cpus = {int(cpu) for cpu in args.worker_cpus.split(",")}
        os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, worker_cpus))

    config = common.load_config()
    spec = config["workloads"]["fleet-ingest"]
    serve = config["serve"]
    tracer = None
    run_fleet, generate = ingest.run_dynamic_ingest, traces.ip_trace
    if args.trace_out:
        tracer = tracing.Tracer()
        handles = tracing.install(tracer, "fleet")
        run_fleet, generate = handles["run_dynamic_ingest"], handles["ip_trace"]

    coordinator_cpu = worker_cpu = 0.0
    max_outstanding = 0
    first_state = None
    stream = result = None
    while True:
        command = sys.stdin.readline().strip()
        if command == "round":
            setup_s = []
            for _ in range(SETUPS_PER_ROUND):
                # The previous stream is freed before the next one is built,
                # so the peak resident set holds one stream at a time.
                stream = None
                started = time.perf_counter()
                stream = generate(spec["trace_scale"], seed=args.seed)
                setup_s.append(time.perf_counter() - started)
            elapsed, problems = [], []
            for _ in range(INGESTS_PER_ROUND):
                cpu, children = time.process_time(), _children_cpu()
                started = time.perf_counter()
                result = run_fleet(
                    spec["algorithm"], serve["memory_bytes"], stream,
                    workers=spec["workers"], partitions=spec["partitions"],
                    transport=spec["transport"], chunk_size=spec["chunk_size"],
                    seed=serve["sketch_seed"], credit_limit=spec["credit_limit"],
                    journal_limit=spec["journal_limit"],
                    replay_on_recovery=spec["replay_on_recovery"],
                    heartbeat_interval=spec["heartbeat_interval"],
                    heartbeat_timeout=spec["heartbeat_timeout"],
                )
                elapsed.append(time.perf_counter() - started)
                coordinator_cpu += time.process_time() - cpu
                worker_cpu += _children_cpu() - children
                max_outstanding = max(max_outstanding, result.max_outstanding)
                state = result.merged.state_snapshot()
                if first_state is None:
                    first_state = state
                intact = (result.total_items == len(stream) and not result.total_lost
                          and not result.recoveries
                          and all(np.array_equal(state[name], first_state[name])
                                  for name in state))
                if not intact:
                    problems.append("fleet run lost items or diverged")
            _send({"setup_s": setup_s, "round_s": sum(elapsed),
                   "items_per_s": [len(stream) / seconds for seconds in elapsed],
                   "problems": problems})
        elif command == "refs":
            _send(_references(args, spec, serve, stream, result, build_sketch, SketchStore,
                              tracer))
        else:
            break

    _send({"extra": {
        "distributed.coordinator_cpu_s": coordinator_cpu,
        "distributed.worker_cpu_s": worker_cpu,
        "distributed.max_outstanding": max_outstanding,
    }})
    if tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    return 0


def _references(args, spec, serve, stream, result, build_sketch, SketchStore, tracer) -> dict:
    if tracer is not None:
        tracer.enabled = False
    problems = []
    keys = np.fromiter((item.key for item in stream), dtype=np.int64, count=len(stream))
    single = build_sketch(spec["algorithm"], serve["memory_bytes"], seed=serve["sketch_seed"])
    started = time.perf_counter()
    single.insert_stream(stream)
    single_rate = len(stream) / (time.perf_counter() - started)
    bare = build_sketch(spec["algorithm"], serve["memory_bytes"], seed=serve["sketch_seed"])
    started = time.perf_counter()
    for chunk in common.split_batches(keys, spec["chunk_size"]):
        bare.insert_batch(chunk)
    bare_rate = len(stream) / (time.perf_counter() - started)

    distinct, exact = np.unique(keys, return_counts=True)
    merged = result.merged.query_batch(distinct)
    single_answers = single.query_batch(distinct)
    if not np.array_equal(merged, single_answers):
        problems.append(f"{int((merged != single_answers).sum())} merged estimates "
                        "differ from single-node")
    if not np.array_equal(bare.query_batch(distinct), single_answers):
        problems.append("insert_batch and insert_stream references disagree")
    if (merged < exact).any():
        problems.append(f"{int((merged < exact).sum())} merged estimates underestimate")

    with SketchStore(args.store, algorithm=spec["algorithm"],
                     retention_epochs=serve["store_retention_epochs"],
                     snapshot_every_epochs=serve["store_snapshot_every_epochs"],
                     sync=serve["store_sync"],
                     max_sync_seconds=serve["store_max_sync_seconds"]) as store:
        store.recover()
        store.publish_epoch(0, len(stream), result.merged)

    rng = np.random.default_rng([args.seed, 2])
    positions = rng.integers(0, len(keys), size=spec["request_pool"] * spec["read_keys"])
    pool = keys[positions].reshape(spec["request_pool"], spec["read_keys"])
    answers = np.stack([single.query_batch(request) for request in pool])
    np.savez(Path(args.out) / "reference.npz", pool=pool, answers=answers)
    if tracer is not None:
        tracer.enabled = True
    return {
        "problems": problems,
        "extra": {
            "distributed.single_node_items_per_s": single_rate,
            "sketches.reference_items_per_s": bare_rate,
        },
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
