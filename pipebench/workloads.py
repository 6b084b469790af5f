"""The three workloads: serve-ingest, serve-query and fleet-ingest.

Every workload is a sequence of identical *rounds* (fixed work per round,
rounds repeated until ``--seconds`` of timed phases have passed, never
fewer than ``min_rounds``), so a faster program is measured for as long as
a slower one and every round checks its answers against a reference.
Each round starts fresh server processes (and, on ``fleet-ingest``,
materialises the trace afresh), so the set-up and restart times come from
samples spread over the whole run rather than from one interval.

With ``--trace 1`` a run makes two passes of ``trace_rounds`` rounds each,
one untraced and one traced; the per-layer metrics come from the traced
pass and ``trace.overhead_share`` from comparing the two.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing
from common import (
    BENCH_DIR,
    ROOT,
    WORK_DIR,
    child_env,
    cpu_plan,
    percentile,
    split_batches,
    tail_percentile,
    vm_hwm_mb,
    zipf_keys,
)
from serving import ServerProcess, capacity_phase, ingest_phase, latency_phase

#: Throughput samples (ingest_items_per_s or read_keys_per_s) on which a
#: workload's tracing overhead is taken, traced pass against untraced.
HEADLINE = {"serve-ingest": "ingest", "serve-query": "capacity", "fleet-ingest": "ingest"}


class Run:
    """Bookkeeping of one benchmark run: operations, checks, live processes."""

    def __init__(self, workload: str, seed: int, config: dict,
                 server_cpus: set[int] | None) -> None:
        self.workload = workload
        self.server_cpus = server_cpus
        self.seed = seed
        self.config = config
        self.spec = config["workloads"][workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.work = WORK_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._dirs = 0
        self.live: list = []

    def op(self, count: int = 1) -> None:
        self.attempted += count

    def expect(self, ok: bool, problem: str, failed_ops: int = 1) -> None:
        if not ok:
            self.failed += failed_ops
            self.problems.append(problem)

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.work / f"{self._dirs:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def trace_path(self, traced: bool) -> Path | None:
        """Where a traced server writes its spans (None when untraced)."""
        return self.fresh_dir("trace") / "spans.json" if traced else None

    def spawn(self, store_dir: Path, algorithm: str, memory_bytes: float, seed: int,
              trace_out: Path | None) -> ServerProcess:
        server = ServerProcess(store_dir, self.config["serve"], self.config["client"],
                               algorithm, memory_bytes, seed, trace_out, self.server_cpus)
        self.live.append(server)
        return server

    def close(self) -> None:
        """Stop every process this run started and drop its scratch files."""
        for process in self.live:
            if isinstance(process, ServerProcess):
                process.kill()
            elif process.poll() is None:
                process.kill()
                process.wait()
        self.live.clear()
        shutil.rmtree(self.work, ignore_errors=True)


class Pass:
    """Samples and trace material of one pass (a run of rounds)."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.timed_s = 0.0
        self.exports: list[dict] = []
        self.busy_windows: list[tuple[int, int]] = []
        self.server_dumps: list[dict] = []
        self.stats: list[dict] = []
        self.extra: dict[str, float] = {}

    def window(self, started_ns: int) -> None:
        """Record one server-facing timed phase that began at ``started_ns``."""
        ended = time.perf_counter_ns()
        self.timed_s += (ended - started_ns) / 1e9
        self.busy_windows.append((started_ns, ended))


def _rounds_left(done: int, timed_s: float, seconds: float, min_rounds: int,
                 max_rounds: int | None) -> bool:
    if done < min_rounds:
        return True
    if max_rounds is not None and done >= max_rounds:
        return False
    return timed_s < seconds


def _check_answers(run: Run, answers, expected, what: str) -> None:
    wrong = sum(
        1 for index, estimates in answers if not np.array_equal(estimates, expected[index])
    )
    run.expect(wrong == 0, f"{what}: {wrong} of {len(answers)} answers differ from the reference",
               failed_ops=wrong)


def _check_store_health(run: Run, stats: dict, expected_items: int) -> None:
    store = stats.get("store", {})
    run.expect(store.get("degraded") is False, f"store degraded: {store.get('degrade_reason')}")
    run.expect(store.get("dropped_batches") == 0 and store.get("dropped_publishes") == 0,
               f"store dropped {store.get('dropped_batches')} batches / "
               f"{store.get('dropped_publishes')} publishes")
    run.expect(stats.get("items_ingested") == expected_items,
               f"server absorbed {stats.get('items_ingested')} items, sent {expected_items}")


def _read_phases(run: Run, current: Pass, server: ServerProcess, pool, expected,
                 spec: dict) -> None:
    """One-outstanding reads (latency), then pipelined reads (capacity).

    The latency phase reads every request of the pool at least once, so
    every pooled key's served answer is checked against the reference.
    """
    client_settings = run.config["client"]
    latency_requests = max(spec["latency_requests"], len(pool))
    capacity_requests = spec["capacity_requests"]
    call_requests = spec["capacity_call_requests"]
    started = time.perf_counter_ns()
    latencies, answers = latency_phase(server.client, pool, latency_requests)
    current.window(started)
    run.op(latency_requests)
    current.samples["latency"].extend(latencies)
    _check_answers(run, answers, expected, "one-outstanding reads")

    started = time.perf_counter_ns()
    rates, answers = capacity_phase(
        server.client, pool, capacity_requests, call_requests,
        client_settings["pipeline_window"], client_settings["busy_retries"],
    )
    current.window(started)
    run.op(capacity_requests)
    current.samples["capacity"].extend(rates)
    _check_answers(run, answers, expected, "pipelined reads")


def _collect_trace(current: Pass, server: ServerProcess, stats: dict | None = None) -> None:
    """A traced server's counters (STATS) and spans, taken before it dies."""
    current.stats.append(stats if stats is not None else server.client.stats())
    dump = server.dump_trace()
    current.exports.append(dump["spans"])
    current.server_dumps.append(dump)


def _ingest(run: Run, current: Pass, server: ServerProcess, batches) -> None:
    started = time.perf_counter_ns()
    items, elapsed = ingest_phase(server.client, batches)
    current.window(started)
    run.op(len(batches) + 1)
    current.samples["ingest"].append(items / elapsed)


def _finish_server(run: Run, current: Pass, server: ServerProcess) -> None:
    """Collect a traced server's spans and counters, then SIGKILL it."""
    if current.traced:
        _collect_trace(current, server)
    server.kill()
    run.live.remove(server)


# ---------------------------------------------------------------- serve-*
class ServeInputs:
    """Seeded traffic of a serve workload plus its in-process reference."""

    def __init__(self, run: Run) -> None:
        spec = run.spec
        traffic = run.config["serve_traffic"]
        serve = run.config["serve"]
        self.preload = run.workload == "serve-query"
        batch_count = spec["preload_batches"] if self.preload else spec["round_batches"]
        pool_keys = spec["request_pool"] * traffic["read_keys"] if self.preload else 0
        total = batch_count * traffic["batch_keys"] + traffic["tail_keys"] + pool_keys
        keys = zipf_keys(run.seed, total, traffic["zipf_skew"], traffic["universe"],
                         traffic["key_bits"])
        stream_end = batch_count * traffic["batch_keys"]
        self.batches = split_batches(keys[:stream_end], traffic["batch_keys"])
        # The partial batch sent after FLUSH, which the warm restart replays.
        tail_end = stream_end + traffic["tail_keys"]
        self.tail = keys[stream_end:tail_end]
        if self.preload:
            self.pool = split_batches(keys[tail_end:], traffic["read_keys"])
        else:
            # Every distinct key of the ingested stream, read back once per pass.
            self.pool = split_batches(np.unique(keys[:stream_end]), traffic["read_keys"])

        from repro.serve.server import ServeConfig

        self.algorithm = serve["algorithm"]
        self.memory_bytes = serve["memory_bytes"]
        self.sketch_seed = serve["sketch_seed"]
        reference = ServeConfig(self.algorithm, self.memory_bytes, seed=self.sketch_seed).build_sketch()
        started = time.perf_counter()
        for batch in self.batches:
            reference.insert_batch(batch)
        self.reference_items_per_s = stream_end / (time.perf_counter() - started)
        self.items = stream_end
        self.pool_answers = [reference.query_batch(keys) for keys in self.pool]
        self.first_expected = (self.pool_answers[0] if self.preload
                               else np.zeros(len(self.pool[0]), dtype=np.int64))

        # Every key within the tolerance of its exact count, no insert failures.
        distinct, exact = np.unique(keys[:stream_end], return_counts=True)
        error = np.abs(reference.query_batch(distinct) - exact)
        run.expect(reference.insert_failures == 0,
                   f"reference sketch had {reference.insert_failures} insert failures")
        run.expect(int(error.max()) <= reference.tolerance,
                   f"{int((error > reference.tolerance).sum())} keys exceed the tolerance "
                   f"{reference.tolerance}", failed_ops=int((error > reference.tolerance).sum()))
        reference.insert_batch(self.tail)
        self.tail_keys = np.unique(self.tail)
        self.tail_expected = reference.query_batch(self.tail_keys)
        run.expect(reference.insert_failures == 0, "reference sketch failed inserts on the tail")


def serve_pass(run: Run, inputs: ServeInputs, traced: bool, seconds: float,
               min_rounds: int, max_rounds: int | None) -> Pass:
    spec = run.spec
    current = Pass(traced)
    rounds = 0
    while _rounds_left(rounds, current.timed_s, seconds, min_rounds, max_rounds):
        rounds += 1
        store_dir = run.fresh_dir("store")
        server = run.spawn(store_dir, inputs.algorithm, inputs.memory_bytes,
                           inputs.sketch_seed, run.trace_path(traced))
        if inputs.preload:
            _ingest(run, current, server, inputs.batches)
        estimates, _ = server.client.query_batch(inputs.pool[0])
        current.samples["setup"].append(time.perf_counter() - server.spawned)
        run.op()
        run.expect(np.array_equal(estimates, inputs.first_expected),
                   "first answer after set-up differs from the reference")
        if not inputs.preload:
            _ingest(run, current, server, inputs.batches)

        _read_phases(run, current, server, inputs.pool, inputs.pool_answers, spec)
        current.samples["rss"].append(vm_hwm_mb(server.proc.pid))

        server.client.ingest(inputs.tail)
        stats = server.client.stats()
        run.op(2)
        _check_store_health(run, stats, inputs.items + len(inputs.tail))
        if traced:
            _collect_trace(current, server, stats)
        killed = time.perf_counter()
        server.kill()
        run.live.remove(server)
        server = run.spawn(store_dir, inputs.algorithm, inputs.memory_bytes,
                           inputs.sketch_seed, run.trace_path(traced))
        estimates, _ = server.client.query_batch(inputs.tail_keys)
        current.samples["restart"].append(time.perf_counter() - killed)
        run.op()
        run.expect(np.array_equal(estimates, inputs.tail_expected),
                   "first answer after the warm restart misses the replayed tail")
        _finish_server(run, current, server)
    return current


# ----------------------------------------------------------------- fleet
class FleetCoordinator:
    """The ``fleet_main.py`` process, driven one JSON line per command."""

    def __init__(self, run: Run, store_dir: Path, out_dir: Path, traced: bool) -> None:
        command = [
            sys.executable, "-u", str(BENCH_DIR / "fleet_main.py"),
            "--seed", str(run.seed), "--store", str(store_dir), "--out", str(out_dir),
        ]
        if traced:
            command += ["--trace-out", str(out_dir / "spans.json")]
        if run.server_cpus:
            command += ["--worker-cpus", ",".join(map(str, sorted(run.server_cpus)))]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stdin=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)
        run.live.append(self.proc)

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"fleet coordinator exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._receive()


def fleet_pass(run: Run, traced: bool, seconds: float, min_rounds: int,
               max_rounds: int | None) -> Pass:
    """Fleet rounds, each followed by a serving slice on the fleet's result.

    A slice restarts the query server on the store holding the merged
    sketch (from SIGKILL of the previous one to its first answer) and runs
    a share of the read phases, so every metric samples the whole run.
    The store's first server, started once the references are built, is a
    cold start and gives no restart sample.
    """
    spec, serve = run.spec, run.config["serve"]
    current = Pass(traced)
    store_dir = run.fresh_dir("fleet-store")
    out_dir = run.fresh_dir("fleet-out")
    coordinator = FleetCoordinator(run, store_dir, out_dir, traced)
    pool = expected = server = None

    def spawn() -> ServerProcess:
        return run.spawn(store_dir, spec["algorithm"], serve["memory_bytes"],
                         serve["sketch_seed"], run.trace_path(traced))

    rounds = 0
    while _rounds_left(rounds, current.timed_s, seconds, min_rounds, max_rounds):
        rounds += 1
        result = coordinator.ask("round")
        run.op()
        run.problems.extend(result["problems"])
        run.failed += len(result["problems"])
        current.samples["setup"].extend(result["setup_s"])
        current.samples["ingest"].extend(result["items_per_s"])
        current.timed_s += result["round_s"]
        if pool is None:
            # Peak of set-up plus the first round's fleet runs, read from
            # outside before the coordinator builds its single-node references.
            current.samples["rss"].append(vm_hwm_mb(coordinator.proc.pid))
            references = coordinator.ask("refs")
            run.op()
            run.problems.extend(references["problems"])
            run.failed += len(references["problems"])
            current.extra.update(references["extra"])
            reference = np.load(out_dir / "reference.npz")
            pool, expected = list(reference["pool"]), list(reference["answers"])
            server = spawn()

        if traced:
            _collect_trace(current, server)
        killed = time.perf_counter()
        server.kill()
        run.live.remove(server)
        server = spawn()
        estimates, _ = server.client.query_batch(pool[0])
        current.samples["restart"].append(time.perf_counter() - killed)
        run.op()
        run.expect(np.array_equal(estimates, expected[0]),
                   "first answer of the server on the fleet's store differs from single-node")
        _read_phases(run, current, server, pool, expected, spec)

    final = coordinator.ask("stop")
    current.extra.update(final["extra"])
    code = coordinator.proc.wait()
    coordinator.proc.stdin.close()
    coordinator.proc.stdout.close()
    run.live.remove(coordinator.proc)
    run.expect(code == 0, f"fleet coordinator exited with code {code}")
    if traced:
        with open(out_dir / "spans.json", encoding="utf-8") as handle:
            current.exports.append(json.load(handle))
    _finish_server(run, current, server)
    return current


# --------------------------------------------------------------- assembly
def end_to_end(run: Run, current: Pass, enforce_samples: bool) -> tuple[dict, dict, dict]:
    """The judged end-to-end metrics (value, unit), the reported-only read
    tails, and the sample count of each.

    Throughputs and the restart time are total work over total time (the
    harmonic mean of equal-work samples, the mean of equal-work restarts):
    this VM alternates between fast and slow spells of a few seconds, so
    the samples of one run fall into two modes and their median would flip
    between the two.  The set-up time is the median of its samples, so a
    single slow start does not move it.  Latencies are percentiles of every
    sample.

    Only the median latency is judged.  This VM stalls one-outstanding
    loopback round trips by milliseconds: usually 0.2-1.5% of them, but in
    spells of 10-30 s, which can cover a whole run, a tenth to a half.  p90
    then doubles while p50 moves by a tenth, so over ten runs p90 spreads
    by a third and p99 by half, both wider than the 0.25 bound of the
    judged timings in BENCHMARK.json.  Both are still reported with their
    sample counts (the third return value); p99 is the highest percentile
    the samples support.
    """
    samples = current.samples
    latencies = samples["latency"]
    if enforce_samples:
        run.expect(tail_percentile(len(latencies)) is not None
                   and tail_percentile(len(latencies)) >= 99.0,
                   f"only {len(latencies)} latency samples: fewer than ten beyond p99")
    metrics = {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "ingest_items_per_s": (statistics.harmonic_mean(samples["ingest"]), "1/s"),
        "restart_s": (statistics.mean(samples["restart"]), "s"),
        "read_p50_ms": (percentile(latencies, 50.0) * 1e3, "ms"),
        "read_keys_per_s": (statistics.harmonic_mean(samples["capacity"]), "1/s"),
        "peak_rss_mb": (statistics.median(samples["rss"]), "MB"),
    }
    counts = {
        "setup_s": len(samples["setup"]),
        "ingest_items_per_s": len(samples["ingest"]),
        "restart_s": len(samples["restart"]),
        "read_p50_ms": len(latencies),
        "read_keys_per_s": len(samples["capacity"]),
        "peak_rss_mb": len(samples["rss"]),
        "read_p90_ms": len(latencies),
        "read_p99_ms": len(latencies),
    }
    informational = {
        "read_p90_ms": (percentile(latencies, 90.0) * 1e3, "ms"),
        "read_p99_ms": (percentile(latencies, 99.0) * 1e3, "ms"),
    }
    return metrics, counts, informational


def per_layer(run: Run, traced: Pass, untraced: Pass, reference_items_per_s: float) -> dict:
    rows = tracing.merge_exports(traced.exports)
    extra = {
        "sketches.reference_items_per_s": reference_items_per_s,
        "serve.import_s": sum(dump["import_ns"] for dump in traced.server_dumps) / 1e9,
        "serve.busy_rejected": sum(dump["server"].get("busy_rejected", 0)
                                   for dump in traced.server_dumps),
        "serve.max_inflight": max([dump["server"].get("max_inflight_observed", 0)
                                   for dump in traced.server_dumps] or [0]),
        "serve.staleness_items": max([stats["max_interval_items"] for stats in traced.stats] or [0]),
        "temporal.evictions": sum(stats["temporal"]["evictions"] for stats in traced.stats),
        "temporal.retained_bytes": max([stats["temporal"]["retained_bytes"]
                                        for stats in traced.stats] or [0]),
        "distributed.max_outstanding": 0,
        "distributed.coordinator_cpu_s": 0.0,
        "distributed.worker_cpu_s": 0.0,
        "distributed.single_node_items_per_s": 0.0,
    }
    extra.update(traced.extra)
    values = tracing.layer_metrics(rows, extra, traced.busy_windows)
    headline = HEADLINE[run.workload]
    values["trace.overhead_share"] = (
        statistics.harmonic_mean(untraced.samples[headline])
        / statistics.harmonic_mean(traced.samples[headline]) - 1.0
    )
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    """One benchmark run; returns the result record (metrics, counts, checks)."""
    plan = cpu_plan()
    if plan is not None:
        os.sched_setaffinity(0, plan[0])
    run = Run(workload, seed, config, plan[1] if plan else None)
    try:
        reference_rate = 0.0
        if workload == "fleet-ingest":
            def one_pass(traced, pass_seconds, min_rounds, max_rounds):
                return fleet_pass(run, traced, pass_seconds, min_rounds, max_rounds)
        else:
            inputs = ServeInputs(run)
            reference_rate = inputs.reference_items_per_s

            def one_pass(traced, pass_seconds, min_rounds, max_rounds):
                return serve_pass(run, inputs, traced, pass_seconds, min_rounds, max_rounds)

        # The load generator's own long-lived objects (inputs, reference
        # answers) leave the cyclic collector, so its collections stay short
        # and do not show up as server latency.
        gc.collect()
        gc.freeze()
        raw, baselines, informational = {}, {}, {}
        if trace:
            rounds = config["trace_rounds"]
            untraced = one_pass(False, 0.0, rounds, rounds)
            # The load generator's own wrappers go in only now, so the
            # untraced pass ran without them.
            client_tracer = tracing.Tracer()
            tracing.install(client_tracer, "client")
            traced = one_pass(True, 0.0, rounds, rounds)
            traced.exports.append(client_tracer.export())
            metrics = {name: (value, _unit(name))
                       for name, value in per_layer(run, traced, untraced, reference_rate).items()}
            counts = {}
        else:
            current = one_pass(False, seconds, config["min_rounds"], None)
            metrics, counts, informational = end_to_end(run, current, enforce_samples=True)
            raw = {name: values for name, values in current.samples.items() if name != "latency"}
            # The timed correctness references, so every run shows what the
            # serving or fleet layers cost on top of a bare sketch.
            baselines = {"sketches.reference_items_per_s": reference_rate}
            baselines.update((name, value) for name, value in current.extra.items()
                             if name.endswith("_items_per_s"))
    except Exception as error:
        # A server that stops answering, BUSY beyond the retry budget, a
        # deadline or the watchdog: the run is failed, not crashed.
        traceback.print_exc()
        run.expect(False, f"run aborted: {type(error).__name__}: {error}")
        metrics, counts, raw, baselines, informational = {}, {}, {}, {}, {}
    finally:
        gc.unfreeze()
        run.close()
    return {
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": max(run.failed, 1) if run.problems else 0,
        "metrics": metrics,
        "informational": informational,
        "samples": counts,
        "raw_samples": raw,
        "baselines": baselines,
        "problems": run.problems,
    }


def _unit(name: str) -> str:
    if name.endswith("_items_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes") or name.startswith("wire.bytes"):
        return "bytes"
    if name.endswith("_items"):
        return "items"
    return "count"
