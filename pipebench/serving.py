"""Server processes and the timed phases run against them.

:class:`ServerProcess` starts one fresh ``repro-cli serve --async --store``
interpreter (through ``server_main.py``), reads the port it bound, and
connects one :class:`~repro.serve.server.QueryClient` over loopback TCP.
The phase functions are closed loops on that single connection: the next
request goes out only when the previous one (or, pipelined, the bounded
window) has been answered.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, ROOT, child_env

_SERVING_LINE = re.compile(r"^serving .* on (?P<host>[^\s:]+):(?P<port>\d+)")


class ServerProcess:
    """One server interpreter on ``store_dir`` plus its connected client."""

    def __init__(self, store_dir: Path, serve: dict, client: dict,
                 algorithm: str, memory_bytes: float, seed: int,
                 trace_out: Path | None = None, cpus: set[int] | None = None) -> None:
        from repro.distributed.transport import SocketChannel
        from repro.serve.server import QueryClient, RetryPolicy

        self.trace_out = trace_out
        command = [sys.executable, "-u", str(BENCH_DIR / "server_main.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [
            "--", "serve", "--async",
            "--store", str(store_dir),
            "--algorithm", algorithm,
            "--memory-bytes", str(memory_bytes),
            "--seed", str(seed),
            "--bind", serve["bind"],
            "--publish-every", str(serve["publish_every_items"]),
            "--ring-epochs", str(serve["ring_epochs"]),
            "--max-tracked-keys", str(serve["max_tracked_keys"]),
            "--max-inflight", str(serve["max_inflight"]),
            "--backlog", str(serve["backlog"]),
            "--drain-timeout", str(serve["drain_timeout_s"]),
        ]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True, env=child_env(), cwd=ROOT,
        )
        self.client = None
        try:
            if cpus:
                os.sched_setaffinity(self.proc.pid, cpus)
            host, port = self._read_address()
            sock = socket.create_connection((host, port), timeout=client["deadline_s"])
            sock.settimeout(None)
            self.client = QueryClient(
                SocketChannel(sock),
                retry_policy=RetryPolicy(
                    max_retries=client["busy_retries"],
                    deadline_seconds=client["deadline_s"],
                ),
            )
        except BaseException:
            self.kill()
            raise

    def _read_address(self) -> tuple[str, int]:
        for line in self.proc.stdout:
            match = _SERVING_LINE.match(line)
            if match:
                return match.group("host"), int(match.group("port"))
        raise RuntimeError(f"server exited with code {self.proc.wait()} before listening")

    def dump_trace(self, timeout: float = 60.0) -> dict:
        """Ask a traced server for its spans (SIGUSR1) and wait for the file."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.trace_out.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server wrote no spans")
            time.sleep(0.005)
        with open(self.trace_out, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        """SIGKILL (a crash, as far as the store can tell) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ------------------------------------------------------------------- phases
def ingest_phase(client, batches) -> tuple[int, float]:
    """Send ``batches`` back to back, then FLUSH; items and seconds to the reply."""
    started = time.perf_counter()
    items = 0
    for batch in batches:
        client.ingest(batch)
        items += len(batch)
    client.flush()
    return items, time.perf_counter() - started


def latency_phase(client, pool, requests: int) -> tuple[list[float], list]:
    """``requests`` reads cycling through ``pool``, one outstanding at a time."""
    latencies = []
    answers = []
    for index in range(requests):
        keys = pool[index % len(pool)]
        started = time.perf_counter()
        estimates, _ = client.query_batch(keys)
        latencies.append(time.perf_counter() - started)
        answers.append((index % len(pool), estimates))
    return latencies, answers


def capacity_phase(client, pool, requests: int, call_requests: int,
                   window: int, busy_retries: int) -> tuple[list[float], list]:
    """Pipelined reads under a fixed window; keys answered per second per call."""
    rates = []
    answers = []
    for first in range(0, requests, call_requests):
        indexes = [i % len(pool) for i in range(first, min(requests, first + call_requests))]
        started = time.perf_counter()
        results = client.query_batches_pipelined(
            [pool[i] for i in indexes], max_inflight=window, busy_retries=busy_retries
        )
        elapsed = time.perf_counter() - started
        rates.append(sum(len(pool[i]) for i in indexes) / elapsed)
        answers.extend(zip(indexes, (estimates for estimates, _ in results)))
    return rates, answers
