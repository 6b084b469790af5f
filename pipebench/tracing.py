"""In-memory span tracing around each layer's public entry points.

The benchmark never edits the library: :func:`install` replaces a layer's
public functions and methods with thin wrappers, from the benchmark's own
files, in whichever process it runs (load generator, server, fleet
coordinator).  A wrapper records one span per call — name, start, end,
parent span and a request id shared by every span under one root call —
plus a count taken at the same boundary (items, keys, bytes, calls).
Spans stay in memory and are written out once, when the process ends.

A layer's self time is its span minus the part its child spans cover
(:func:`self_times`); :func:`layer_metrics` turns the spans of a traced run
into the per-layer metrics named in ``config.json``.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

_TRACED = "__pipebench_traced__"


def _one(args, kwargs, result) -> int:
    return 1


def _len_arg1(args, kwargs, result) -> int:
    return len(args[1])


def _len_arg0(args, kwargs, result) -> int:
    return len(args[0])


def _len_result(args, kwargs, result) -> int:
    return len(result) if result else 0


def _truthy_result(args, kwargs, result) -> int:
    return 1 if result else 0


class Tracer:
    """Span recorder of one process (single-threaded callers only)."""

    def __init__(self) -> None:
        self.enabled = True
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: list[int] = []
        self._stack: list[int] = []
        self._next_request = 0
        # Forked children (pipe-transport workers) exit through os._exit and
        # never write spans; they must not pay for recording them either.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _open(self, name: str) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent < 0:
            request = self._next_request
            self._next_request += 1
        else:
            request = self.requests[parent]
        index = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.requests.append(request)
        self.counts.append(0)
        self.ends.append(0)
        stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int, count: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()
        self.counts[index] = count

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one ``name`` span per call (idempotent)."""
        if getattr(fn, _TRACED, False):
            return fn
        count = count or _one
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(index, count(args, kwargs, result))

        setattr(traced, _TRACED, True)
        return traced

    def wrap_iter(self, fn, name: str):
        """A generator function whose every ``next()`` is one ``name`` span."""
        if getattr(fn, _TRACED, False):
            return fn
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                if not tracer.enabled:
                    item = next(iterator, _END)
                else:
                    index = tracer._open(name)
                    item = _END
                    try:
                        item = next(iterator, _END)
                    finally:
                        tracer._close(index, 0 if item is _END else len(item))
                if item is _END:
                    return
                yield item

        setattr(traced, _TRACED, True)
        return traced

    def patch(self, owner, attribute: str, name: str, count=None) -> None:
        """Replace ``owner.attribute`` (module global or class method) in place."""
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, count))

    def export(self) -> dict:
        """Closed spans as parallel lists (what a process writes at its end)."""
        closed = [i for i, end in enumerate(self.ends) if end]
        position = {index: rank for rank, index in enumerate(closed)}
        return {
            "pid": os.getpid(),
            "names": [self.names[i] for i in closed],
            "starts": [self.starts[i] for i in closed],
            "ends": [self.ends[i] for i in closed],
            "parents": [position.get(self.parents[i], -1) for i in closed],
            "requests": [self.requests[i] for i in closed],
            "counts": [self.counts[i] for i in closed],
        }


_END = object()


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part its direct children cover.

    Children are clipped to the parent and their union is subtracted, so a
    re-entrant call (a wrapped function calling itself, or a wrapped
    override calling its wrapped base) charges every nanosecond to exactly
    one span: the self times of a tree sum to its root's duration.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: starts[c]):
            low = max(starts[child], cursor)
            high = min(ends[child], end)
            if high > low:
                covered += high - low
                cursor = high
        result.append(end - start - covered)
    return result


# ------------------------------------------------------------------ installs
def install(tracer: Tracer, role: str) -> dict:
    """Wrap the layers a ``role`` process calls; returns captured handles.

    Every role gets the shared layers (sketches, hashing, kernels, wire,
    transport).  ``client`` (the load generator) gets nothing more;
    ``server`` (a ``repro-cli serve`` process, installed before the service
    is built) adds serve, store and temporal, and ``fleet`` (the
    ``run_dynamic_ingest`` coordinator) adds distributed.ingest and streams.
    """
    from repro.core.reliable_sketch import ReliableSketch
    from repro.distributed import transport, wire
    from repro.hashing.families import EncodedKeyBatch, HashFunction
    from repro.kernels import resolve_backend
    from repro.serve import server as serve_server
    from repro.sketches.cm import CountMinSketch

    for cls in (ReliableSketch, CountMinSketch):
        tracer.patch(cls, "insert_batch", "sketches.insert_batch", _len_arg1)
        tracer.patch(cls, "query_batch", "sketches.query_batch", _len_arg1)
        tracer.patch(cls, "state_snapshot", "sketches.state_snapshot")
        tracer.patch(cls, "state_restore", "sketches.state_restore")
    tracer.patch(HashFunction, "raw_batch", "hashing.raw_batch", _len_arg1)
    tracer.patch(EncodedKeyBatch, "take", "hashing.take", _len_arg1)

    # Sketches bind the resolved backend object at construction; wrapping
    # its entry points in place reaches every sketch of the process.
    backend = resolve_backend(None)
    for field in ("cu_update", "saturating_update", "reliable_layer_update",
                  "elastic_update", "coco_update", "hashpipe_update", "precision_update"):
        object.__setattr__(backend, field, tracer.wrap(getattr(backend, field), "kernels.update"))

    # Module-level functions are patched in every namespace that imported
    # them.  The store's own wire imports stay unwrapped on purpose: WAL
    # frame encoding is the store's work, not the wire's.
    tracer.patch(wire, "encode_batch", "wire.encode_batch")
    tracer.patch(wire, "decode_batch", "wire.decode_batch")
    tracer.patch(serve_server, "encode_batch", "wire.encode_batch")
    tracer.patch(serve_server, "decode_batch", "wire.decode_batch")
    for codec in ("encode_query_request", "decode_query_request",
                  "encode_query_response", "decode_query_response"):
        tracer.patch(serve_server, codec, "wire.query_codec")
    for channel in (transport.SocketChannel, transport.PipeChannel):
        tracer.patch(channel, "send", "transport.send", _len_arg1)
        tracer.patch(channel, "recv", "transport.recv", _len_result)

    if role == "fleet":
        return _install_fleet(tracer)
    if role == "server":
        _install_server(tracer)
    elif role != "client":
        raise ValueError(f"unknown trace role {role!r}")
    return {}


def _install_server(tracer: Tracer) -> None:
    import selectors

    from repro.serve import async_server, service, snapshots
    from repro.serve import server as serve_server
    from repro.store import store
    from repro.temporal import ring

    tracer.patch(service.SketchService, "ingest", "serve.ingest", _len_arg1)
    tracer.patch(snapshots, "replicate_sketch", "serve.replicate")
    tracer.patch(serve_server, "answer_request", "serve.answer")
    tracer.patch(async_server, "answer_request", "serve.answer")
    tracer.patch(serve_server.ServeConfig, "build_service", "serve.build_service")
    tracer.patch(async_server, "decode_batch", "wire.decode_batch")
    tracer.patch(async_server, "decode_query_request", "wire.query_codec")
    tracer.patch(async_server, "encode_query_response", "wire.query_codec")
    tracer.patch(store.SketchStore, "append_batch", "store.append_batch", _len_arg1)
    tracer.patch(store.SketchStore, "publish_epoch", "store.publish_epoch", _truthy_result)
    tracer.patch(store.SketchStore, "compact", "store.compact")
    # restore_into is the store's recovery entry point: scan + validate
    # (recover), restore the snapshot, replay the journal tail.
    tracer.patch(store.SketchStore, "restore_into", "store.recover")
    tracer.patch(ring.EpochRing, "offer", "temporal.offer")
    # The event loop's idle time is its wait in select().
    tracer.patch(selectors.DefaultSelector, "select", "serve.select")


def _install_fleet(tracer: Tracer) -> dict:
    from repro.distributed import ingest
    from repro.sketches.sharded import EpochRouter
    from repro.streams import traces

    coordinator = ingest.DynamicIngestCoordinator
    tracer.patch(coordinator, "send_batch", "distributed.send_batch", _len_arg1)
    tracer.patch(coordinator, "checkpoint", "distributed.checkpoint")
    tracer.patch(coordinator, "collect", "distributed.collect")
    tracer.patch(EpochRouter, "route", "distributed.route", _len_arg1)
    tracer.patch(ingest, "tree_merge", "distributed.merge", _len_arg0)
    ingest.chunked = tracer.wrap_iter(ingest.chunked, "streams.chunk")
    return {
        "run_dynamic_ingest": tracer.wrap(ingest.run_dynamic_ingest, "distributed.run"),
        "ip_trace": tracer.wrap(traces.ip_trace, "streams.generate", _len_result),
    }


# ------------------------------------------------------------------- metrics
def merge_exports(exports: list[dict]) -> list[tuple]:
    """All spans of several processes as ``(pid, name, parent_name, self_ns, count)``."""
    rows = []
    for export in exports:
        names = export["names"]
        parents = export["parents"]
        selfs = self_times(export["starts"], export["ends"], parents)
        for index, name in enumerate(names):
            parent = parents[index]
            rows.append((
                export["pid"], name, names[parent] if parent >= 0 else None,
                selfs[index], export["counts"][index],
                export["starts"][index], export["ends"][index],
            ))
    return rows


def _overlap_ns(start: int, end: int, windows) -> int:
    return sum(max(0, min(end, high) - max(start, low)) for low, high in windows)


def layer_metrics(rows: list[tuple], extra: dict, busy_windows) -> dict:
    """The per-layer metrics of one traced run.

    ``rows`` come from :func:`merge_exports`; ``extra`` carries what is
    measured outside spans (CPU times, server counters, reference rates);
    ``busy_windows`` are the server-facing timed phases over which the
    event loop's busy share is taken.
    """
    self_ns: dict[tuple, int] = defaultdict(int)
    counts: dict[tuple, int] = defaultdict(int)
    calls: dict[tuple, int] = defaultdict(int)
    select_ns = 0
    for _pid, name, parent, self_time, count, start, end in rows:
        for key in ((name, None), (name, parent)) if parent else ((name, None),):
            self_ns[key] += self_time
            counts[key] += count
            calls[key] += 1
        if name == "serve.select" and busy_windows:
            select_ns += _overlap_ns(start, end, busy_windows)

    def s(name, parent=None):
        return self_ns[(name, parent)] / 1e9

    window_ns = sum(high - low for low, high in busy_windows)
    values = {
        "streams.generate_s": s("streams.generate"),
        "streams.chunk_s": s("streams.chunk"),
        "hashing.hash_s": s("hashing.raw_batch"),
        "hashing.hash_keys": counts[("hashing.raw_batch", None)],
        "hashing.take_s": s("hashing.take"),
        "kernels.update_s": s("kernels.update"),
        "kernels.update_calls": calls[("kernels.update", None)],
        "sketches.insert_s": s("sketches.insert_batch"),
        "sketches.insert_items": counts[("sketches.insert_batch", None)],
        "sketches.query_s": s("sketches.query_batch"),
        "sketches.query_keys": counts[("sketches.query_batch", None)],
        "serve.publish_s": s("serve.replicate"),
        "serve.publishes": calls[("serve.replicate", None)],
        "serve.publish.state_snapshot_s": s("sketches.state_snapshot", "serve.replicate"),
        "serve.publish.state_restore_s": s("sketches.state_restore", "serve.replicate"),
        "serve.ingest_self_s": s("serve.ingest"),
        "serve.answer_s": s("serve.answer"),
        "serve.answers": calls[("serve.answer", None)],
        "serve.loop_busy_share": (1.0 - select_ns / window_ns) if window_ns else 0.0,
        "serve.build_service_s": s("serve.build_service"),
        "store.wal_append_s": s("store.append_batch"),
        "store.wal_frames": calls[("store.append_batch", None)],
        "store.publish_s": s("store.publish_epoch"),
        "store.publish.state_snapshot_s": s("sketches.state_snapshot", "store.publish_epoch"),
        "store.snapshots_written": counts[("store.publish_epoch", None)],
        "store.compact_s": s("store.compact"),
        "store.recover_s": s("store.recover"),
        "store.recover.state_restore_s": s("sketches.state_restore", "store.recover"),
        "store.replay_items": counts[("sketches.insert_batch", "store.recover")],
        "temporal.offer_s": s("temporal.offer"),
        "wire.encode_batch_s": s("wire.encode_batch"),
        "wire.decode_batch_s": s("wire.decode_batch"),
        "wire.query_codec_s": s("wire.query_codec"),
        "wire.bytes_sent": counts[("transport.send", None)],
        "wire.bytes_received": counts[("transport.recv", None)],
        "transport.send_s": s("transport.send"),
        "transport.recv_wait_s": s("transport.recv"),
        "distributed.driver_self_s": s("distributed.run"),
        "distributed.route_s": s("distributed.route"),
        "distributed.send_batch_self_s": s("distributed.send_batch"),
        "distributed.credit_wait_s": s("transport.recv", "distributed.send_batch"),
        "distributed.checkpoints": calls[("distributed.checkpoint", None)],
        "distributed.checkpoint_s": s("distributed.checkpoint"),
        "distributed.collect_s": s("distributed.collect"),
        "distributed.merge_s": s("distributed.merge"),
    }
    values.update(extra)
    return values
