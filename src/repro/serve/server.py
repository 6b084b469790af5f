"""Remote serving: the query loop and client over the distributed transports.

The serving layer deliberately reuses the distributed-ingest machinery
instead of growing its own networking stack:

* **Writes** travel as ``MSG_BATCH`` frames (packed key encodings, value
  compression) — the same batch payload a coordinator ships to an ingest
  worker inside its routed frames.
* **Reads** travel as the new ``MSG_QUERY``/``MSG_QUERY_REPLY`` frames
  (:mod:`repro.distributed.wire`), each reply stamped with the epoch id
  that answered it.
* **Transports** are the same ``inproc``/``pipe``/``tcp`` backends: a
  channel is a channel, whether it carries ingest batches or queries.

:func:`serve_main` is the server-side event loop (symmetric to
``ingest.dynamic_worker_main``): stateless until a CONFIG frame describes
the service, then ingesting batches and answering queries until the
channel closes.  :class:`QueryClient` is the caller side.  :class:`ServingSession`
wires one server behind any transport backend and hands back a connected
client — the entry point of ``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import random
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.distributed.transport import (
    Channel,
    ChannelTimeoutError,
    SocketChannel,
    Transport,
    create_transport,
)
from repro.distributed.wire import (
    MSG_BATCH,
    MSG_CONFIG,
    MSG_QUERY,
    MSG_QUERY_REPLY,
    MSG_SHUTDOWN,
    QUERY_FLUSH,
    QUERY_KEYS,
    QUERY_STATS,
    QUERY_TOP_K,
    STATUS_BUSY,
    STATUS_EPOCH_GONE,
    STATUS_OK,
    QueryResponse,
    WireFormatError,
    decode_batch,
    decode_config,
    decode_frame,
    decode_query_request,
    decode_query_response,
    encode_batch,
    encode_config,
    encode_frame,
    encode_query_request,
    encode_query_response,
)
# Typed rejection errors live in their own module (the temporal ring raises
# EpochGoneError without touching the transport stack); re-exported here
# because this is where callers historically imported ServerBusyError from.
from repro.serve.errors import (  # noqa: F401  (re-exports)
    EpochGoneError,
    QueryRejectedError,
    ServerBusyError,
)
from repro.serve.service import DEFAULT_CACHE_SIZE, SketchService
from repro.serve.snapshots import DEFAULT_PUBLISH_EVERY_ITEMS, EpochSnapshot
from repro.temporal import DEFAULT_RING_EPOCHS
from repro.sketches.base import Sketch, UnmergeableSketchError
from repro.sketches.registry import build_sketch
from repro.sketches.sharded import ShardedSketch


class ServeTimeoutError(RuntimeError):
    """A client-side deadline expired before the server answered.

    Raised by :class:`QueryClient` when a :class:`RetryPolicy` deadline is
    breached — either because BUSY retries (with backoff) did not get
    through in time, or because the server went silent mid-request /
    mid-pipeline and the bounded ``recv`` never produced a reply.  Typed so
    callers can tell "the server said no" (:class:`ServerBusyError`) from
    "the server said nothing" without string matching.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for BUSY retries.

    ``delay(attempt, rng)`` grows ``base_delay`` by ``multiplier`` per
    attempt, capped at ``max_delay``, then shrinks it by up to ``jitter``
    (a seeded fraction) so a fleet of rejected clients does not reconverge
    on the server in lockstep — the classic retry-storm fix.

    ``max_retries`` bounds the attempts (``None`` = unbounded — rely on the
    deadline); ``deadline_seconds`` bounds the *total* time a logical
    request (or one whole pipelined call) may take, including server
    silence: with a deadline set, replies are awaited with a bounded
    ``recv`` and its expiry raises :class:`ServeTimeoutError` instead of
    hanging on a dead server.
    """

    max_retries: int | None = 64
    base_delay: float = 0.001
    max_delay: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.5
    deadline_seconds: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be non-negative (or None)")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter:
            raw *= 1.0 - self.jitter * rng.random()
        return raw


def create_listener(host: str, port: int, backlog: int = 128) -> socket.socket:
    """A TCP listener with ``SO_REUSEADDR`` set.

    Restarting a server on the same port must not fail while the previous
    incarnation's connections sit in TIME_WAIT — the classic
    "address already in use" of a quickly restarted ``repro-cli serve``.
    ``backlog`` is the pending-accept queue; concurrent clients beyond it
    see connection refusals instead of unbounded kernel queueing.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(backlog)
    except OSError:
        sock.close()
        raise
    return sock


@dataclass(frozen=True)
class ServeConfig:
    """Everything a remote server needs to build its :class:`SketchService`.

    Travels as the first frame on a serving channel (the serving analogue of
    ``ingest.DynamicWorkerConfig``), so a TCP server process can be started
    with nothing but a listen address.  ``shards > 1`` builds the service
    over a :class:`~repro.sketches.sharded.ShardedSketch` of full-budget
    replicas.

    ``store_dir`` makes the service durable: :meth:`build_service` opens a
    :class:`~repro.store.SketchStore` there, recovers the newest valid
    epoch (warm restart — the sketch resumes bit-identical to the process
    that died), and journals everything ingested afterwards.  Requires a
    snapshotable algorithm (the store persists ``state_snapshot()``).

    ``ring_epochs`` budgets the temporal ring (how many published epochs
    stay pinnable for time-travel and windowed reads); on a warm restart
    the older retained on-disk snapshots are rehydrated into the ring, so
    ``--epoch`` pins survive a process death up to the store's retention.
    """

    algorithm: str
    memory_bytes: float
    seed: int = 0
    shards: int = 1
    publish_every_items: int = DEFAULT_PUBLISH_EVERY_ITEMS
    cache_size: int = DEFAULT_CACHE_SIZE
    max_tracked_keys: int | None = None
    store_dir: str | None = None
    ring_epochs: int = DEFAULT_RING_EPOCHS
    sketch_kwargs: dict = field(default_factory=dict)

    def to_payload(self) -> bytes:
        return encode_config(
            {
                "algorithm": self.algorithm,
                "memory_bytes": self.memory_bytes,
                "seed": self.seed,
                "shards": self.shards,
                "publish_every_items": self.publish_every_items,
                "cache_size": self.cache_size,
                "max_tracked_keys": self.max_tracked_keys,
                "store_dir": self.store_dir,
                "ring_epochs": self.ring_epochs,
                "sketch_kwargs": self.sketch_kwargs,
            }
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "ServeConfig":
        config = decode_config(payload)
        try:
            return cls(
                algorithm=config["algorithm"],
                memory_bytes=config["memory_bytes"],
                seed=config.get("seed", 0),
                shards=config.get("shards", 1),
                publish_every_items=config.get(
                    "publish_every_items", DEFAULT_PUBLISH_EVERY_ITEMS
                ),
                cache_size=config.get("cache_size", DEFAULT_CACHE_SIZE),
                max_tracked_keys=config.get("max_tracked_keys"),
                store_dir=config.get("store_dir"),
                ring_epochs=config.get("ring_epochs", DEFAULT_RING_EPOCHS),
                sketch_kwargs=config.get("sketch_kwargs", {}),
            )
        except KeyError as missing:
            raise WireFormatError(f"serve config is missing {missing}") from None

    def build_sketch(self) -> Sketch:
        if self.shards > 1:
            return ShardedSketch.from_registry(
                self.algorithm, self.memory_bytes, self.shards,
                seed=self.seed, **self.sketch_kwargs,
            )
        return build_sketch(
            self.algorithm, self.memory_bytes, seed=self.seed, **self.sketch_kwargs
        )

    def build_service(self) -> SketchService:
        """The configured service, with the replica factory wired in.

        With ``store_dir``: opens the durable store, recovers the newest
        valid epoch + journal replay into a warm sketch, and seeds the
        epoch writer one epoch past the recovered one — the construction
        publish then immediately re-snapshots the warm state, so the
        journal debt is repaid the moment the service is up.  Cold start
        (an empty directory) builds exactly the undurable service plus
        journaling.  The top-k key directory does not survive a restart
        (documented caveat — it re-fills from post-restart ingest).

        The recovery report's older retained snapshots — plus the recovered
        epoch itself, rebuilt as an immutable :class:`EpochSnapshot` — seed
        the temporal ring, so time-travel reads for on-disk epochs work
        from the first request after a warm restart.
        """
        store = None
        sketch = None
        start_epoch = 0
        start_items = 0
        ring_seed: list[EpochSnapshot] = []
        if self.store_dir is not None:
            from repro.sketches.registry import supports_snapshots
            from repro.store import SketchStore

            if not supports_snapshots(self.algorithm):
                raise ValueError(
                    f"--store needs a snapshotable algorithm; {self.algorithm!r} "
                    "does not support state snapshots"
                )
            store = SketchStore(self.store_dir, algorithm=self.algorithm)
            recovered = store.restore_into(self.build_sketch)
            if recovered is not None:
                sketch, report = recovered
                start_epoch = report.epoch_id + 1
                start_items = report.items_total
                restored_at = time.perf_counter()
                for ring_epoch_id, ring_items, ring_state in report.ring_epochs:
                    replica = self.build_sketch()
                    replica.state_restore(ring_state)
                    ring_seed.append(
                        EpochSnapshot(
                            epoch_id=ring_epoch_id,
                            items=ring_items,
                            sketch=replica,
                            published_at=restored_at,
                        )
                    )
                # The recovered epoch pins as published: its snapshot state
                # *without* the replayed journal tail (which belongs to the
                # in-flight epoch, not the published one).
                replica = self.build_sketch()
                replica.state_restore(report.state)
                ring_seed.append(
                    EpochSnapshot(
                        epoch_id=report.epoch_id,
                        items=report.items,
                        sketch=replica,
                        published_at=restored_at,
                    )
                )
        if sketch is None:
            sketch = self.build_sketch()
        return SketchService(
            sketch,
            factory=self.build_sketch,
            publish_every_items=self.publish_every_items,
            cache_size=self.cache_size,
            max_tracked_keys=self.max_tracked_keys,
            store=store,
            start_epoch=start_epoch,
            start_items=start_items,
            ring_epochs=self.ring_epochs,
            ring_seed=ring_seed,
        )


def answer_request(service: SketchService, payload: bytes) -> bytes:
    """Decode one MSG_QUERY payload, serve it, encode the MSG_QUERY_REPLY.

    Shared by every server front end (transport-launched ``serve_main``,
    the CLI's TCP accept loop and the async event loop), so request
    semantics cannot drift between deployment shapes — including the
    temporal extension: pinned-epoch and windowed reads resolve against
    the service's ring here, and a request naming an evicted epoch gets a
    typed :data:`~repro.distributed.wire.STATUS_EPOCH_GONE` reply (echoing
    the requested epoch) on every front end.  A windowed read on a family
    without the delta contract is a protocol violation and raises
    :class:`~repro.distributed.wire.WireFormatError`, like any other
    malformed request.
    """
    request = decode_query_request(payload)
    try:
        if request.kind == QUERY_KEYS:
            estimates, epoch_id = service.serve_batch(
                request.keys, epoch=request.epoch, window=request.window
            )
            return encode_query_response(
                request.request_id, QUERY_KEYS, epoch_id, estimates=estimates
            )
        if request.kind == QUERY_TOP_K:
            ranking, epoch_id = service.serve_top_k(request.k, epoch=request.epoch)
            return encode_query_response(
                request.request_id,
                QUERY_TOP_K,
                epoch_id,
                estimates=[estimate for _, estimate in ranking],
                keys=[key for key, _ in ranking],
            )
    except EpochGoneError as gone:
        # Echo the requested-and-gone epoch (clamped: a window reaching
        # before epoch 0 names a negative id the wire cannot carry).
        return encode_query_response(
            request.request_id,
            request.kind,
            max(0, gone.epoch_id or 0),
            status=STATUS_EPOCH_GONE,
        )
    except UnmergeableSketchError as error:
        raise WireFormatError(str(error)) from None
    if request.kind == QUERY_STATS:
        return encode_query_response(
            request.request_id,
            QUERY_STATS,
            service.current_epoch.epoch_id,
            stats=service.stats(),
        )
    # QUERY_FLUSH — decode_query_request already rejected unknown kinds.
    epoch = service.flush()
    return encode_query_response(request.request_id, QUERY_FLUSH, epoch.epoch_id)


def serve_channel(channel: Channel, service: SketchService) -> None:
    """Serve one configured channel until it closes (or SHUTDOWN arrives)."""
    while True:
        frame = channel.recv()
        if frame is None:
            break
        msg_type, payload = decode_frame(frame)
        if msg_type == MSG_BATCH:
            batch, values = decode_batch(payload)
            service.ingest(batch, values)
        elif msg_type == MSG_QUERY:
            channel.send(encode_frame(MSG_QUERY_REPLY, answer_request(service, payload)))
        elif msg_type == MSG_SHUTDOWN:
            break
        else:
            raise WireFormatError(
                f"unexpected message type {msg_type} on a serving channel"
            )


def serve_main(channel: Channel) -> None:
    """The remote server's event loop (same code on every transport).

    Frames in: CONFIG (build the service), BATCH (ingest through the epoch
    writer), QUERY (answer from the latest published epoch),
    SHUTDOWN / EOF (exit).  Mirrors ``ingest.dynamic_worker_main`` — and is
    launchable by any ``Transport`` the same way.
    """
    frame = channel.recv()
    if frame is None:
        channel.close()
        return
    msg_type, payload = decode_frame(frame)
    if msg_type != MSG_CONFIG:
        channel.close()
        raise WireFormatError("serving channel must start with a CONFIG frame")
    service = ServeConfig.from_payload(payload).build_service()
    try:
        serve_channel(channel, service)
    finally:
        channel.close()


def _rejection_error(response: QueryResponse) -> QueryRejectedError:
    """The typed error of a non-OK, non-BUSY reply (client side).

    ``decode_query_response`` already rejected statuses this build does not
    know, so the fallback branch only fires if a new status is added to the
    wire module without a mapping here — still a typed, non-retryable error.
    """
    if response.status == STATUS_EPOCH_GONE:
        return EpochGoneError(
            response.epoch_id, request_id=response.request_id, kind=response.kind
        )
    return QueryRejectedError(
        f"server rejected request {response.request_id} with status "
        f"{response.status}",
        request_id=response.request_id,
        kind=response.kind,
        epoch_id=response.epoch_id,
    )


class QueryClient:
    """Caller-side API over one serving channel.

    Writes (:meth:`ingest`) are fire-and-forget ``MSG_BATCH`` frames; reads
    round-trip and return epoch-stamped answers.  Channels are FIFO in both
    directions, so a read observes every write the same client sent before
    it (once the read's epoch has rotated past them — :meth:`flush` forces
    that).  Not thread-safe: one client per channel, one channel per client.

    ``retry_policy`` governs BUSY handling on every read path: rejected
    requests are retried under exponential backoff with seeded jitter
    instead of spinning, bounded by the policy's ``max_retries`` and (when
    set) its total deadline — a breach raises :class:`ServeTimeoutError`
    rather than hanging on a server that died mid-request.  Only BUSY is
    retried: any other non-OK status raises its typed
    :class:`~repro.serve.errors.QueryRejectedError` subclass immediately
    (an :class:`~repro.serve.errors.EpochGoneError` pin can never succeed,
    so retrying it would just burn the budget).
    """

    def __init__(self, channel: Channel, retry_policy: RetryPolicy | None = None) -> None:
        self._channel = channel
        self._next_request_id = 0
        self.retry_policy = retry_policy or RetryPolicy()
        self._retry_rng = random.Random(self.retry_policy.seed)
        #: BUSY replies absorbed by backoff (monitoring counter).
        self.busy_retries = 0

    # ----------------------------------------------------------- write side
    def ingest(self, keys: Sequence[object], values: Sequence[int] | int | None = None) -> None:
        """Ship one write batch (packed key encodings, no acknowledgement)."""
        self._channel.send(encode_frame(MSG_BATCH, encode_batch(keys, values)))

    # ------------------------------------------------------------ read side
    def _deadline(self) -> float | None:
        seconds = self.retry_policy.deadline_seconds
        return None if seconds is None else time.monotonic() + seconds

    def _recv_within(self, deadline: float | None) -> bytes | None:
        """One frame, bounded by the deadline when there is one."""
        if deadline is None:
            return self._channel.recv()
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ServeTimeoutError(
                f"deadline of {self.retry_policy.deadline_seconds}s exhausted "
                "waiting for the server"
            )
        try:
            return self._channel.recv(timeout=remaining)
        except ChannelTimeoutError:
            raise ServeTimeoutError(
                f"no reply within the {self.retry_policy.deadline_seconds}s deadline "
                "(server silent; channel no longer usable)"
            ) from None

    def _backoff(self, attempt: int, deadline: float | None) -> None:
        """Sleep before BUSY retry ``attempt``, never past the deadline."""
        delay = self.retry_policy.delay(attempt, self._retry_rng)
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeTimeoutError(
                    f"deadline of {self.retry_policy.deadline_seconds}s exhausted "
                    f"after {attempt} BUSY retries"
                )
            delay = min(delay, remaining)
        if delay > 0:
            time.sleep(delay)

    def _round_trip(self, kind: int, **request_kwargs) -> QueryResponse:
        policy = self.retry_policy
        deadline = self._deadline()
        attempt = 0
        while True:
            request_id = self._next_request_id
            self._next_request_id += 1
            self._channel.send(
                encode_frame(
                    MSG_QUERY, encode_query_request(request_id, kind, **request_kwargs)
                )
            )
            frame = self._recv_within(deadline)
            if frame is None:
                raise WireFormatError("server closed the channel mid-request")
            msg_type, payload = decode_frame(frame)
            if msg_type != MSG_QUERY_REPLY:
                raise WireFormatError(f"expected MSG_QUERY_REPLY, got {msg_type}")
            response = decode_query_response(payload)
            if response.request_id != request_id or response.kind != kind:
                raise WireFormatError(
                    f"response ({response.request_id}, kind {response.kind}) does not "
                    f"match request ({request_id}, kind {kind})"
                )
            if response.status == STATUS_BUSY:
                if policy.max_retries is not None and attempt >= policy.max_retries:
                    raise ServerBusyError(
                        response.request_id, response.kind, response.epoch_id
                    )
                self._backoff(attempt, deadline)
                self.busy_retries += 1
                attempt += 1
                continue
            if response.status != STATUS_OK:
                # Non-retryable rejections (EPOCH_GONE and any future
                # status) raise their typed error immediately: the old
                # treat-everything-as-BUSY path would burn the whole retry
                # budget on a request that can never succeed.
                raise _rejection_error(response)
            return response

    def query_batch(
        self,
        keys: Sequence[object],
        epoch: int | None = None,
        window: int | None = None,
    ) -> tuple[np.ndarray, int]:
        """Point estimates plus the id of the epoch that answered.

        ``epoch`` pins the read to a specific published epoch, ``window``
        asks for last-``window``-epochs estimates (subtractable families
        only); a pin the server's ring has evicted raises the typed,
        non-retryable :class:`~repro.serve.errors.EpochGoneError`.
        """
        response = self._round_trip(QUERY_KEYS, keys=keys, epoch=epoch, window=window)
        if len(response.estimates) != len(keys):
            raise WireFormatError("server returned a mismatched estimate count")
        return response.estimates, response.epoch_id

    def query_batches_pipelined(
        self,
        key_batches: Sequence[Sequence[object]],
        max_inflight: int = 64,
        busy_retries: int | None = 64,
    ) -> list[tuple[np.ndarray, int]]:
        """Issue many key-batch queries with up to ``max_inflight`` in flight.

        The pipelined read path: requests are streamed without waiting for
        their replies, so one connection amortises its round-trip latency
        over the whole window (both servers answer pipelined frames; the
        async server interleaves them with other connections).  Results
        come back in ``key_batches`` order regardless of BUSY retries —
        a BUSY reply re-enqueues its batch under a fresh request id *after
        the policy's backoff delay* (per-batch exponential growth with
        seeded jitter, so a saturated server is not hammered in a tight
        resend loop).  ``busy_retries`` bounds the total across the call
        (``None`` retries forever); the policy's ``deadline_seconds``
        bounds the whole call — replies are then awaited with a bounded
        ``recv``, so a server dying mid-pipeline raises
        :class:`ServeTimeoutError` instead of hanging.
        """
        results: list[tuple[np.ndarray, int] | None] = [None] * len(key_batches)
        # (index, earliest send time); 0 = immediately.  Backoff works by
        # re-enqueuing a rejected batch with a future ready time.
        unsent: deque[tuple[int, float]] = deque((i, 0.0) for i in range(len(key_batches)))
        attempts = [0] * len(key_batches)
        id_to_index: dict[int, int] = {}
        retries = 0
        deadline = self._deadline()
        while unsent or id_to_index:
            now = time.monotonic()
            while unsent and len(id_to_index) < max_inflight and unsent[0][1] <= now:
                index, _ = unsent.popleft()
                request_id = self._next_request_id
                self._next_request_id += 1
                id_to_index[request_id] = index
                self._channel.send(
                    encode_frame(
                        MSG_QUERY,
                        encode_query_request(
                            request_id, QUERY_KEYS, keys=key_batches[index]
                        ),
                    )
                )
            if not id_to_index:
                # Nothing in flight: every pending batch is backing off.
                # Sleep to its ready time (deadline-capped) instead of
                # spinning on the empty window.
                wait = unsent[0][1] - time.monotonic()
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServeTimeoutError(
                            f"deadline of {self.retry_policy.deadline_seconds}s "
                            f"exhausted with {len(unsent)} batch(es) unserved"
                        )
                    wait = min(wait, remaining)
                if wait > 0:
                    time.sleep(wait)
                continue
            frame = self._recv_within(deadline)
            if frame is None:
                raise WireFormatError("server closed the channel mid-pipeline")
            msg_type, payload = decode_frame(frame)
            if msg_type != MSG_QUERY_REPLY:
                raise WireFormatError(f"expected MSG_QUERY_REPLY, got {msg_type}")
            response = decode_query_response(payload)
            index = id_to_index.pop(response.request_id, None)
            if index is None:
                raise WireFormatError(
                    f"reply {response.request_id} matches no in-flight request"
                )
            if response.status == STATUS_BUSY:
                retries += 1
                if busy_retries is not None and retries > busy_retries:
                    raise ServerBusyError(
                        response.request_id, response.kind, response.epoch_id
                    )
                self.busy_retries += 1
                delay = self.retry_policy.delay(attempts[index], self._retry_rng)
                attempts[index] += 1
                unsent.append((index, time.monotonic() + delay))
                continue
            if response.status != STATUS_OK:
                # Never re-enqueue a non-retryable rejection: resending an
                # EPOCH_GONE batch can only produce the same answer.
                raise _rejection_error(response)
            if len(response.estimates) != len(key_batches[index]):
                raise WireFormatError("server returned a mismatched estimate count")
            results[index] = (response.estimates, response.epoch_id)
        return results  # type: ignore[return-value]

    def query(self, key: object) -> int:
        """Point estimate of one key."""
        return int(self.query_batch([key])[0][0])

    def top_k(
        self, k: int, epoch: int | None = None
    ) -> tuple[list[tuple[object, int]], int]:
        """The server's top-k ranking (heaviest first) plus its epoch id.

        ``epoch`` ranks against a pinned ring epoch instead of the latest
        one (candidates are still the server's current key directory).
        """
        response = self._round_trip(QUERY_TOP_K, k=k, epoch=epoch)
        ranking = list(zip(response.keys, response.estimates.tolist()))
        return ranking, response.epoch_id

    def stats(self) -> dict:
        """The service's counters (see :meth:`SketchService.stats`)."""
        return self._round_trip(QUERY_STATS).stats

    def flush(self) -> int:
        """Force an epoch publish; returns the new epoch id.

        Because the channel is FIFO, the new epoch covers every batch this
        client ingested before the flush — the read-your-writes barrier.
        """
        return self._round_trip(QUERY_FLUSH).epoch_id

    def close(self) -> None:
        self._channel.close()

    @property
    def bytes_sent(self) -> int:
        return self._channel.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._channel.bytes_received


class ServingSession:
    """One remote service behind a transport, with a connected client.

    ``transport`` is a backend name (``inproc``/``pipe``/``tcp``) or a
    pre-built :class:`Transport`.  The session launches a single
    :func:`serve_main` endpoint over it (a thread for ``inproc``, an OS
    process for ``pipe``, a socket peer for ``tcp``), ships the CONFIG
    frame, and exposes the :class:`QueryClient`.  Use as a context manager;
    exit shuts the server down and joins it.
    """

    def __init__(
        self,
        config: ServeConfig,
        transport: str | Transport = "inproc",
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.config = config
        self.transport = (
            create_transport(transport) if isinstance(transport, str) else transport
        )
        channels = self.transport.launch(serve_main, 1)
        self._channel = channels[0]
        self._channel.send(encode_frame(MSG_CONFIG, config.to_payload()))
        self.client = QueryClient(self._channel, retry_policy=retry_policy)

    def shutdown(self) -> None:
        try:
            self._channel.send(encode_frame(MSG_SHUTDOWN))
        except (WireFormatError, OSError):
            pass  # already closed
        self.transport.close()
        self.transport.join(timeout=30)

    def __enter__(self) -> "ServingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve_forever(
    listener: socket.socket, service: SketchService, max_sessions: int | None = None
) -> int:
    """Accept and serve TCP clients sequentially over one shared service.

    The ``repro-cli serve`` accept loop: each accepted connection is served
    until it disconnects; the service (and its sketch state) persists across
    sessions, so a writer client can load state that later reader clients
    query.  A misbehaving client — garbage bytes, a connection dropped
    mid-frame — ends *its* session, never the server: the error is reported
    and the loop accepts the next client with the sketch state intact.
    Returns the number of completed sessions (``max_sessions`` bounds it;
    ``None`` loops until the listener is closed).
    """
    sessions = 0
    while max_sessions is None or sessions < max_sessions:
        try:
            connection, _ = listener.accept()
        except (OSError, TimeoutError):
            break
        channel = SocketChannel(connection)
        try:
            serve_channel(channel, service)
        except (WireFormatError, OSError) as error:
            print(f"client session ended with an error: {error}")
        finally:
            channel.close()
        sessions += 1
    return sessions
