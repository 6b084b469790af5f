"""Async multiplexed serving: thousands of concurrent readers, one event loop.

:class:`AsyncSketchServer` is the TCP front end of ``repro-cli serve``: a
``selectors``-based event loop that multiplexes every live connection over
one shared :class:`~repro.serve.service.SketchService`.

The moving parts, in the order a request meets them::

    accept ──► frame reassembly ──► admission ──► bounded in-flight ──► service
      │        (per-connection       (BUSY when     FIFO queue           │
      │         read buffer,          the global                         ▼
      │         incremental           bound is hit)              in-order reply
      │         header+payload)                                  slots ──► write
      │                                                                   buffer
      └── non-blocking listener; graceful drain stops it first

* **Frame reassembly** is incremental: each connection owns a read buffer;
  a ``recv`` appends whatever the kernel has, and whole frames are peeled
  off as their declared length fills in.  A client dribbling one byte at a
  time (slowloris) just parks cheap buffered state — it never blocks the
  loop or any other connection.  A declared length beyond
  :data:`~repro.distributed.wire.MAX_PAYLOAD_BYTES`, garbage magic, or a
  disconnect mid-frame closes *that* connection with a counted error, and
  so does a batch the service refuses (a bounded interner without room).
* **Pipelining**: a connection may have any number of requests in flight;
  every parsed query claims a *reply slot* in arrival order, and slots are
  written out strictly in order — so answers (including BUSY rejections)
  always match the request sequence.
* **Admission control**: at most ``max_inflight`` queries may be queued
  globally.  A query parsed beyond the bound is answered immediately with
  a typed :data:`~repro.distributed.wire.STATUS_BUSY` reply (wire v2) and
  never touches the service — bounded memory, bounded queueing delay, and
  an explicit retry signal instead of silent latency.
* **The single-writer epoch path is untouched**: the event loop is the one
  thread that calls ``service.ingest``/``flush``, and reads are answered
  from the latest published :class:`~repro.serve.snapshots.EpochSnapshot`
  via :func:`~repro.serve.server.answer_request` — each answer is
  bit-identical to the in-process :class:`SketchService` call (pinned by
  ``tests/serve/test_async_server.py``).
* **Graceful drain** (:meth:`AsyncSketchServer.shutdown`): stop accepting,
  finish every queued request, flush every write buffer (bounded by
  ``drain_timeout``), then close.

``MSG_BATCH`` ingest frames flow through the same per-connection order as
queries (never rejected — a fire-and-forget write has no reply to carry a
BUSY), so a pipelined ``ingest … flush … query`` sequence keeps its
read-your-writes meaning.  A client that leaves, cleanly (EOF, or a
``MSG_SHUTDOWN`` frame) or on a read-side error (a truncated frame, a bad
header), still has every complete write it sent before leaving ingested;
its unanswered queries are dropped, and so are its writes queued behind
one the service refused.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.distributed.transport import SocketChannel
from repro.distributed.wire import (
    FRAME_HEADER_SIZE,
    MSG_BATCH,
    MSG_QUERY,
    MSG_QUERY_REPLY,
    MSG_SHUTDOWN,
    STATUS_BUSY,
    FrameTooLargeError,
    WireFormatError,
    decode_batch,
    decode_query_request,
    encode_frame,
    encode_query_response,
    parse_frame_header,
)
from repro.kernels.interning import KeyInternerOverflowError
from repro.serve.server import QueryClient, answer_request, create_listener
from repro.serve.service import SketchService

#: Default bound on globally queued (parsed, not yet served) queries.
DEFAULT_MAX_INFLIGHT = 1024
#: Default bound on how long a graceful drain may take, in seconds.
DEFAULT_DRAIN_TIMEOUT = 10.0
#: Queries served per event-loop tick before the loop polls the sockets
#: again — bounds how long a burst can starve new I/O.
DEFAULT_SERVICE_BATCH = 128

_RECV_CHUNK = 256 * 1024


@dataclass
class AsyncServerStats:
    """Global counters of one :class:`AsyncSketchServer` run."""

    accepted: int = 0
    active: int = 0
    closed_clean: int = 0
    closed_error: int = 0
    queries_served: int = 0
    batches_ingested: int = 0
    busy_rejected: int = 0
    frame_errors: int = 0
    #: Batches the service refused (a bounded interner without room).
    batches_rejected: int = 0
    oversized_rejected: int = 0
    truncated_disconnects: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    max_inflight_observed: int = 0
    drained: bool = False

    def to_dict(self) -> dict:
        """JSON-serializable view (lands in ``BENCH_serving.json`` rows)."""
        return dict(self.__dict__)


@dataclass
class ConnectionStats:
    """Per-connection counters (exposed for tests and debugging)."""

    peer: tuple = ()
    queries_served: int = 0
    batches_ingested: int = 0
    busy_rejected: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    error: str | None = None


class _ReplySlot:
    """One in-order reply position of a connection (filled now or later)."""

    __slots__ = ("frame",)

    def __init__(self) -> None:
        self.frame: bytes | None = None


class _Connection:
    """Per-connection multiplexing state: buffers, slots, counters."""

    def __init__(self, sock: socket.socket, peer: tuple) -> None:
        self.sock = sock
        self.read_buffer = bytearray()
        self.write_buffer = bytearray()
        #: Reply slots in request-arrival order; the head is written first.
        self.reply_slots: deque[_ReplySlot] = deque()
        self.stats = ConnectionStats(peer=peer)
        self.closed = False
        #: Set when MSG_SHUTDOWN arrives: close once all replies are out.
        self.close_after_replies = False
        #: Set when servicing one of its tasks was refused: later writes drop.
        self.refused = False
        self.want_write = False


class _Task:
    """One parsed message awaiting service, in global arrival order."""

    __slots__ = ("connection", "msg_type", "payload", "slot")

    def __init__(
        self,
        connection: _Connection,
        msg_type: int,
        payload: bytes,
        slot: _ReplySlot | None,
    ) -> None:
        self.connection = connection
        self.msg_type = msg_type
        self.payload = payload
        self.slot = slot


class AsyncSketchServer:
    """Concurrent TCP front end over one :class:`SketchService`.

    Parameters
    ----------
    service:
        The shared service; the event loop is its single writer.
    host / port:
        Listen address (``port=0`` picks a free port; see :attr:`address`).
    max_inflight:
        Global bound on queued queries; excess requests get BUSY replies.
    backlog:
        Listener backlog (pending-accept queue length).
    drain_timeout:
        Upper bound on the graceful-drain phase of a shutdown, seconds.
    service_batch:
        Queries served per loop tick before the sockets are polled again.

    ``serve_forever()`` blocks until :meth:`shutdown` (thread-safe) or
    ``KeyboardInterrupt``, drains, and returns the final stats.
    """

    def __init__(
        self,
        service: SketchService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        backlog: int = 128,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        service_batch: int = DEFAULT_SERVICE_BATCH,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if service_batch <= 0:
            raise ValueError("service_batch must be positive")
        if backlog <= 0:
            raise ValueError("backlog must be positive")
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        self.service = service
        self.max_inflight = max_inflight
        self.drain_timeout = drain_timeout
        self.service_batch = service_batch
        self.stats = AsyncServerStats()
        self._listener = create_listener(host, port, backlog=backlog)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        # Self-pipe: shutdown() from any thread wakes a blocked select().
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, "wake")
        self._pending: deque[_Task] = deque()
        self._inflight_queries = 0
        self._connections: set[_Connection] = set()
        self._shutdown_requested = False
        self._accepting = True

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` of the listener."""
        return self._listener.getsockname()[:2]

    def shutdown(self) -> None:
        """Request a graceful drain (safe to call from any thread)."""
        self._shutdown_requested = True
        try:
            self._wake_send.send(b"x")
        except OSError:  # pragma: no cover - loop already gone
            pass

    def serve_forever(self) -> AsyncServerStats:
        """Run the event loop until shutdown, then drain and close."""
        try:
            while not self._shutdown_requested:
                self._tick(timeout=None if self._idle() else 0.0)
        except KeyboardInterrupt:
            pass  # treated exactly like shutdown(): drain below
        finally:
            self._drain()
            self._close_all()
        return self.stats

    def _idle(self) -> bool:
        return not self._pending and not any(
            conn.want_write for conn in self._connections
        )

    # ------------------------------------------------------------ event loop
    def _tick(self, timeout: float | None) -> None:
        for key, mask in self._selector.select(timeout):
            if key.data == "accept":
                self._accept_ready()
            elif key.data == "wake":
                try:
                    self._wake_recv.recv(4096)
                except OSError:  # pragma: no cover - spurious wakeup
                    pass
            else:
                connection: _Connection = key.data
                if mask & selectors.EVENT_READ:
                    self._read_ready(connection)
                if mask & selectors.EVENT_WRITE and not connection.closed:
                    self._write_ready(connection)
        self._service_pending(self.service_batch)

    def _accept_ready(self) -> None:
        while self._accepting:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP sockets in tests
                pass
            connection = _Connection(sock, peer)
            self._connections.add(connection)
            self._selector.register(sock, selectors.EVENT_READ, connection)
            self.stats.accepted += 1
            self.stats.active += 1

    def _read_ready(self, connection: _Connection) -> None:
        try:
            chunk = connection.sock.recv(_RECV_CHUNK)
        except BlockingIOError:  # pragma: no cover - spurious readiness
            return
        except OSError:
            self._close_connection(connection, error="connection reset")
            return
        if not chunk:
            if connection.read_buffer:
                # Peer vanished with a partial frame buffered: a truncated
                # frame, counted, fatal to this connection only.
                self.stats.truncated_disconnects += 1
                self._close_connection(connection, error="disconnected mid-frame")
            else:
                self._close_connection(connection, error=None)
            return
        connection.stats.bytes_received += len(chunk)
        self.stats.bytes_received += len(chunk)
        connection.read_buffer += chunk
        self._parse_frames(connection)

    def _parse_frames(self, connection: _Connection) -> None:
        """Peel whole frames off the read buffer; enqueue or reject each."""
        buffer = connection.read_buffer
        while not connection.closed and not connection.close_after_replies:
            if len(buffer) < FRAME_HEADER_SIZE:
                return
            try:
                msg_type, payload_length = parse_frame_header(
                    bytes(buffer[:FRAME_HEADER_SIZE])
                )
            except WireFormatError as error:
                if isinstance(error, FrameTooLargeError):
                    self.stats.oversized_rejected += 1
                else:
                    self.stats.frame_errors += 1
                self._close_connection(connection, error=str(error))
                return
            if len(buffer) < FRAME_HEADER_SIZE + payload_length:
                return  # wait for the rest of the payload
            payload = bytes(
                buffer[FRAME_HEADER_SIZE : FRAME_HEADER_SIZE + payload_length]
            )
            del buffer[: FRAME_HEADER_SIZE + payload_length]
            self._dispatch(connection, msg_type, payload)

    def _dispatch(self, connection: _Connection, msg_type: int, payload: bytes) -> None:
        if msg_type == MSG_QUERY:
            slot = _ReplySlot()
            connection.reply_slots.append(slot)
            if self._inflight_queries >= self.max_inflight:
                # Admission control: reject *now*, in reply order, without
                # ever touching the service.  Echo the request id and kind
                # so pipelined clients can match and retry.
                try:
                    request = decode_query_request(payload)
                except WireFormatError as error:
                    self.stats.frame_errors += 1
                    self._close_connection(connection, error=str(error))
                    return
                slot.frame = encode_frame(
                    MSG_QUERY_REPLY,
                    encode_query_response(
                        request.request_id,
                        request.kind,
                        self.service.current_epoch.epoch_id,
                        status=STATUS_BUSY,
                    ),
                )
                connection.stats.busy_rejected += 1
                self.stats.busy_rejected += 1
                self._flush_ready_replies(connection)
                return
            self._inflight_queries += 1
            self.stats.max_inflight_observed = max(
                self.stats.max_inflight_observed, self._inflight_queries
            )
            self._pending.append(_Task(connection, msg_type, payload, slot))
        elif msg_type == MSG_BATCH:
            # Writes are never BUSY-rejected (no reply to carry the status;
            # dropping them would silently lose data) but stay in the global
            # FIFO, so a later flush on this connection still covers them.
            self._pending.append(_Task(connection, msg_type, payload, None))
        elif msg_type == MSG_SHUTDOWN:
            connection.close_after_replies = True
            self._maybe_finish(connection)
        else:
            self.stats.frame_errors += 1
            self._close_connection(
                connection, error=f"unexpected message type {msg_type}"
            )

    def _service_pending(self, budget: int) -> None:
        while budget > 0 and self._pending:
            budget -= 1
            task = self._pending.popleft()
            connection = task.connection
            if task.msg_type == MSG_QUERY:
                self._inflight_queries -= 1
            if connection.closed and (task.slot is not None or connection.refused):
                # Nobody is left to answer, or an earlier task of this peer
                # was refused.  Writes that fully arrived before the peer
                # left are ingested, whether it hung up cleanly or its read
                # side failed (a truncated frame, a bad header, a reset).
                continue
            try:
                if task.msg_type == MSG_BATCH:
                    batch, values = decode_batch(task.payload)
                    self.service.ingest(batch, values)
                    connection.stats.batches_ingested += 1
                    self.stats.batches_ingested += 1
                else:
                    task.slot.frame = encode_frame(
                        MSG_QUERY_REPLY, answer_request(self.service, task.payload)
                    )
                    connection.stats.queries_served += 1
                    self.stats.queries_served += 1
            except WireFormatError as error:
                self.stats.frame_errors += 1
                connection.refused = True
                self._close_connection(connection, error=str(error))
                continue
            except KeyInternerOverflowError as error:
                # The service refused the batch before journaling it; only
                # its sender is dropped, the loop keeps serving.
                self.stats.batches_rejected += 1
                connection.refused = True
                self._close_connection(connection, error=str(error))
                continue
            self._flush_ready_replies(connection)

    # ------------------------------------------------------------ write side
    def _flush_ready_replies(self, connection: _Connection) -> None:
        """Move the filled slot prefix to the write buffer and try to send."""
        slots = connection.reply_slots
        while slots and slots[0].frame is not None:
            connection.write_buffer += slots.popleft().frame
        if connection.write_buffer:
            self._try_send(connection)
        else:
            self._maybe_finish(connection)

    def _try_send(self, connection: _Connection) -> None:
        buffer = connection.write_buffer
        try:
            while buffer:
                sent = connection.sock.send(buffer)
                if sent == 0:  # pragma: no cover - defensive
                    break
                connection.stats.bytes_sent += sent
                self.stats.bytes_sent += sent
                del buffer[:sent]
        except BlockingIOError:
            pass  # kernel buffer full; finish when the socket drains
        except OSError:
            self._close_connection(connection, error="send failed")
            return
        self._set_write_interest(connection, bool(buffer))
        if not buffer:
            self._maybe_finish(connection)

    def _set_write_interest(self, connection: _Connection, want: bool) -> None:
        if connection.closed or want == connection.want_write:
            return
        connection.want_write = want
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
        self._selector.modify(connection.sock, events, connection)

    def _write_ready(self, connection: _Connection) -> None:
        self._try_send(connection)

    def _maybe_finish(self, connection: _Connection) -> None:
        """Close a draining connection once every reply has been written."""
        if (
            connection.close_after_replies
            and not connection.reply_slots
            and not connection.write_buffer
        ):
            self._close_connection(connection, error=None)

    # -------------------------------------------------------------- teardown
    def _close_connection(self, connection: _Connection, error: str | None) -> None:
        if connection.closed:
            if error is not None:
                # A queued task of a peer that already left was refused.
                connection.stats.error = error
            return
        connection.closed = True
        connection.stats.error = error
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            connection.sock.close()
        except OSError:  # pragma: no cover
            pass
        self._connections.discard(connection)
        self.stats.active -= 1
        if error is None:
            self.stats.closed_clean += 1
        else:
            self.stats.closed_error += 1

    def _drain(self) -> None:
        """Stop accepting, serve everything queued, flush every buffer."""
        self._accepting = False
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        self._listener.close()
        deadline = time.perf_counter() + self.drain_timeout
        self._service_pending(len(self._pending))
        while time.perf_counter() < deadline and any(
            conn.want_write or conn.write_buffer for conn in self._connections
        ):
            self._tick(timeout=min(0.05, max(0.0, deadline - time.perf_counter())))
        self.stats.drained = not self._pending and not any(
            conn.write_buffer for conn in self._connections
        )

    def _close_all(self) -> None:
        for connection in list(self._connections):
            self._close_connection(connection, error=None)
        self._selector.close()
        self._wake_recv.close()
        self._wake_send.close()


class AsyncServingSession:
    """An :class:`AsyncSketchServer` on a background thread, plus dialing.

    The test/benchmark harness shape: build the service, run the event loop
    on a daemon thread, hand out as many concurrent
    :class:`~repro.serve.server.QueryClient` connections as the caller
    wants.  Exit = graceful drain + join.
    """

    def __init__(self, service: SketchService, **server_kwargs) -> None:
        self.server = AsyncSketchServer(service, **server_kwargs)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="async-sketch-server", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def connect(self) -> QueryClient:
        """Dial one new client connection to the server."""
        host, port = self.server.address
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.settimeout(None)
        return QueryClient(SocketChannel(sock))

    def shutdown(self) -> AsyncServerStats:
        self.server.shutdown()
        self._thread.join(timeout=30)
        return self.server.stats

    def __enter__(self) -> "AsyncServingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
