"""Pluggable transports carrying wire frames between collector and workers.

One protocol, three backends:

* ``inproc``  — a pair of ``queue.Queue`` objects per worker, workers run as
  threads in the collector's process.  Zero-copy handoff of frame bytes;
  the reference backend for tests and the serialization-overhead baseline.
* ``pipe``    — ``multiprocessing.Pipe`` duplex connections, workers run as
  separate OS processes.  The single-host multi-core deployment.
* ``tcp``     — length-prefixed frames over TCP sockets.  Workers may be
  threads spawned by the transport (self-hosted demos and tests) or
  external processes started with ``repro-cli ingest-worker`` connecting
  from other hosts.

The ingest logic (:mod:`repro.distributed.ingest`) only ever sees
:class:`Channel` — ``send(frame)`` / ``recv() -> frame | None`` / ``close()``
— so the backend choice is pure configuration.  All channels count bytes in
both directions, which is what ``benchmarks/bench_distributed.py`` reports
as wire volume.

Frames are already length-prefixed by :mod:`repro.distributed.wire`, so the
message-oriented backends carry them verbatim and the TCP backend can
delimit them on the byte stream without scanning.
"""

from __future__ import annotations

import abc
import multiprocessing
import queue
import socket
import threading
from typing import Callable

from repro.distributed.wire import FRAME_HEADER_SIZE, WireFormatError, parse_frame_header

#: Registry names accepted by :func:`create_transport` (and the CLI flag).
TRANSPORT_NAMES = ("inproc", "pipe", "tcp")


class ChannelClosedError(WireFormatError):
    """Send on a channel whose endpoint is already closed.

    A distinct subclass so worker loops can tell a dead link (normal exit:
    the peer hung up or fault injection killed the channel) from a genuine
    protocol violation, which must stay loud.
    """


class ChannelTimeoutError(WireFormatError):
    """``recv(timeout=...)`` expired with no frame.

    Distinct from EOF (``recv`` returning ``None``): the peer has not hung
    up, it has merely not answered in time — the signal a heartbeat failure
    detector or a client deadline acts on.  On the stream-oriented TCP
    backend a timeout may strike *mid-frame*; the channel is then
    positioned inside a partial message and must not be recv'd again
    (callers treat a deadline breach as fatal for the channel, which is
    exactly what the failure detector and the query client both do).
    """

#: How a worker entry point looks to every transport: a callable taking the
#: worker-side channel.  ``pipe`` additionally requires it to be picklable
#: (a module-level function such as
#: ``repro.distributed.ingest.dynamic_worker_main``).
WorkerFn = Callable[["Channel"], None]


class Channel(abc.ABC):
    """A bidirectional, message-oriented frame channel."""

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0

    @abc.abstractmethod
    def send(self, frame: bytes) -> None:
        """Send one whole wire frame."""

    @abc.abstractmethod
    def recv(self, timeout: float | None = None) -> bytes | None:
        """Block for the next frame; ``None`` once the peer closed.

        With a ``timeout`` (seconds), raise :class:`ChannelTimeoutError`
        if no frame arrives in time; ``None`` keeps the blocking default.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Close this endpoint (idempotent); the peer's ``recv`` returns None."""


class Transport(abc.ABC):
    """Launches workers and hands the collector one channel per worker."""

    name: str = "transport"

    def __init__(self) -> None:
        self._channels: list[Channel] = []

    @abc.abstractmethod
    def launch(self, worker_fn: WorkerFn, count: int) -> list[Channel]:
        """Start ``count`` workers running ``worker_fn(channel)``.

        Returns the collector-side channels, one per worker.  Workers are
        symmetric until the collector's CONFIG frame assigns shard ids, so
        the order of the returned list is the shard order.
        """

    @abc.abstractmethod
    def join(self, timeout: float | None = None) -> None:
        """Wait for every launched worker to exit."""

    def close(self) -> None:
        """Close all collector-side channels (idempotent)."""
        for channel in self._channels:
            channel.close()

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.join(timeout=30)


# ---------------------------------------------------------------------------
# inproc: queue pairs + worker threads


class QueueChannel(Channel):
    """One endpoint of an in-process queue pair (``None`` is the EOF marker)."""

    def __init__(self, send_queue: "queue.Queue", recv_queue: "queue.Queue") -> None:
        super().__init__()
        self._send_queue = send_queue
        self._recv_queue = recv_queue
        self._closed = False
        self._eof = False

    def send(self, frame: bytes) -> None:
        if self._closed:
            raise ChannelClosedError("send on a closed channel")
        self.bytes_sent += len(frame)
        self._send_queue.put(frame)

    def recv(self, timeout: float | None = None) -> bytes | None:
        if self._eof:
            return None
        try:
            frame = self._recv_queue.get(timeout=timeout)
        except queue.Empty:
            raise ChannelTimeoutError(f"no frame within {timeout}s") from None
        if frame is None:
            self._eof = True
            return None
        self.bytes_received += len(frame)
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._send_queue.put(None)

    @classmethod
    def pair(cls) -> tuple["QueueChannel", "QueueChannel"]:
        """A connected (collector-side, worker-side) channel pair."""
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        return cls(a_to_b, b_to_a), cls(b_to_a, a_to_b)


def _run_worker(worker_fn: WorkerFn, channel: Channel) -> None:
    """Worker entry shared by all self-hosted backends: always close on exit.

    A dead link mid-send — the collector hung up, or fault injection killed
    the channel — is a normal worker exit, not a crash: the collector's
    failure detector already owns that event.  Protocol violations
    (plain :class:`WireFormatError`) stay loud.
    """
    try:
        worker_fn(channel)
    except (ChannelClosedError, OSError, EOFError):
        pass
    finally:
        channel.close()


class InprocTransport(Transport):
    """Workers as daemon threads, frames over queue pairs."""

    name = "inproc"

    def __init__(self) -> None:
        super().__init__()
        self._threads: list[threading.Thread] = []

    def launch(self, worker_fn: WorkerFn, count: int) -> list[Channel]:
        for index in range(count):
            collector_side, worker_side = QueueChannel.pair()
            thread = threading.Thread(
                target=_run_worker,
                args=(worker_fn, worker_side),
                name=f"ingest-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            self._channels.append(collector_side)
        return list(self._channels)

    def join(self, timeout: float | None = None) -> None:
        for thread in self._threads:
            thread.join(timeout)


# ---------------------------------------------------------------------------
# pipe: multiprocessing.Pipe + worker processes


class PipeChannel(Channel):
    """A ``multiprocessing.Connection`` endpoint carrying whole frames."""

    def __init__(self, connection) -> None:
        super().__init__()
        self._connection = connection
        self._closed = False

    def send(self, frame: bytes) -> None:
        if self._closed:
            raise ChannelClosedError("send on a closed channel")
        self.bytes_sent += len(frame)
        self._connection.send_bytes(frame)

    def recv(self, timeout: float | None = None) -> bytes | None:
        if self._closed:
            return None
        try:
            if timeout is not None and not self._connection.poll(timeout):
                raise ChannelTimeoutError(f"no frame within {timeout}s")
            frame = self._connection.recv_bytes()
        except EOFError:
            return None
        self.bytes_received += len(frame)
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._connection.close()


def _pipe_worker_entry(worker_fn: WorkerFn, connection, parent_ends=()) -> None:
    """Module-level process target (must be picklable on spawn platforms).

    ``parent_ends`` are the collector-side connections this child inherited
    copies of (under fork: its own pipe's collector end plus every earlier
    worker's).  They must be closed here, or the collector closing its end
    would never surface as EOF on any worker's pipe — a worker whose link
    is killed would block in ``recv`` forever instead of exiting.
    """
    for end in parent_ends:
        end.close()
    _run_worker(worker_fn, PipeChannel(connection))


class PipeTransport(Transport):
    """Workers as OS processes, frames over ``multiprocessing.Pipe``."""

    name = "pipe"

    def __init__(self) -> None:
        super().__init__()
        self._processes: list[multiprocessing.Process] = []

    def launch(self, worker_fn: WorkerFn, count: int) -> list[Channel]:
        for index in range(count):
            collector_side, worker_side = multiprocessing.Pipe(duplex=True)
            parent_ends = [
                channel._connection
                for channel in self._channels
                if isinstance(channel, PipeChannel)
            ] + [collector_side]
            process = multiprocessing.Process(
                target=_pipe_worker_entry,
                args=(worker_fn, worker_side, parent_ends),
                name=f"ingest-worker-{index}",
                daemon=True,
            )
            process.start()
            # The parent must drop its handle on the worker-side end, or the
            # worker's close would never surface as EOF on the collector side.
            worker_side.close()
            self._processes.append(process)
            self._channels.append(PipeChannel(collector_side))
        return list(self._channels)

    def join(self, timeout: float | None = None) -> None:
        for process in self._processes:
            process.join(timeout)


# ---------------------------------------------------------------------------
# tcp: length-prefixed frames over sockets


class SocketChannel(Channel):
    """Frames over a connected TCP socket, delimited by the frame header."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__()
        self._socket = sock
        self._closed = False
        try:
            # Frames are whole messages: Nagle buys nothing on bulk ingest
            # (frames already fill segments) and costs the serving layer a
            # delayed-ACK round trip (~40 ms) per request/response exchange.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP sockets in tests
            pass

    def send(self, frame: bytes) -> None:
        if self._closed:
            raise ChannelClosedError("send on a closed channel")
        self.bytes_sent += len(frame)
        self._socket.sendall(frame)

    def _recv_exact(self, size: int) -> bytes | None:
        chunks: list[bytes] = []
        remaining = size
        while remaining:
            try:
                chunk = self._socket.recv(remaining)
            except socket.timeout:
                # The deadline struck (possibly mid-frame: the stream is then
                # desynchronized and the caller must not recv again — see
                # ChannelTimeoutError).
                raise ChannelTimeoutError("no frame within the recv timeout") from None
            except OSError:
                return None
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self, timeout: float | None = None) -> bytes | None:
        if self._closed:
            return None
        if timeout is not None:
            self._socket.settimeout(timeout)
        try:
            header = self._recv_exact(FRAME_HEADER_SIZE)
            if header is None:
                return None
            _, payload_length = parse_frame_header(header)
            payload = self._recv_exact(payload_length) if payload_length else b""
            if payload is None:
                raise WireFormatError("connection closed mid-frame")
        finally:
            if timeout is not None and not self._closed:
                try:
                    self._socket.settimeout(None)
                except OSError:  # pragma: no cover - racing a concurrent close
                    pass
        frame = header + payload
        self.bytes_received += len(frame)
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._socket.close()


def connect_worker(host: str, port: int, timeout: float | None = 30.0) -> SocketChannel:
    """Dial a collector from a standalone worker (``repro-cli ingest-worker``)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return SocketChannel(sock)


class TcpTransport(Transport):
    """Frames over TCP; workers self-hosted as threads or joining externally.

    With ``self_hosted=True`` (default) ``launch`` spawns ``count`` worker
    threads that dial the listener — a single-command demo that still
    exercises real sockets.  With ``self_hosted=False`` it only *accepts*
    ``count`` external connections (workers started elsewhere with
    ``repro-cli ingest-worker --connect host:port``).
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 self_hosted: bool = True, accept_timeout: float | None = 60.0) -> None:
        super().__init__()
        self.host = host
        self.port = port
        self.self_hosted = self_hosted
        self.accept_timeout = accept_timeout
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None

    def launch(self, worker_fn: WorkerFn, count: int) -> list[Channel]:
        listener = socket.create_server((self.host, self.port), backlog=count)
        listener.settimeout(self.accept_timeout)
        self._listener = listener
        self.port = listener.getsockname()[1]
        if self.self_hosted:
            for index in range(count):
                thread = threading.Thread(
                    target=self._dial_and_run,
                    args=(worker_fn,),
                    name=f"ingest-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        try:
            for _ in range(count):
                connection, _ = listener.accept()
                self._channels.append(SocketChannel(connection))
        finally:
            # Always release the bound port — a timeout waiting for external
            # workers must not leak the listener (close() only knows about
            # accepted channels).
            listener.close()
            self._listener = None
        return list(self._channels)

    def _dial_and_run(self, worker_fn: WorkerFn) -> None:
        _run_worker(worker_fn, connect_worker(self.host, self.port))

    def join(self, timeout: float | None = None) -> None:
        for thread in self._threads:
            thread.join(timeout)


def create_transport(name: str, **kwargs) -> Transport:
    """Build a transport backend by registry name (``inproc``/``pipe``/``tcp``)."""
    if name == "inproc":
        return InprocTransport(**kwargs)
    if name == "pipe":
        return PipeTransport(**kwargs)
    if name == "tcp":
        return TcpTransport(**kwargs)
    raise ValueError(
        f"unknown transport {name!r}; expected one of {', '.join(TRANSPORT_NAMES)}"
    )
