"""Channel semantics every transport backend must share.

The ingest layer only ever sees ``send``/``recv``/``close``, so the three
backends are tested through one harness: frames arrive whole, in order,
byte-identical; EOF surfaces as ``None``; byte counters track both
directions.  An echo worker stands in for the ingest loop.
"""

from __future__ import annotations

import pytest

from repro.distributed.transport import (
    QueueChannel,
    TcpTransport,
    connect_worker,
    create_transport,
)
from repro.distributed.wire import MSG_BATCH, MSG_SHUTDOWN, decode_frame, encode_frame

FRAMES = [
    encode_frame(MSG_BATCH, b"alpha"),
    encode_frame(MSG_BATCH, b""),
    encode_frame(MSG_BATCH, bytes(range(256)) * 40),
]


def echo_worker(channel):
    """Echo every frame until shutdown — a minimal stand-in for dynamic_worker_main."""
    while True:
        frame = channel.recv()
        if frame is None:
            break
        msg_type, payload = decode_frame(frame)
        if msg_type == MSG_SHUTDOWN:
            break
        channel.send(frame)


@pytest.mark.parametrize("name", ["inproc", "pipe", "tcp"])
def test_frames_echo_in_order(name):
    with create_transport(name) as transport:
        channels = transport.launch(echo_worker, 2)
        assert len(channels) == 2
        for channel in channels:
            for frame in FRAMES:
                channel.send(frame)
            for frame in FRAMES:
                assert channel.recv() == frame
            channel.send(encode_frame(MSG_SHUTDOWN))
    transport.join(timeout=10)


@pytest.mark.parametrize("name", ["inproc", "pipe", "tcp"])
def test_eof_after_worker_exit(name):
    with create_transport(name) as transport:
        (channel,) = transport.launch(echo_worker, 1)
        channel.send(encode_frame(MSG_SHUTDOWN))
        transport.join(timeout=10)
        assert channel.recv() is None
        assert channel.recv() is None  # EOF is sticky


@pytest.mark.parametrize("name", ["inproc", "pipe", "tcp"])
def test_byte_counters(name):
    with create_transport(name) as transport:
        (channel,) = transport.launch(echo_worker, 1)
        frame = FRAMES[0]
        channel.send(frame)
        assert channel.recv() == frame
        channel.send(encode_frame(MSG_SHUTDOWN))
        assert channel.bytes_sent == len(frame) + len(encode_frame(MSG_SHUTDOWN))
        assert channel.bytes_received == len(frame)


def test_queue_channel_pair_is_symmetric():
    left, right = QueueChannel.pair()
    left.send(b"ping")
    assert right.recv() == b"ping"
    right.send(b"pong")
    assert left.recv() == b"pong"
    left.close()
    assert right.recv() is None


def test_tcp_accepts_external_workers():
    """self_hosted=False only accepts; workers dial in from outside."""
    import threading
    import time

    transport = TcpTransport(port=0, self_hosted=False)
    results = []

    def external_worker():
        # The listener is created inside launch(); wait for the port.
        while transport.port == 0:
            time.sleep(0.005)
        channel = connect_worker("127.0.0.1", transport.port)
        echo_worker(channel)
        results.append("done")

    dialer = threading.Thread(target=external_worker, daemon=True)
    dialer.start()
    (channel,) = transport.launch(echo_worker, 1)
    channel.send(FRAMES[0])
    assert channel.recv() == FRAMES[0]
    channel.send(encode_frame(MSG_SHUTDOWN))
    dialer.join(timeout=10)
    transport.close()
    assert results == ["done"]


def test_tcp_accept_timeout_releases_the_port():
    """A launch that times out waiting for workers must not leak the listener."""
    import socket

    transport = TcpTransport(port=0, self_hosted=False, accept_timeout=0.2)
    with pytest.raises(OSError):
        transport.launch(echo_worker, 1)  # nobody dials in
    # The port is free again: a fresh server can bind it immediately.
    rebind = socket.create_server(("127.0.0.1", transport.port))
    rebind.close()


def test_create_transport_rejects_unknown_name():
    with pytest.raises(ValueError):
        create_transport("carrier-pigeon")
