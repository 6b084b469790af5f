"""The async front end's acceptance properties: parity, robustness, BUSY.

Three groups pin the event-loop server to the sequential baseline:

* **Pipelining parity** — M interleaved clients issuing pipelined queries
  against :class:`AsyncSketchServer` get answers bit-identical to a
  sequential :class:`ServingSession` replay of the same requests, for
  every served family, including across an epoch publish mid-run.
* **Hostile/slow clients** — a slowloris peer (one byte at a time) is
  served correctly without stalling others; a mid-frame disconnect or an
  oversized declared length closes only that connection, with the error
  counted, while the server keeps serving.
* **Back-pressure** — with the in-flight bound forced to 1, the server
  emits typed BUSY replies and the open-loop load generator retries them
  to completion; replies stay in request order throughout.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.distributed import wire
from repro.distributed.transport import SocketChannel
from repro.distributed.wire import (
    MSG_BATCH,
    MSG_QUERY,
    QUERY_KEYS,
    WireFormatError,
    encode_batch,
    encode_frame,
    encode_query_request,
)
from repro.serve.async_server import AsyncServingSession, AsyncSketchServer
from repro.serve.loadgen import OpenLoopConfig, run_open_loop
from repro.serve.server import QueryClient, ServeConfig, ServingSession
from repro.sketches.registry import build_sketch, mergeable_names
from repro.streams.synthetic import zipf_stream

MEMORY = 32 * 1024
#: The parity matrix: every mergeable family plus ReliableSketch (both
#: variants) — the same acceptance matrix as the service-level tests.
FAMILIES = tuple(sorted(mergeable_names())) + ("Ours", "Ours(Raw)")


def make_session(algorithm: str, **server_kwargs) -> AsyncServingSession:
    config = ServeConfig(algorithm, MEMORY, seed=0, publish_every_items=10**9)
    return AsyncServingSession(config.build_service(), **server_kwargs)


def raw_connect(session: AsyncServingSession) -> socket.socket:
    sock = socket.create_connection(session.address, timeout=30.0)
    sock.settimeout(10.0)
    return sock


# --------------------------------------------------------------- basic parity
def test_single_client_answers_match_local_reference():
    stream = zipf_stream(4000, skew=1.1, universe=800, seed=3)
    reference = build_sketch("CM_fast", MEMORY, seed=0)
    with make_session("CM_fast") as session:
        client = session.connect()
        for chunk in stream.iter_batches(512):
            keys = [item.key for item in chunk]
            client.ingest(keys)
            reference.insert_batch(keys)
        client.flush()
        query_keys = stream.keys() + ["absent", -5]
        served, epoch_id = client.query_batch(query_keys)
        assert epoch_id >= 1
        assert (served == reference.query_batch(query_keys)).all()
        # The other request kinds ride the same path.
        assert client.stats()["items_ingested"] == len(stream)
        ranking, _ = client.top_k(5)
        client.close()
    assert len(ranking) == 5


@pytest.mark.parametrize("algorithm", FAMILIES)
def test_interleaved_pipelined_clients_match_sequential_replay(algorithm):
    """M concurrent pipelined clients == sequential ServingSession, twice:
    before and after an epoch publish between the two read phases."""
    stream = zipf_stream(3000, skew=1.2, universe=600, seed=9)
    items = [item.key for item in stream]
    first, second = items[:1500], items[1500:]
    batches = [items[i * 25 : (i + 1) * 25] + ["absent", -1] for i in range(24)]

    config = ServeConfig(algorithm, MEMORY, seed=0, publish_every_items=10**9)
    with ServingSession(config, "inproc") as sequential, \
            make_session(algorithm) as session:
        writer = session.connect()

        def both_phases(keys):
            sequential.client.ingest(keys)
            writer.ingest(keys)
            sequential_epoch = sequential.client.flush()
            async_epoch = writer.flush()
            assert sequential_epoch == async_epoch
            expected = [sequential.client.query_batch(batch) for batch in batches]

            def pipelined(offset: int):
                client = session.connect()
                rotated = batches[offset:] + batches[:offset]
                try:
                    return offset, client.query_batches_pipelined(rotated)
                finally:
                    client.close()

            with ThreadPoolExecutor(max_workers=3) as pool:
                results = list(pool.map(pipelined, range(3)))
            for offset, answers in results:
                rotated = expected[offset:] + expected[:offset]
                for (estimates, epoch_id), (want, want_epoch) in zip(answers, rotated):
                    assert epoch_id == want_epoch
                    assert (estimates == want).all(), (
                        f"{algorithm}: pipelined answers diverged from the "
                        f"sequential replay at epoch {epoch_id}"
                    )

        both_phases(first)
        both_phases(second)  # the epoch publish in between is the point
        writer.close()


def test_answers_stay_consistent_across_concurrent_publish():
    """Readers in flight while an epoch publishes: every reply must equal
    the sequential answer *of the epoch that stamped it*."""
    config = ServeConfig("Ours", MEMORY, seed=0, publish_every_items=10**9)
    items = [item.key for item in zipf_stream(2000, skew=1.2, universe=400, seed=4)]
    probe = sorted(set(items[:200]))
    with ServingSession(config, "inproc") as sequential, \
            make_session("Ours") as session:
        writer = session.connect()
        sequential.client.ingest(items[:1000])
        writer.ingest(items[:1000])
        epoch_before = writer.flush()
        assert sequential.client.flush() == epoch_before
        expected = {epoch_before: sequential.client.query_batch(probe)[0]}

        stop = threading.Event()
        failures: list[str] = []

        def reader():
            client = session.connect()
            try:
                while not stop.is_set():
                    estimates, epoch_id = client.query_batch(probe)
                    want = expected.get(epoch_id)
                    if want is None:
                        failures.append(f"unknown epoch {epoch_id}")
                        return
                    if not (estimates == want).all():
                        failures.append(f"answers diverged at epoch {epoch_id}")
                        return
            finally:
                client.close()

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        # Publish mid-flight: pre-compute the next epoch's reference before
        # the async side can stamp replies with it.
        sequential.client.ingest(items[1000:])
        epoch_after = sequential.client.flush()
        expected[epoch_after] = sequential.client.query_batch(probe)[0]
        writer.ingest(items[1000:])
        assert writer.flush() == epoch_after
        time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=15)
        writer.close()
    assert not failures, failures


# ----------------------------------------------------------- hostile clients
def test_slowloris_client_is_served_and_stalls_nobody():
    """One byte at a time is a slow client, not an error — and the event
    loop keeps serving fast clients while reassembling its frame."""
    reference = build_sketch("CM_fast", MEMORY, seed=0)
    reference.insert_batch([7] * 5)
    expected = reference.query_batch([7, 8]).tolist()
    with make_session("CM_fast") as session:
        seed_client = session.connect()
        seed_client.ingest([7] * 5)
        seed_client.flush()

        slow = raw_connect(session)
        frame = encode_frame(
            MSG_QUERY, encode_query_request(1, QUERY_KEYS, keys=[7, 8])
        )
        fast = session.connect()
        for i, byte in enumerate(frame):
            slow.sendall(bytes([byte]))
            if i % 8 == 0:  # fast traffic interleaves with the slow drip
                estimates, _ = fast.query_batch([7])
                assert estimates.tolist() == expected[:1]
        reply_channel = SocketChannel(slow)
        reply = reply_channel.recv()
        assert reply is not None
        msg_type, payload = wire.decode_frame(reply)
        response = wire.decode_query_response(payload)
        assert msg_type == wire.MSG_QUERY_REPLY
        assert response.estimates.tolist() == expected
        reply_channel.close()
        fast.close()
        seed_client.close()
        stats = session.shutdown()
    assert stats.frame_errors == 0 and stats.closed_error == 0


def test_mid_frame_disconnect_closes_only_that_connection():
    with make_session("CM_fast") as session:
        seed_client = session.connect()
        seed_client.ingest([1, 2, 3])
        seed_client.flush()

        truncated = raw_connect(session)
        frame = encode_frame(
            MSG_QUERY, encode_query_request(1, QUERY_KEYS, keys=[1, 2, 3])
        )
        truncated.sendall(frame[: len(frame) - 3])
        truncated.close()

        survivor = session.connect()
        for _ in range(50):  # the close races the probe; poll the counter
            if session.server.stats.truncated_disconnects:
                break
            time.sleep(0.02)
        estimates, _ = survivor.query_batch([1])
        assert estimates.tolist() == [1]
        survivor.close()
        seed_client.close()
        stats = session.shutdown()
    assert stats.truncated_disconnects == 1
    assert stats.queries_served >= 1


def test_oversized_declared_length_rejected_without_allocation():
    with make_session("CM_fast") as session:
        hostile = raw_connect(session)
        hostile.sendall(
            struct.pack(
                ">2sBBI", wire.MAGIC, wire.WIRE_VERSION, MSG_QUERY,
                wire.MAX_PAYLOAD_BYTES + 1,
            )
        )
        # The server must hang up on us, not wait for 64 MiB that never comes.
        assert hostile.recv(1) == b""
        hostile.close()

        garbage = raw_connect(session)
        garbage.sendall(b"GET / HTTP/1.1\r\n\r\n")
        assert garbage.recv(1) == b""
        garbage.close()

        survivor = session.connect()
        assert survivor.stats()["items_ingested"] == 0
        survivor.close()
        stats = session.shutdown()
    assert stats.oversized_rejected == 1
    assert stats.frame_errors == 1  # the garbage-magic peer
    assert stats.closed_error == 2


def test_non_positive_value_closes_only_its_connection(tmp_path):
    """The batch is refused as malformed before it reaches the journal: the
    server keeps answering and the store still warm-starts."""
    config = ServeConfig("Ours", MEMORY, seed=0, publish_every_items=10**9,
                         store_dir=str(tmp_path))
    service = config.build_service()
    with AsyncServingSession(service) as session:
        client = session.connect()
        client.ingest([1, 2, 3])
        hostile = raw_connect(session)
        # encode_batch refuses a non-positive value: set the last one by hand.
        payload = encode_batch([4, 5], [1, 2])[:-8] + struct.pack("<q", -1)
        hostile.sendall(encode_frame(MSG_BATCH, payload))
        assert hostile.recv(1) == b""  # hung up on the bad batch
        hostile.close()
        client.flush()
        other = session.connect()
        for peer in (client, other):
            estimates, _ = peer.query_batch([1, 2, 3, 4, 5])
            assert estimates.tolist() == [1, 1, 1, 0, 0]
        stats = other.stats()
        client.close()
        other.close()
        server_stats = session.shutdown()
    assert server_stats.frame_errors == 1
    assert server_stats.closed_error == 1
    assert stats["store"]["wal_frames_appended"] == 1
    service.close()

    restarted = config.build_service()
    assert restarted.query_batch([1, 2, 3, 4, 5]).tolist() == [1, 1, 1, 0, 0]
    restarted.close()


def test_batch_overflowing_a_bounded_interner_closes_only_its_connection(tmp_path):
    """The refused batch drops its sender; the loop keeps serving the others,
    nothing of it is journaled, and the store still warm-starts."""
    config = ServeConfig("Ours", MEMORY, seed=0, publish_every_items=10**9,
                         store_dir=str(tmp_path), sketch_kwargs={"max_interned_keys": 4})
    service = config.build_service()
    with AsyncServingSession(service) as session:
        client, other = session.connect(), session.connect()
        client.ingest([1, 2, 3, 4])
        client.flush()
        client.ingest([4, 5])
        with pytest.raises(WireFormatError, match="closed the channel"):
            client.query_batch([1])
        client.close()
        other.flush()
        estimates, _ = other.query_batch([1, 2, 3, 4, 5])
        assert estimates.tolist() == [1, 1, 1, 1, 0]
        stats = other.stats()
        other.close()
        server_stats = session.shutdown()
    assert server_stats.batches_rejected == 1
    assert server_stats.frame_errors == 0
    assert server_stats.closed_error == 1
    assert stats["store"]["wal_frames_appended"] == 1
    service.close()

    restarted = config.build_service()
    assert restarted.query_batch([1, 2, 3, 4, 5]).tolist() == [1, 1, 1, 1, 0]
    restarted.close()


def test_batch_a_shard_refuses_closes_only_its_connection(tmp_path):
    """A sharded service refuses, before journaling, a batch that overflows one
    shard's interner: its sender is dropped and the store still warm-starts."""
    config = ServeConfig("Ours", MEMORY, seed=0, shards=2, publish_every_items=10**9,
                         store_dir=str(tmp_path), sketch_kwargs={"max_interned_keys": 2})
    service = config.build_service()
    with AsyncServingSession(service) as session:
        client, other = session.connect(), session.connect()
        client.ingest([1, 2])
        client.flush()
        client.ingest(list(range(3, 12)))
        with pytest.raises(WireFormatError, match="closed the channel"):
            client.query_batch([1])
        client.close()
        other.flush()
        estimates, _ = other.query_batch([1, 2, 3])
        assert estimates.tolist() == [1, 1, 0]
        stats = other.stats()
        other.close()
        server_stats = session.shutdown()
    assert server_stats.batches_rejected == 1
    assert server_stats.closed_error == 1
    assert stats["store"]["wal_frames_appended"] == 1
    service.close()

    restarted = config.build_service()
    assert restarted.query_batch([1, 2, 3]).tolist() == [1, 1, 0]
    restarted.close()


def test_non_positive_value_raises_at_the_client_call():
    """The client learns of a bad value when it sends it; the connection stays up."""
    with make_session("Ours") as session:
        client = session.connect()
        client.ingest([1, 2])
        for values in ([1, -1], 0):
            with pytest.raises(WireFormatError, match="non-positive"):
                client.ingest([3, 4], values)
        client.flush()
        estimates, _ = client.query_batch([1, 2, 3, 4])
        assert estimates.tolist() == [1, 1, 0, 0]
        client.close()
        stats = session.shutdown()
    assert stats.frame_errors == 0
    assert stats.closed_error == 0


# ------------------------------------------------------------- back-pressure
def test_forced_busy_is_produced_and_retried_to_completion():
    """max_inflight=1 forces BUSY under any pipelining; the open-loop
    generator must retry every rejection and still finish consistent."""
    config = ServeConfig("CM_fast", MEMORY, seed=0, publish_every_items=10**9)
    service = config.build_service()
    reference = build_sketch("CM_fast", MEMORY, seed=0)
    keys = [item.key for item in zipf_stream(2000, skew=1.1, universe=300, seed=1)]
    service.ingest(keys)
    reference.insert_batch(keys)
    service.flush()

    with AsyncServingSession(service, max_inflight=1, service_batch=1) as session:
        report = run_open_loop(
            session.connect,
            OpenLoopConfig(
                clients=3, requests_per_client=60, target_qps=0.0,
                read_batch=8, batch_pool=16, seed=2, busy_retries=None,
            ),
            reference=reference,
        )
        stats = session.shutdown()
    assert report.busy_rejected > 0, "max_inflight=1 under pipelining must BUSY"
    assert stats.busy_rejected == report.busy_rejected
    assert report.busy_retried == report.busy_rejected
    assert report.completed == report.requests_total and report.failed == 0
    assert report.epoch_consistent, report.client_errors


def test_busy_without_retries_fails_requests_not_connections():
    service = ServeConfig(
        "CM_fast", MEMORY, seed=0, publish_every_items=10**9
    ).build_service()
    service.flush()
    with AsyncServingSession(service, max_inflight=1, service_batch=1) as session:
        report = run_open_loop(
            session.connect,
            OpenLoopConfig(
                clients=2, requests_per_client=40, target_qps=0.0,
                read_batch=4, batch_pool=8, seed=3, busy_retries=0,
            ),
        )
    assert report.busy_rejected > 0 and report.busy_retried == 0
    assert report.failed == report.busy_rejected
    assert report.completed + report.failed == report.requests_total
    assert not report.client_errors


def test_open_loop_paced_run_reports_latency_and_epochs():
    """A paced (Poisson) run: all requests complete, epochs rotate mid-run,
    and the consistency signals hold across the publishes."""
    service = ServeConfig(
        "CM_fast", MEMORY, seed=0, publish_every_items=10**9
    ).build_service()
    reference = build_sketch("CM_fast", MEMORY, seed=0)
    keys = [item.key for item in zipf_stream(1500, skew=1.1, universe=200, seed=5)]
    service.ingest(keys)
    reference.insert_batch(keys)
    service.flush()
    with AsyncServingSession(service) as session:
        report = run_open_loop(
            session.connect,
            OpenLoopConfig(
                clients=3, requests_per_client=50, target_qps=600.0,
                read_batch=8, batch_pool=16, seed=6, flushes_during_run=2,
            ),
            reference=reference,
        )
    assert report.completed == report.requests_total
    assert report.epoch_consistent, report.client_errors
    assert report.epochs_observed >= 1
    assert report.latency_p50_ms > 0
    assert report.latency_p999_ms >= report.latency_p99_ms >= report.latency_p50_ms


def test_open_loop_config_validation():
    with pytest.raises(ValueError):
        OpenLoopConfig(clients=0)
    with pytest.raises(ValueError):
        OpenLoopConfig(target_qps=-1.0)
    with pytest.raises(ValueError):
        OpenLoopConfig(read_batch=0)
    with pytest.raises(ValueError):
        OpenLoopConfig(max_inflight_per_client=0)


# ------------------------------------------------------------ server hygiene
def test_graceful_drain_answers_everything_accepted():
    """shutdown() after queries are in flight: every accepted query is
    answered before the sockets close, and the stats say so."""
    service = ServeConfig(
        "CM_fast", MEMORY, seed=0, publish_every_items=10**9
    ).build_service()
    service.ingest(list(range(100)))
    service.flush()
    session = AsyncServingSession(service)
    client = session.connect()
    batches = [[k, k + 1] for k in range(40)]
    answers = client.query_batches_pipelined(batches, max_inflight=40)
    stats = session.shutdown()
    assert len(answers) == len(batches)
    assert stats.drained
    assert stats.queries_served >= len(batches)
    assert stats.accepted >= 1


def test_server_constructor_validation():
    service = ServeConfig("CM_fast", MEMORY, seed=0).build_service()
    with pytest.raises(ValueError):
        AsyncSketchServer(service, max_inflight=0)
    with pytest.raises(ValueError):
        AsyncSketchServer(service, backlog=0)
    with pytest.raises(ValueError):
        AsyncSketchServer(service, drain_timeout=-1.0)
