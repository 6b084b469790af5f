"""Remote serving over the wire: query frames and client/server parity."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.distributed.wire import (
    QUERY_FLUSH,
    QUERY_KEYS,
    QUERY_STATS,
    QUERY_TOP_K,
    WireFormatError,
    decode_query_request,
    decode_query_response,
    encode_query_request,
    encode_query_response,
)
from repro.serve.async_server import AsyncServingSession
from repro.serve.server import ServeConfig
from repro.sketches.registry import build_sketch
from repro.streams.synthetic import zipf_stream

MEMORY = 32 * 1024


# ---------------------------------------------------------------- wire frames
def test_query_request_round_trips():
    request = decode_query_request(
        encode_query_request(7, QUERY_KEYS, keys=[1, "flow", b"raw", -9])
    )
    assert request.request_id == 7 and request.kind == QUERY_KEYS
    assert list(request.keys) == [1, "flow", b"raw", -9]

    request = decode_query_request(encode_query_request(8, QUERY_TOP_K, k=12))
    assert (request.kind, request.k) == (QUERY_TOP_K, 12)

    for kind in (QUERY_STATS, QUERY_FLUSH):
        request = decode_query_request(encode_query_request(9, kind))
        assert request.kind == kind and request.keys is None


def test_query_response_round_trips():
    response = decode_query_response(
        encode_query_response(3, QUERY_KEYS, 41, estimates=[5, 0, 2])
    )
    assert (response.request_id, response.epoch_id) == (3, 41)
    assert response.estimates.tolist() == [5, 0, 2]

    response = decode_query_response(
        encode_query_response(4, QUERY_TOP_K, 2, estimates=[9, 7], keys=["hot", 12])
    )
    assert list(response.keys) == ["hot", 12]
    assert response.estimates.tolist() == [9, 7]

    response = decode_query_response(
        encode_query_response(5, QUERY_STATS, 1, stats={"epoch_id": 1})
    )
    assert response.stats == {"epoch_id": 1}

    response = decode_query_response(encode_query_response(6, QUERY_FLUSH, 13))
    assert response.epoch_id == 13


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"\x00",
        encode_query_request(1, QUERY_KEYS, keys=[1, 2])[:-1],  # truncated
        encode_query_request(1, QUERY_KEYS, keys=[1, 2]) + b"x",  # trailing
        b"\x00\x00\x00\x01\x63",  # unknown kind 99
    ],
)
def test_malformed_query_requests_raise(payload):
    with pytest.raises(WireFormatError):
        decode_query_request(payload)


def test_query_frame_validation():
    with pytest.raises(WireFormatError):
        encode_query_request(1, QUERY_KEYS)  # missing keys
    with pytest.raises(WireFormatError):
        encode_query_request(1, QUERY_TOP_K, k=0)
    with pytest.raises(WireFormatError):
        encode_query_request(1, 99)
    with pytest.raises(WireFormatError):
        encode_query_response(1, QUERY_TOP_K, 0, estimates=[1], keys=[1, 2])
    with pytest.raises(WireFormatError):
        encode_query_response(1, QUERY_STATS, 0)
    with pytest.raises(WireFormatError):
        decode_query_response(encode_query_response(1, QUERY_KEYS, 0, estimates=[1])[:-2])


# ------------------------------------------------------------- remote parity
@contextmanager
def served(config: ServeConfig):
    """A client connected to ``config``'s service behind the TCP event loop."""
    with AsyncServingSession(config.build_service()) as session:
        client = session.connect()
        try:
            yield client
        finally:
            client.close()


def test_remote_serving_matches_local_reference():
    """Writes shipped over the wire; the final epoch equals a local twin."""
    stream = zipf_stream(6000, skew=1.1, universe=1500, seed=5)
    reference = build_sketch("CM_fast", MEMORY, seed=0)
    config = ServeConfig("CM_fast", MEMORY, seed=0, publish_every_items=1024)
    with served(config) as client:
        for chunk in stream.iter_batches(512):
            keys = [item.key for item in chunk]
            values = [item.value for item in chunk]
            client.ingest(keys, values)
            reference.insert_batch(keys, values)
        client.flush()
        query_keys = stream.keys() + ["missing", -1]
        answers, epoch_id = client.query_batch(query_keys)
        assert epoch_id >= 1
        assert (answers == reference.query_batch(query_keys)).all()
        # scalar convenience wrapper agrees
        assert client.query(query_keys[0]) == int(answers[0])


def test_remote_top_k_and_stats():
    stream = zipf_stream(4000, skew=1.4, universe=400, seed=8)
    config = ServeConfig("CU_fast", MEMORY, seed=0, publish_every_items=2048)
    local = config.build_service()
    with served(config) as client:
        for chunk in stream.iter_batches(512):
            keys = [item.key for item in chunk]
            client.ingest(keys)
            local.ingest(keys)
        client.flush()
        local.flush()
        remote_ranking, _ = client.top_k(8)
        assert remote_ranking == local.top_k(8)
        stats = client.stats()
        assert stats["items_ingested"] == len(stream)
        assert stats["algorithm"] == "CU"


def test_remote_top_k_sees_keys_ingested_since_publish():
    """QUERY_TOP_K ranks today's directory against the answering epoch, so
    a repeated request at one epoch still lists keys written since."""
    config = ServeConfig("CM_fast", MEMORY, seed=0, publish_every_items=10**9)
    with served(config) as client:
        client.ingest([1] * 5)
        assert client.flush() == 1
        assert client.top_k(3) == ([(1, 5)], 1)
        client.ingest([2, 3])
        assert client.top_k(3) == ([(1, 5), (2, 0), (3, 0)], 1)
        assert client.flush() == 2
        assert client.top_k(3) == ([(1, 5), (2, 1), (3, 1)], 2)


def test_remote_serving_of_reliable_sketch():
    """ReliableSketch (snapshotable, unmergeable) serves remotely too."""
    stream = zipf_stream(5000, skew=1.2, universe=1000, seed=2)
    reference = build_sketch("Ours", MEMORY, seed=0)
    config = ServeConfig("Ours", MEMORY, seed=0, publish_every_items=1024)
    with served(config) as client:
        for chunk in stream.iter_batches(256):
            keys = [item.key for item in chunk]
            client.ingest(keys)
            reference.insert_batch(keys)
        client.flush()
        answers, _ = client.query_batch(stream.keys())
    assert (answers == reference.query_batch(stream.keys())).all()


def test_sharded_service_over_the_wire():
    """shards > 1 builds the service over a ShardedSketch, still exact."""
    from repro.sketches.sharded import ShardedSketch

    stream = zipf_stream(4000, skew=1.1, universe=900, seed=6)
    reference = ShardedSketch.from_registry("Ours", MEMORY, 2, seed=0)
    config = ServeConfig("Ours", MEMORY, seed=0, shards=2, publish_every_items=1024)
    with served(config) as client:
        for chunk in stream.iter_batches(512):
            keys = [item.key for item in chunk]
            client.ingest(keys)
            reference.insert_batch(keys)
        client.flush()
        answers, _ = client.query_batch(stream.keys())
    assert (answers == reference.query_batch(stream.keys())).all()


def test_epoch_id_is_stable_between_publishes():
    config = ServeConfig("CM_fast", MEMORY, seed=0, publish_every_items=10**9)
    with served(config) as client:
        client.ingest([1, 2, 3])
        first, epoch_a = client.query_batch([1])
        second, epoch_b = client.query_batch([1])
        assert epoch_a == epoch_b == 0
        assert first.tolist() == second.tolist() == [0]
        assert client.flush() == 1
        answers, epoch_c = client.query_batch([1])
        assert (epoch_c, answers.tolist()) == (1, [1])
