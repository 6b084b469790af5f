"""Wire-format round-trips: serialize -> deserialize must be the identity.

Property-tested (Hypothesis) across key dtypes — small ints (the dense
uint32 mode), large/negative ints, strings, bytes, and mixtures (the tagged
mode) — plus empty batches, every value mode, and the state payloads of
every mergeable sketch family.  Malformed frames must fail loudly with
:class:`WireFormatError`, never decode to garbage.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import wire
from repro.distributed.wire import (
    MSG_BATCH,
    WireFormatError,
    decode_batch,
    decode_config,
    decode_frame,
    decode_state,
    encode_batch,
    encode_config,
    encode_frame,
    encode_state,
)
from repro.hashing import EncodedKeyBatch
from repro.sketches.registry import build_sketch, mergeable_names

# Key strategies mirror the supported stream key types.
small_ints = st.integers(min_value=0, max_value=2**31 - 1)
any_ints = st.integers(min_value=-(2**80), max_value=2**80)
texts = st.text(max_size=24)
blobs = st.binary(max_size=24)
mixed_keys = st.one_of(any_ints, texts, blobs)


def roundtrip(keys, values=None):
    batch, decoded_values = decode_batch(encode_batch(keys, values))
    return list(batch.keys), decoded_values


@given(st.lists(small_ints, max_size=64))
@settings(max_examples=60, deadline=None)
def test_small_int_batches_roundtrip(keys):
    decoded, values = roundtrip(keys)
    assert decoded == keys
    assert values.tolist() == [1] * len(keys)


@given(st.lists(mixed_keys, max_size=64))
@settings(max_examples=60, deadline=None)
def test_mixed_key_batches_roundtrip(keys):
    decoded, _ = roundtrip(keys)
    assert decoded == keys
    # Type-exact: 1 (int) must not come back as "1" (str) or b"\x01".
    assert [type(key) for key in decoded] == [type(key) for key in keys]


@given(st.lists(st.tuples(mixed_keys, st.integers(min_value=1, max_value=2**40)), max_size=48))
@settings(max_examples=60, deadline=None)
def test_key_value_batches_roundtrip(pairs):
    keys = [key for key, _ in pairs]
    values = [value for _, value in pairs]
    decoded_keys, decoded_values = roundtrip(keys, values)
    assert decoded_keys == keys
    assert decoded_values.tolist() == values
    assert decoded_values.dtype == np.int64


def test_empty_batch_roundtrips():
    decoded, values = roundtrip([])
    assert decoded == []
    assert values.shape == (0,)


def test_uniform_and_scalar_values_roundtrip():
    _, values = roundtrip([1, 2, 3], 7)
    assert values.tolist() == [7, 7, 7]
    # A constant array degrades to the compact uniform mode transparently.
    _, values = roundtrip([1, 2, 3], [5, 5, 5])
    assert values.tolist() == [5, 5, 5]


def test_decoded_batch_reuses_transmitted_encodings():
    """Tagged-mode decode must seed the batch with the wire encodings."""
    keys = ["flow-a", b"raw", -17, 2**40]
    source = EncodedKeyBatch(keys)
    batch, _ = decode_batch(encode_batch(source))
    assert batch._encoded == source.encoded


def test_int32_block_decodes_to_an_int64_batch_without_a_key_list():
    """The uint32 key block becomes one int64 array, and no Python key list
    is built unless a consumer asks for the keys."""
    keys = [5, 0, 2**31 - 1, 5]
    payload = encode_batch(keys)
    assert payload[4] == wire._KEYS_INT32  # the wire bytes keep their mode
    batch, _ = decode_batch(payload)
    request = wire.decode_query_request(
        wire.encode_query_request(1, wire.QUERY_KEYS, keys=keys)
    )
    for decoded in (batch, request.keys):
        assert decoded.int64_keys.dtype == np.int64
        assert decoded.int64_keys.tolist() == keys
        assert decoded._keys is None
    assert [type(key) for key in batch.keys] == [int] * len(keys)


def test_routed_subbatch_roundtrips():
    """The coordinator's take() sub-batches serialize like fresh batches."""
    parent = EncodedKeyBatch([5, "x", b"y", 9, 2**50])
    sub = parent.take(np.asarray([0, 2, 4]))
    decoded, _ = roundtrip(sub)
    assert decoded == [5, b"y", 2**50]


def test_value_length_mismatch_rejected():
    with pytest.raises(WireFormatError):
        encode_batch([1, 2, 3], [1, 2])


def test_unsupported_key_type_rejected():
    with pytest.raises(WireFormatError):
        encode_batch([1.5])


def payload_with_values(keys, values):
    """A batch payload carrying ``values`` as given (``encode_batch`` refuses
    non-positive ones): a list in the array mode, an int in the uniform mode."""
    head = encode_batch(keys)[:-1]  # the key block, less the all-ones value mode
    if isinstance(values, int):
        return head + bytes([wire._VALUES_UNIFORM]) + struct.pack(">q", values)
    return head + bytes([wire._VALUES_ARRAY]) + np.asarray(values, dtype="<i8").tobytes()


NON_POSITIVE_VALUES = [[1, -1, 2], [5, 0, 7], [0, 0, 0], -3, 0]


@pytest.mark.parametrize("values", NON_POSITIVE_VALUES)
def test_non_positive_values_rejected_on_decode(values):
    """Every sketch rejects such a value, so the decoder refuses the payload
    (array and uniform value modes alike) instead of handing it on."""
    payload = payload_with_values([1, 2, 3], values)
    with pytest.raises(WireFormatError, match="non-positive"):
        decode_batch(payload)


@pytest.mark.parametrize("values", NON_POSITIVE_VALUES)
def test_non_positive_values_rejected_on_encode(values):
    """The sender learns of a bad value at the call, not one read later."""
    with pytest.raises(WireFormatError, match="non-positive"):
        encode_batch([1, 2, 3], values)
    # An empty batch carries no value, so there is nothing to refuse; the
    # decoder accepts it too.
    empty = encode_batch([], values if isinstance(values, int) else [])
    assert len(decode_batch(empty)[0]) == 0


@pytest.mark.parametrize("name", sorted(mergeable_names()))
def test_sketch_state_roundtrips(name):
    """State payloads restore into replicas that answer queries identically."""
    donor = build_sketch(name, 4096, seed=3)
    items = [(key % 37, 1 + key % 5) for key in range(500)]
    donor.insert_batch([key for key, _ in items], [value for _, value in items])

    payload = encode_state(donor.state_snapshot(), name, {"items": len(items)})
    state, algorithm, meta = decode_state(payload)
    assert algorithm == name
    assert meta == {"items": len(items)}

    replica = build_sketch(name, 4096, seed=3)
    replica.state_restore(state)
    keys = sorted({key for key, _ in items}) + [999_999]
    assert replica.query_batch(keys).tolist() == donor.query_batch(keys).tolist()


def test_state_snapshot_is_a_copy():
    sketch = build_sketch("CM_fast", 4096, seed=0)
    sketch.insert(1, 5)
    snapshot = sketch.state_snapshot()
    sketch.insert(1, 5)
    replica = build_sketch("CM_fast", 4096, seed=0)
    replica.state_restore(snapshot)
    assert replica.query(1) == 5
    assert sketch.query(1) == 10


def test_state_restore_validates_shape():
    sketch = build_sketch("CM_fast", 4096, seed=0)
    with pytest.raises(ValueError):
        sketch.state_restore({"tables": np.zeros((1, 1), dtype=np.int64)})
    with pytest.raises(ValueError):
        sketch.state_restore({"wrong-name": np.zeros((1, 1), dtype=np.int64)})


def test_unmergeable_sketches_refuse_snapshots():
    from repro.sketches.base import UnmergeableSketchError

    sketch = build_sketch("Elastic", 4096, seed=0)
    with pytest.raises(UnmergeableSketchError):
        sketch.state_snapshot()
    with pytest.raises(UnmergeableSketchError):
        sketch.state_restore({})


def test_frame_roundtrip_and_validation():
    frame = encode_frame(MSG_BATCH, b"payload")
    assert decode_frame(frame) == (MSG_BATCH, b"payload")

    with pytest.raises(WireFormatError):
        encode_frame(99, b"")
    with pytest.raises(WireFormatError):
        decode_frame(b"XX" + frame[2:])  # bad magic
    with pytest.raises(WireFormatError):
        decode_frame(frame[:2] + bytes([wire.WIRE_VERSION + 1]) + frame[3:])  # version
    with pytest.raises(WireFormatError):
        decode_frame(frame[:-2])  # truncated payload
    with pytest.raises(WireFormatError):
        decode_frame(frame[: wire.FRAME_HEADER_SIZE - 1])  # truncated header


@given(st.binary(max_size=64))
@settings(max_examples=60, deadline=None)
def test_malformed_batch_payloads_never_crash(payload):
    """Arbitrary bytes either decode cleanly or raise WireFormatError."""
    try:
        batch, values = decode_batch(payload)
    except WireFormatError:
        return
    assert len(batch) == len(values)


def test_truncated_state_payloads_rejected():
    payload = encode_state({"tables": np.arange(6).reshape(2, 3)}, "CM_fast", {})
    with pytest.raises(WireFormatError):
        decode_state(payload[:-4])
    with pytest.raises(WireFormatError):
        decode_state(payload + b"extra")
    with pytest.raises(WireFormatError):
        decode_state(b"\x00\x00")


def test_structurally_invalid_state_headers_rejected():
    """Valid JSON with the wrong shape must still raise WireFormatError."""
    import json
    import struct

    def payload_for(header: dict) -> bytes:
        blob = json.dumps(header).encode("utf-8")
        return struct.pack(">I", len(blob)) + blob

    for header in (
        {},  # no arrays/algorithm/meta at all
        {"algorithm": "CM_fast", "meta": {}},  # missing arrays
        {"algorithm": "CM_fast", "meta": {}, "arrays": [{}]},  # entry missing keys
        {"algorithm": "CM_fast", "meta": {},
         "arrays": [{"name": "t", "dtype": "not-a-dtype", "shape": [1]}]},
    ):
        with pytest.raises(WireFormatError):
            decode_state(payload_for(header))


def test_oversized_frames_rejected_at_both_ends():
    """The 64 MiB payload bound holds on encode and on header parse.

    The parse side is the hostile one: a corrupt or adversarial header
    declaring an absurd length must fail before any buffer is allocated
    or any payload byte is awaited.
    """
    import struct

    with pytest.raises(WireFormatError, match="bound"):
        encode_frame(MSG_BATCH, bytes(wire.MAX_PAYLOAD_BYTES + 1))

    hostile = wire._FRAME_HEADER.pack(
        wire.MAGIC, wire.WIRE_VERSION, MSG_BATCH, wire.MAX_PAYLOAD_BYTES + 1
    )
    with pytest.raises(WireFormatError, match="bound"):
        wire.parse_frame_header(hostile)
    # The bound itself is fine: only the header is built here, no payload.
    msg_type, length = wire.parse_frame_header(
        struct.pack(">2sBBI", wire.MAGIC, wire.WIRE_VERSION, MSG_BATCH,
                    wire.MAX_PAYLOAD_BYTES)
    )
    assert (msg_type, length) == (MSG_BATCH, wire.MAX_PAYLOAD_BYTES)


def test_oversized_frames_raise_the_typed_subclass():
    """Callers classify an oversized frame by type, not by message text."""
    with pytest.raises(wire.FrameTooLargeError):
        encode_frame(MSG_BATCH, bytes(wire.MAX_PAYLOAD_BYTES + 1))
    hostile = wire._FRAME_HEADER.pack(
        wire.MAGIC, wire.WIRE_VERSION, MSG_BATCH, wire.MAX_PAYLOAD_BYTES + 1
    )
    with pytest.raises(wire.FrameTooLargeError):
        wire.parse_frame_header(hostile)
    bad_magic = wire._FRAME_HEADER.pack(b"XX", wire.WIRE_VERSION, MSG_BATCH, 8)
    with pytest.raises(WireFormatError) as raised:
        wire.parse_frame_header(bad_magic)
    assert type(raised.value) is WireFormatError


def test_busy_query_reply_round_trips():
    """v2 replies carry a status byte; BUSY replies carry no body."""
    from repro.distributed.wire import (
        QUERY_KEYS,
        STATUS_BUSY,
        STATUS_OK,
        decode_query_response,
        encode_query_response,
    )

    busy = decode_query_response(
        encode_query_response(42, QUERY_KEYS, 7, status=STATUS_BUSY)
    )
    assert (busy.request_id, busy.kind, busy.epoch_id) == (42, QUERY_KEYS, 7)
    assert busy.status == STATUS_BUSY
    assert busy.estimates is None and busy.keys is None and busy.stats is None

    ok = decode_query_response(
        encode_query_response(42, QUERY_KEYS, 7, estimates=[1, 2])
    )
    assert ok.status == STATUS_OK
    assert ok.estimates.tolist() == [1, 2]

    # A BUSY reply must not smuggle a body, and unknown statuses must fail.
    with pytest.raises(WireFormatError):
        encode_query_response(1, QUERY_KEYS, 0, estimates=[1], status=STATUS_BUSY)
    busy_frame = encode_query_response(1, QUERY_KEYS, 0, status=STATUS_BUSY)
    with pytest.raises(WireFormatError):
        decode_query_response(busy_frame + b"x")  # trailing bytes after BUSY
    corrupt = bytearray(busy_frame)
    corrupt[5] = 99  # the status byte of the >IBBQ header
    with pytest.raises(WireFormatError):
        decode_query_response(bytes(corrupt))


def test_config_roundtrip_and_validation():
    config = {"algorithm": "CM_fast", "memory_bytes": 4096.0, "shard_id": 1}
    assert decode_config(encode_config(config)) == config
    with pytest.raises(WireFormatError):
        decode_config(b"\xff\xfe")
    with pytest.raises(WireFormatError):
        decode_config(b"[1, 2]")


# ---------------------------------------------------------------------------
# v3 dynamic-protocol frames: heartbeat / handoff / credit / routed batches.
# Same hostile-input bar as the v2 query frames — round-trip identity, and
# truncated, oversized, trailing-garbage, and wrong-epoch payloads must all
# raise WireFormatError, never decode to something plausible.


def test_heartbeat_roundtrip_and_epoch_fence():
    from repro.distributed.wire import decode_heartbeat, encode_heartbeat

    assert decode_heartbeat(encode_heartbeat(7, 3)) == (7, 3)
    assert decode_heartbeat(encode_heartbeat(7, 3), expected_epoch=3) == (7, 3)
    with pytest.raises(WireFormatError, match="epoch"):
        decode_heartbeat(encode_heartbeat(7, 3), expected_epoch=4)
    with pytest.raises(WireFormatError):
        decode_heartbeat(encode_heartbeat(7, 3)[:-1])  # truncated
    with pytest.raises(WireFormatError):
        decode_heartbeat(encode_heartbeat(7, 3) + b"\x00")  # trailing


def test_heartbeat_ack_roundtrip_and_validation():
    from repro.distributed.wire import decode_heartbeat_ack, encode_heartbeat_ack

    payload = encode_heartbeat_ack(9, 2, 1_000_000, stale_dropped=4)
    assert decode_heartbeat_ack(payload) == (9, 2, 1_000_000, 4)
    with pytest.raises(WireFormatError, match="epoch"):
        decode_heartbeat_ack(payload, expected_epoch=1)
    with pytest.raises(WireFormatError):
        decode_heartbeat_ack(payload[:-2])
    with pytest.raises(WireFormatError):
        decode_heartbeat_ack(payload + b"xx")


def test_credit_roundtrip_and_validation():
    from repro.distributed.wire import decode_credit, encode_credit

    assert decode_credit(encode_credit(5, 2)) == (5, 2)
    with pytest.raises(WireFormatError):
        encode_credit(5, 0)  # a credit grant must free at least one slot
    with pytest.raises(WireFormatError):
        decode_credit(encode_credit(5, 1)[:-1])
    with pytest.raises(WireFormatError):
        decode_credit(encode_credit(5, 1) + b"\x00")


def test_routed_batch_roundtrip_and_epoch_fence():
    from repro.distributed.wire import decode_routed_batch, encode_routed_batch

    batch = EncodedKeyBatch([3, "flow", b"raw", 2**50])
    payload = encode_routed_batch(4, 11, batch, [1, 2, 3, 4])
    epoch, partition, decoded, values = decode_routed_batch(payload)
    assert (epoch, partition) == (4, 11)
    assert list(decoded.keys) == [3, "flow", b"raw", 2**50]
    assert values.tolist() == [1, 2, 3, 4]

    with pytest.raises(WireFormatError, match="epoch"):
        decode_routed_batch(payload, expected_epoch=3)
    with pytest.raises(WireFormatError):
        decode_routed_batch(payload[:6])  # header truncated mid-struct
    with pytest.raises(WireFormatError):
        decode_routed_batch(payload[:9])  # batch body truncated


def test_handoff_roundtrip_and_epoch_fence():
    from repro.distributed.wire import decode_handoff, encode_handoff

    donor = build_sketch("CM_fast", 4096, seed=3)
    donor.insert_batch(list(range(40)), [2] * 40)
    payload = encode_handoff(
        6, 2, donor.state_snapshot(), "CM_fast", {"items": 40}
    )
    epoch, partition, state, algorithm, meta = decode_handoff(payload)
    assert (epoch, partition, algorithm, meta) == (6, 2, "CM_fast", {"items": 40})
    replica = build_sketch("CM_fast", 4096, seed=3)
    replica.state_restore(state)
    assert replica.query_batch(list(range(40))).tolist() == donor.query_batch(
        list(range(40))
    ).tolist()

    with pytest.raises(WireFormatError, match="epoch"):
        decode_handoff(payload, expected_epoch=5)
    with pytest.raises(WireFormatError):
        decode_handoff(payload[:7])  # header truncated
    with pytest.raises(WireFormatError):
        decode_handoff(payload[:-3])  # state body truncated
    with pytest.raises(WireFormatError):
        decode_handoff(payload + b"junk")  # trailing bytes after the state


def test_handoff_ack_roundtrip_and_epoch_fence():
    from repro.distributed.wire import decode_handoff_ack, encode_handoff_ack

    assert decode_handoff_ack(encode_handoff_ack(6, 2)) == (6, 2)
    with pytest.raises(WireFormatError, match="epoch"):
        decode_handoff_ack(encode_handoff_ack(6, 2), expected_epoch=7)
    with pytest.raises(WireFormatError):
        decode_handoff_ack(encode_handoff_ack(6, 2)[:-1])
    with pytest.raises(WireFormatError):
        decode_handoff_ack(encode_handoff_ack(6, 2) + b"\x00")


def test_snapshot_request_roundtrip_and_validation():
    from repro.distributed.wire import (
        decode_snapshot_request,
        encode_snapshot_request,
    )

    assert decode_snapshot_request(encode_snapshot_request(3, 5)) == (3, 5, False)
    assert decode_snapshot_request(
        encode_snapshot_request(3, 5, release=True)
    ) == (3, 5, True)
    with pytest.raises(WireFormatError, match="epoch"):
        decode_snapshot_request(encode_snapshot_request(3, 5), expected_epoch=2)
    with pytest.raises(WireFormatError):
        decode_snapshot_request(encode_snapshot_request(3, 5)[:-1])
    # A release flag outside {0, 1} is corruption, not a boolean.
    corrupt = bytearray(encode_snapshot_request(3, 5))
    corrupt[-1] = 2
    with pytest.raises(WireFormatError):
        decode_snapshot_request(bytes(corrupt))


def test_oversized_handoff_frames_hit_the_frame_bound():
    """A handoff whose state exceeds the payload bound fails at encode_frame —
    the same 64 MiB ceiling every other frame type lives under."""
    from repro.distributed.wire import MSG_HANDOFF

    state = {"tables": np.zeros(wire.MAX_PAYLOAD_BYTES // 8 + 16, dtype=np.int64)}
    payload = wire.encode_handoff(1, 0, state, "CM_fast", {})
    with pytest.raises(WireFormatError, match="bound"):
        encode_frame(MSG_HANDOFF, payload)


@given(st.binary(max_size=48))
@settings(max_examples=60, deadline=None)
def test_malformed_dynamic_payloads_never_crash(payload):
    """Arbitrary bytes against every v3 decoder: clean decode or WireFormatError."""
    from repro.distributed.wire import (
        decode_credit,
        decode_handoff,
        decode_handoff_ack,
        decode_heartbeat,
        decode_heartbeat_ack,
        decode_routed_batch,
        decode_snapshot_request,
    )

    for decoder in (
        decode_heartbeat,
        decode_heartbeat_ack,
        decode_credit,
        decode_handoff_ack,
        decode_snapshot_request,
        decode_routed_batch,
        decode_handoff,
    ):
        try:
            decoder(payload)
        except WireFormatError:
            pass


# ---------------------------------------------------------------------------
# Non-canonical int slots: the receiver hashes a key's own encoding, so a
# tagged INT slot must hold exactly key_to_bytes of its value.


def _tagged_key_block(slots) -> bytes:
    """A hand-built tagged key block of ``(tag, encoded bytes)`` slots."""
    lengths = np.asarray([len(piece) for _, piece in slots], dtype="<u4")
    return (bytes([1]) + bytes(tag for tag, _ in slots) + lengths.tobytes()
            + b"".join(piece for _, piece in slots))


def _batch_payload(slots) -> bytes:
    import struct

    return struct.pack(">I", len(slots)) + _tagged_key_block(slots) + bytes([0])


def _decoders():
    """Each frame family that carries a key block: (name, decode of the slots)."""
    import struct

    from repro.distributed.wire import QUERY_KEYS, decode_query_request, decode_routed_batch

    return {
        "batch": lambda slots: decode_batch(_batch_payload(slots)),
        "routed-batch": lambda slots: decode_routed_batch(
            struct.pack(">II", 3, 1) + _batch_payload(slots)
        ),
        "query-request": lambda slots: decode_query_request(
            struct.pack(">IBI", 9, QUERY_KEYS, len(slots)) + _tagged_key_block(slots)
        ),
    }


INT_TAG, STR_TAG = 0, 1
NON_CANONICAL_SLOTS = {
    "5 in 8 bytes": (10).to_bytes(8, "little"),
    "empty slot": b"",
    "3-byte slot": (10).to_bytes(3, "little"),
    "code of -0": (1).to_bytes(4, "little"),
}


@pytest.mark.parametrize("frame", ("batch", "routed-batch", "query-request"))
@pytest.mark.parametrize("slot", sorted(NON_CANONICAL_SLOTS))
# An all-INT block decodes with array operations; a str key forces the
# per-key loop.  Both must reject the slot.
@pytest.mark.parametrize("neighbour", ((INT_TAG, (14).to_bytes(4, "little")),
                                       (STR_TAG, b"flow")))
def test_non_canonical_int_slots_are_rejected(frame, slot, neighbour):
    decode = _decoders()[frame]
    with pytest.raises(WireFormatError, match="non-canonical"):
        decode([neighbour, (INT_TAG, NON_CANONICAL_SLOTS[slot])])
    # The canonical encoding of the same key decodes on every path.
    decode([neighbour, (INT_TAG, (10).to_bytes(4, "little"))])


def test_non_canonical_key_would_break_remote_equals_local():
    """Key 5 shipped in 8 bytes would decode to 5 yet hash its 8 bytes."""
    from repro.hashing.families import key_to_bytes

    padded = (10).to_bytes(8, "little")
    assert key_to_bytes(5) != padded
    local = build_sketch("CM_fast", 4096, seed=0)
    local.insert(5)
    remote = build_sketch("CM_fast", 4096, seed=0)
    batch, values = decode_batch(_batch_payload([(INT_TAG, key_to_bytes(5))]))
    remote.insert_batch(batch, values)
    assert remote.query(5) == local.query(5) == 1
    with pytest.raises(WireFormatError):
        decode_batch(_batch_payload([(INT_TAG, padded)]))


@given(st.lists(st.integers(min_value=-(2**63) + 1, max_value=2**63 - 1), max_size=40))
@settings(max_examples=60, deadline=None)
def test_int_batches_roundtrip_as_int_arrays(keys):
    """Tagged int blocks decode into int batches with the sender's keys and hashes."""
    from repro.hashing import HashFunction

    source = EncodedKeyBatch(np.asarray(keys, dtype=np.int64))
    batch, _ = decode_batch(encode_batch(source))
    assert list(batch.keys) == keys
    assert batch.int64_keys is not None
    hash_fn = HashFunction(7)
    assert hash_fn.raw_batch(batch).tolist() == hash_fn.raw_batch(source).tolist()
