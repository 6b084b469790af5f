"""On-disk format armor: every byte of damage must be *detected*.

The snapshot codec's contract is absolute: a decode either returns the
exact bytes-verified state or raises :class:`StoreCorruptionError` — there
is no input that decodes to *different* counts.  These tests earn that
claim the brute-force way: flip every bit of a real snapshot file,
truncate it at every length, extend it, and assert the typed error every
single time.  The WAL side pins the torn-tail prefix discipline: damage at
frame k never costs frames 0..k-1.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.wire import encode_state
from repro.sketches.registry import build_sketch
from repro.store.format import (
    MAX_WAL_FRAME_BYTES,
    STORE_FORMAT_VERSION,
    StoreCorruptionError,
    WAL_HEADER_BYTES,
    decode_snapshot_file,
    decode_wal_header,
    encode_snapshot_file,
    encode_wal_frame,
    encode_wal_header,
    parse_snapshot_filename,
    parse_wal_filename,
    read_wal,
    snapshot_filename,
    wal_filename,
)


def small_snapshot_blob():
    sketch = build_sketch("CM_fast", 512, seed=1)
    sketch.insert_batch([f"k{i}" for i in range(40)])
    return (
        encode_snapshot_file(
            sketch.state_snapshot(), "CM_fast", {"epoch_id": 3, "items": 40}
        ),
        sketch.state_snapshot(),
    )


def wal_blob(frames=3):
    blob = encode_wal_header(7)
    for index in range(frames):
        blob += encode_wal_frame([f"k{index}", f"q{index}"], [1, 2 + index])
    return blob


# ---------------------------------------------------------------- round trips
def test_snapshot_round_trip():
    blob, state = small_snapshot_blob()
    decoded, algorithm, meta = decode_snapshot_file(blob)
    assert algorithm == "CM_fast"
    assert meta["epoch_id"] == 3 and meta["items"] == 40
    assert set(decoded) == set(state)
    for key in state:
        assert np.array_equal(np.asarray(decoded[key]), np.asarray(state[key]))


def test_snapshot_file_is_header_state_payload_and_crc():
    """One-copy encoding writes exactly header + encode_state + CRC-32."""
    sketch = build_sketch("Ours", 16 * 1024, seed=2)
    sketch.insert_batch([f"k{i % 300}" for i in range(2000)] + list(range(500)))
    state = sketch.state_snapshot()
    state["empty"] = np.zeros(0, dtype=np.int64)
    state["strided"] = np.arange(60, dtype=np.int64).reshape(6, 10)[:, ::3]
    state["transposed"] = np.arange(12, dtype=np.int32).reshape(3, 4).T
    assert not state["strided"].flags.c_contiguous
    assert not state["transposed"].flags.c_contiguous
    meta = {"epoch_id": 9, "items": 2500}
    body = encode_state(state, "Ours", meta)
    assert body.endswith(
        b"".join(np.ascontiguousarray(array).tobytes() for array in state.values())
    )
    reference = struct.pack(">4sBQ", b"RSNP", STORE_FORMAT_VERSION, len(body)) + body
    reference += struct.pack(">I", zlib.crc32(reference))
    blob = encode_snapshot_file(state, "Ours", meta)
    assert blob == reference
    decoded, _, _ = decode_snapshot_file(blob)
    for name, array in state.items():
        assert np.array_equal(decoded[name], array), name


def test_wal_round_trip():
    contents = read_wal(wal_blob())
    assert contents.epoch_id == 7
    assert contents.tail_error is None
    assert len(contents.batches) == 3
    assert contents.items == 6
    assert contents.valid_bytes == len(wal_blob())
    batch, values = contents.batches[2]
    assert list(values) == [1, 4]


def test_filenames_round_trip():
    assert parse_snapshot_filename(snapshot_filename(12)) == 12
    assert parse_wal_filename(wal_filename(12)) == 12
    assert parse_snapshot_filename(wal_filename(12)) is None
    assert parse_wal_filename("epoch-000000000012.snap") is None
    assert parse_snapshot_filename("epoch-12.snap") is None  # unpadded = stray
    # Lexical order equals epoch order — what recovery's scan relies on.
    assert sorted([snapshot_filename(2), snapshot_filename(10)]) == [
        snapshot_filename(2),
        snapshot_filename(10),
    ]


# ------------------------------------------------------------ hostile bytes
def test_every_single_bit_flip_is_detected():
    blob, _ = small_snapshot_blob()
    blob = bytearray(blob)
    for offset in range(len(blob)):
        for bit in range(8):
            blob[offset] ^= 1 << bit
            with pytest.raises(StoreCorruptionError):
                decode_snapshot_file(bytes(blob))
            blob[offset] ^= 1 << bit
    # The pristine blob still decodes (the loop restored every flip).
    decode_snapshot_file(bytes(blob))


def test_every_truncation_is_detected():
    blob, _ = small_snapshot_blob()
    for length in range(len(blob)):
        with pytest.raises(StoreCorruptionError):
            decode_snapshot_file(blob[:length])


def test_extension_is_detected():
    blob, _ = small_snapshot_blob()
    for extra in (b"\x00", b"\xff" * 7, blob[:16]):
        with pytest.raises(StoreCorruptionError):
            decode_snapshot_file(blob + extra)


def test_unknown_version_is_typed_not_misparsed():
    blob, _ = small_snapshot_blob()
    damaged = blob[:4] + bytes([STORE_FORMAT_VERSION + 1]) + blob[5:]
    with pytest.raises(StoreCorruptionError, match="version"):
        decode_snapshot_file(damaged)


@given(st.binary(max_size=64))
@settings(max_examples=80, deadline=None)
def test_junk_never_decodes(junk):
    with pytest.raises(StoreCorruptionError):
        decode_snapshot_file(junk)


@given(st.binary(max_size=WAL_HEADER_BYTES - 1))
@settings(max_examples=40, deadline=None)
def test_short_wal_header_rejected(junk):
    with pytest.raises(StoreCorruptionError):
        decode_wal_header(junk)


# ----------------------------------------------------- torn-tail discipline
def test_torn_wal_tail_keeps_valid_prefix():
    blob = wal_blob(frames=3)
    frame = encode_wal_frame(["late"], [9])
    for cut in range(1, len(frame)):
        contents = read_wal(blob + frame[:cut])
        assert contents.tail_error is not None
        assert len(contents.batches) == 3  # the prefix never shrinks
        assert contents.valid_bytes == len(blob)


def test_wal_frame_bit_flip_stops_at_that_frame():
    header = encode_wal_header(1)
    first = encode_wal_frame(["a"], [1])
    second = encode_wal_frame(["b"], [2])
    damaged = bytearray(header + first + second)
    # Flip a bit inside the second frame's payload: frame 1 must survive.
    damaged[len(header) + len(first) + 9] ^= 0x40
    contents = read_wal(bytes(damaged))
    assert len(contents.batches) == 1
    assert contents.tail_error is not None
    assert contents.valid_bytes == len(header) + len(first)


def test_wal_frame_with_a_non_positive_value_is_the_tail():
    """A frame journaled before values were validated (the batch its sketch
    then rejected) ends the valid prefix, so recovery never replays it."""
    header = encode_wal_header(1)
    first = encode_wal_frame(["a"], [1])
    contents = read_wal(header + first + encode_wal_frame([1, 2], [1, -1])
                        + encode_wal_frame(["b"], [2]))
    assert len(contents.batches) == 1
    assert "non-positive" in contents.tail_error
    assert contents.valid_bytes == len(header) + len(first)


def test_wal_insane_frame_length_rejected():
    import struct

    header = encode_wal_header(1)
    bogus = struct.pack(">II", MAX_WAL_FRAME_BYTES + 1, 0)
    contents = read_wal(header + bogus + b"x" * 32)
    assert contents.batches == ()
    assert "claims" in contents.tail_error


def test_wal_header_damage_is_fatal():
    blob = bytearray(wal_blob())
    blob[0] ^= 0xFF
    with pytest.raises(StoreCorruptionError):
        read_wal(bytes(blob))
