"""The whole-array int key codec against the per-key ``key_to_bytes`` reference.

One codec (``encode_int_keys`` / ``pack_int_keys`` / ``decode_int_keys``)
serves ``EncodedKeyBatch``, the wire key block and ``keys_to_arrays``.  Its
output must be the per-key path's byte for byte: the same length groups,
hashes, encodings and ``take()`` sub-batches for list and ndarray input of
every int dtype, and wire frames identical to the per-key frame layout.
Keys outside its domain (``-2^63``, ints beyond int64, ``bool`` arrays,
``uint64`` values of ``2^63`` and up) must reach the per-key path.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.wire import decode_batch, encode_batch
from repro.hashing import EncodedKeyBatch, HashFunction, key_to_bytes, murmur3_32
from repro.hashing.families import (
    _keys_from_arrays_per_key,
    as_int64_keys,
    decode_int_keys,
    encode_int_keys,
    keys_from_arrays,
    pack_int_keys,
)

SEEDS = (0, 0x9E3779B9)

#: Both sides of every encoded-length boundary 2^(8L-1), L = 4..8, signed.
BOUNDARIES = sorted(
    {sign * (2 ** (8 * length - 1) + delta)
     for length in range(4, 9) for delta in (-1, 0) for sign in (1, -1)}
)
EDGE_INTS = sorted(
    set(BOUNDARIES) | {0, 1, -1, 2**31 - 1, 2**31, 2**63 - 1, -(2**63 - 1), -(2**63), 2**63}
)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

int64_keys = st.one_of(
    st.sampled_from([key for key in EDGE_INTS if INT64_MIN < key <= INT64_MAX]),
    st.integers(min_value=INT64_MIN + 1, max_value=INT64_MAX),
    st.integers(min_value=-(2**40), max_value=2**40),
)
any_int_keys = st.one_of(int64_keys, st.sampled_from(EDGE_INTS), st.integers())

DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def reference_groups(keys) -> list[tuple[list[int], list[list[int]]]]:
    """Length groups built per key: first-seen length order, positions ascending."""
    by_length: dict[int, list[int]] = {}
    encodings = [key_to_bytes(key) for key in keys]
    for position, encoding in enumerate(encodings):
        by_length.setdefault(len(encoding), []).append(position)
    return [
        (positions, [list(encodings[i]) for i in positions])
        for positions in by_length.values()
    ]


def reference_take_groups(keys, positions: list[int]) -> list[tuple[list[int], list[list[int]]]]:
    """The per-key path's ``take()``: its parent groups, in order, cut to ``positions``."""
    index_of = {position: index for index, position in enumerate(positions)}
    groups = []
    for members, rows in reference_groups(keys):
        picked = [(index_of[p], row) for p, row in zip(members, rows) if p in index_of]
        if picked:
            groups.append(([index for index, _ in picked], [row for _, row in picked]))
    return groups


def groups_of(batch: EncodedKeyBatch) -> list[tuple[list[int], list[list[int]]]]:
    return [(positions.tolist(), matrix.tolist()) for positions, matrix in batch.groups]


def reference_hashes(keys, seed: int) -> list[int]:
    return [murmur3_32(key_to_bytes(key), seed) for key in keys]


def reference_key_block(keys) -> bytes:
    """The key block of a batch payload, written per key from the format spec."""
    count = len(keys)
    if all(type(key) is int and 0 <= key < 2**31 for key in keys):
        return bytes([0]) + np.asarray(keys, dtype="<u4").tobytes()
    tags = bytes(2 if isinstance(key, bytes) else 1 if isinstance(key, str) else 0
                 for key in keys)
    encodings = [key_to_bytes(key) for key in keys]
    lengths = np.asarray([len(encoding) for encoding in encodings], dtype="<u4")
    assert len(tags) == count
    return bytes([1]) + tags + lengths.tobytes() + b"".join(encodings)


def reference_payload(keys) -> bytes:
    """A unit-value ``MSG_BATCH`` payload, written per key."""
    return struct.pack(">I", len(keys)) + reference_key_block(keys) + bytes([0])


def assert_batch_matches_reference(batch: EncodedKeyBatch, keys: list) -> None:
    assert groups_of(batch) == reference_groups(keys)
    assert batch.encoded == [key_to_bytes(key) for key in keys]
    for seed in SEEDS:
        assert HashFunction(seed).raw_batch(batch).tolist() == reference_hashes(keys, seed)
    positions = np.arange(0, len(keys), 2)
    sub = batch.take(positions)
    sub_keys = [keys[i] for i in positions.tolist()]
    assert groups_of(sub) == reference_take_groups(keys, positions.tolist())
    assert list(sub.keys) == sub_keys
    assert sub.encoded == [key_to_bytes(key) for key in sub_keys]


# ----------------------------------------------------------------- the helpers
@settings(max_examples=200, deadline=None)
@given(st.lists(int64_keys, max_size=64))
def test_helpers_match_key_to_bytes_and_round_trip(keys):
    ints = np.asarray(keys, dtype=np.int64)
    lengths, rows = encode_int_keys(ints)
    encodings = [key_to_bytes(key) for key in keys]
    assert lengths.tolist() == [len(encoding) for encoding in encodings]
    assert [bytes(rows[i, : lengths[i]]) for i in range(len(keys))] == encodings
    blob = pack_int_keys(lengths, rows)
    assert blob.tobytes() == b"".join(encodings)
    decoded = decode_int_keys(lengths, blob)
    assert decoded.dtype == np.int64
    assert decoded.tolist() == keys


@pytest.mark.parametrize("slot, key", [
    ((10).to_bytes(8, "little"), 5),  # 5, padded to 8 bytes
    (b"", 0),  # an empty slot
    (b"\x0a\x00\x00", 5),  # 5 in 3 bytes
    ((1).to_bytes(4, "little"), 0),  # the code of -0
])
def test_non_canonical_slots_decode_to_their_values(slot, key):
    lengths = np.asarray([4, len(slot)], dtype=np.uint32)
    blob = np.frombuffer(key_to_bytes(7) + slot, dtype=np.uint8)
    decoded = decode_int_keys(lengths, blob)
    assert decoded.tolist() == [7, key]
    # Re-encoding the values does not give the slots back.
    again, rows = encode_int_keys(decoded)
    assert pack_int_keys(again, rows).tobytes() != blob.tobytes() or again.tolist() != [4, len(slot)]


def test_codec_domain_screen():
    assert as_int64_keys([]).dtype == np.int64
    assert as_int64_keys([INT64_MAX, -INT64_MAX]).tolist() == [INT64_MAX, -INT64_MAX]
    # -2^63 has no zigzag code; wider ints, bools and int subclasses fail.
    assert as_int64_keys([INT64_MIN]) is None
    assert as_int64_keys(np.asarray([INT64_MIN])) is None
    assert as_int64_keys([2**63]) is None
    assert as_int64_keys([True, 1]) is None
    assert as_int64_keys(np.asarray([True])) is None
    assert as_int64_keys(np.asarray([2**63], dtype=np.uint64)) is None
    assert as_int64_keys(np.asarray([2**63 - 1], dtype=np.uint64)).tolist() == [2**63 - 1]
    assert as_int64_keys(np.asarray([1, "a"], dtype=object)) is None
    assert as_int64_keys(np.asarray([1.0])) is None


# ------------------------------------------------------------- EncodedKeyBatch
@settings(max_examples=150, deadline=None)
@given(st.lists(any_int_keys, max_size=48))
def test_list_batches_match_the_per_key_path(keys):
    batch = EncodedKeyBatch(keys)
    in_domain = all(INT64_MIN < key <= INT64_MAX for key in keys)
    assert (batch.int64_keys is not None) == in_domain
    assert_batch_matches_reference(batch, keys)
    assert list(batch.keys) == keys


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DTYPES), st.data())
def test_ndarray_batches_of_every_int_dtype_match_the_per_key_path(dtype, data):
    info = np.iinfo(dtype)
    values = data.draw(st.lists(
        st.one_of(st.integers(min_value=int(info.min), max_value=int(info.max)),
                  st.sampled_from([int(info.min), int(info.max), 0])),
        max_size=48,
    ))
    array = np.asarray(values, dtype=dtype)
    batch = EncodedKeyBatch(array)
    keys = array.tolist()
    # -2^63 and uint64 values of 2^63 and up leave the codec, nothing else does.
    assert (batch.int64_keys is None) == any(
        key > INT64_MAX or key == INT64_MIN for key in keys
    )
    assert_batch_matches_reference(batch, keys)
    assert list(batch.keys) == keys
    assert all(type(key) is int for key in batch.keys)


def test_bool_and_wide_arrays_take_the_per_key_path():
    flags = EncodedKeyBatch(np.asarray([True, False, True]))
    assert flags.int64_keys is None
    assert list(flags.keys) == [True, False, True]
    assert_batch_matches_reference(flags, [True, False, True])
    wide = np.asarray([2**63, 5, 2**64 - 1], dtype=np.uint64)
    assert EncodedKeyBatch(wide).int64_keys is None
    assert_batch_matches_reference(EncodedKeyBatch(wide), wide.tolist())


def test_int_key_array_keeps_its_small_range_contract():
    assert EncodedKeyBatch([0, 2**31 - 1]).int_key_array.tolist() == [0, 2**31 - 1]
    assert EncodedKeyBatch(np.asarray([3, 4], dtype=np.uint8)).int_key_array.tolist() == [3, 4]
    # Negative or wider keys stay in the batch's int64 array, never in this one:
    # an id table indexed by a negative key would wrap to another key's slot.
    for keys in ([-1, 5], [2**31], np.asarray([-3], dtype=np.int8)):
        batch = EncodedKeyBatch(keys)
        assert batch.int64_keys is not None
        assert batch.int_key_array is None


def test_ndarray_batch_builds_its_key_list_lazily():
    batch = EncodedKeyBatch(np.asarray([2**40, -3, 9], dtype=np.int64))
    HashFunction(1).raw_batch(batch)
    assert batch._keys is None
    assert batch.keys == [2**40, -3, 9]


def test_sub_batches_keep_the_callers_key_objects():
    keys = [2**40 + i for i in range(6)]
    sub = EncodedKeyBatch(keys).take(np.asarray([1, 4]))
    assert all(mine is theirs for mine, theirs in zip(sub.keys, (keys[1], keys[4])))


# ----------------------------------------------------------------- wire frames
@settings(max_examples=150, deadline=None)
@given(st.lists(any_int_keys, max_size=48))
def test_wire_frames_equal_the_per_key_reference(keys):
    payload = encode_batch(keys)
    assert payload == reference_payload(keys)
    batch, values = decode_batch(payload)
    assert list(batch.keys) == keys
    assert values.tolist() == [1] * len(keys)
    for seed in SEEDS:
        assert HashFunction(seed).raw_batch(batch).tolist() == reference_hashes(keys, seed)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DTYPES + (np.bool_,)), st.data())
def test_wire_frames_of_ndarray_batches_equal_the_per_key_reference(dtype, data):
    if dtype is np.bool_:
        values = data.draw(st.lists(st.booleans(), max_size=32))
    else:
        info = np.iinfo(dtype)
        values = data.draw(st.lists(
            st.integers(min_value=int(info.min), max_value=int(info.max)), max_size=32
        ))
    array = np.asarray(values, dtype=dtype)
    keys = array.tolist()
    payload = encode_batch(array)
    assert payload == reference_payload(keys)
    batch, _ = decode_batch(payload)
    assert list(batch.keys) == [int(key) for key in keys]
    for seed in SEEDS:
        assert HashFunction(seed).raw_batch(batch).tolist() == reference_hashes(keys, seed)


@pytest.mark.parametrize("keys", [
    [],
    [0],
    [2**31 - 1, 0],
    [2**31],
    [-1, 5],
    [INT64_MAX, -INT64_MAX],
    [INT64_MIN, 3],
    [2**63, 3],
    [True, 3],
    BOUNDARIES,
])
def test_edge_frames_equal_the_per_key_reference(keys):
    assert encode_batch(keys) == reference_payload(keys)
    batch, _ = decode_batch(encode_batch(keys))
    assert list(batch.keys) == [int(key) for key in keys]


@pytest.mark.parametrize("tags, lengths, raw, expected", [
    ([0, 3], [0, 0], [], [0, None]),  # an empty INT slot is key 0, not an empty slot
    ([3, 3], [0, 0], [], [None, None]),
    ([0, 0], [3, 8], [4, 0, 0] + [3] + [0] * 7, [2, -1]),
    ([0, 0], [5, 4], [0, 0, 0, 0, 1, 4, 0, 0, 0], [2**31, 2]),
])
def test_snapshot_key_arrays_decode_every_int_slot_like_the_reference(tags, lengths, raw, expected):
    tags = np.asarray(tags, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.uint32)
    blob = np.asarray(raw, dtype=np.uint8)
    assert keys_from_arrays(tags, lengths, blob) == expected
    assert _keys_from_arrays_per_key(tags, lengths, blob.tobytes()) == expected
