"""The reversible key-list codec: whole-array path vs the per-key reference.

``keys_to_arrays`` / ``keys_from_arrays`` take a whole-array path for lists
of small non-negative ints and ``None`` (the paper's 32-bit flow IDs plus
empty buckets).  Its output must be the per-key reference's, array for
array and dtype for dtype, so snapshot files and wire bytes never depend on
which path ran; anything else (``str``, ``bytes``, ``bool``, negative or
oversized ints, hostile encodings) must reach the per-key path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.families import (
    KEY_TAG_INT,
    KEY_TAG_NONE,
    _keys_from_arrays_per_key,
    _keys_to_arrays_per_key,
    keys_from_arrays,
    keys_to_arrays,
)

EDGE_INTS = (0, 1, 2**31 - 1, 2**31, -1, -(2**31), 2**63, 2**64 + 5)

small_ints = st.integers(min_value=0, max_value=2**31 - 1)
fast_lists = st.lists(st.one_of(st.none(), small_ints, st.sampled_from((0, 2**31 - 1))),
                      max_size=64)
any_key = st.one_of(
    st.none(),
    small_ints,
    st.sampled_from(EDGE_INTS),
    st.integers(),
    st.booleans(),
    st.text(max_size=6),
    st.binary(max_size=6),
)
any_lists = st.lists(any_key, max_size=48)


def assert_same_arrays(mine: dict, reference: dict) -> None:
    assert mine.keys() == reference.keys()
    for name in reference:
        assert mine[name].dtype == reference[name].dtype, name
        assert mine[name].shape == reference[name].shape, name
        assert np.array_equal(mine[name], reference[name]), name


def decode(arrays: dict) -> list:
    return keys_from_arrays(arrays["tags"], arrays["lengths"], arrays["blob"])


@pytest.mark.parametrize(
    "keys",
    (
        [],
        [None],
        [None] * 7,
        [0],
        [2**31 - 1, None, 0],
        [2**31],
        [-5, None],
        [True, 3],
        [2**64, None],
        ["flow", b"raw", 7, None],
    ),
)
def test_edge_lists_match_the_reference(keys):
    arrays = keys_to_arrays(keys)
    assert_same_arrays(arrays, _keys_to_arrays_per_key(keys))
    back = decode(arrays)
    assert back == [None if key is None else int(key) if isinstance(key, bool) else key
                    for key in keys]
    assert [type(key) for key in back] == [
        int if isinstance(key, bool) else type(key) for key in keys
    ]


@settings(max_examples=200)
@given(fast_lists)
def test_fast_path_lists_match_the_reference_and_round_trip(keys):
    arrays = keys_to_arrays(keys)
    assert_same_arrays(arrays, _keys_to_arrays_per_key(keys))
    back = decode(arrays)
    assert back == keys
    assert [type(key) for key in back] == [type(key) for key in keys]


@settings(max_examples=200)
@given(any_lists)
def test_any_list_matches_the_reference_and_round_trips(keys):
    arrays = keys_to_arrays(keys)
    reference = _keys_to_arrays_per_key(keys)
    assert_same_arrays(arrays, reference)
    back = decode(arrays)
    expected = _keys_from_arrays_per_key(
        reference["tags"], reference["lengths"], reference["blob"].tobytes()
    )
    assert back == expected
    assert [type(key) for key in back] == [type(key) for key in expected]
    # Every key survives, bools as the ints they hash as.
    assert back == [key if key is None or isinstance(key, (str, bytes)) else int(key)
                    for key in keys]


@settings(max_examples=200)
@given(st.lists(st.one_of(st.none(), st.binary(min_size=4, max_size=4)), max_size=48))
def test_hostile_four_byte_ints_decode_like_the_reference(slots):
    """Arbitrary 4-byte INT encodings — odd ones zigzag to negative keys."""
    tags = np.asarray([KEY_TAG_NONE if s is None else KEY_TAG_INT for s in slots], dtype=np.uint8)
    lengths = np.asarray([0 if s is None else 4 for s in slots], dtype=np.uint32)
    raw = b"".join(s for s in slots if s is not None)
    blob = np.frombuffer(raw, dtype=np.uint8)
    keys = keys_from_arrays(tags, lengths, blob)
    assert keys == _keys_from_arrays_per_key(tags, lengths, raw)
    assert all(key is None or type(key) is int for key in keys)


def test_negative_zigzag_decodes_on_the_array_path():
    tags = np.asarray([KEY_TAG_INT, KEY_TAG_NONE, KEY_TAG_INT], dtype=np.uint8)
    lengths = np.asarray([4, 0, 4], dtype=np.uint32)
    blob = np.asarray([3, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF], dtype=np.uint8)
    assert keys_from_arrays(tags, lengths, blob) == [-1, None, -(2**31 - 1)]


@pytest.mark.parametrize(
    "tags, lengths, raw, expected",
    (
        # A 5-byte INT: legal for the per-key decoder (2^31 needs 5 bytes).
        ([KEY_TAG_INT, KEY_TAG_INT], [5, 4], [0, 0, 0, 0, 1, 4, 0, 0, 0], [2**31, 2]),
        # A NONE slot carrying 4 bytes among 4-byte INTs: the per-key decoder
        # skips them; the array path must step aside, not misparse them.
        ([KEY_TAG_INT, KEY_TAG_NONE, KEY_TAG_INT], [4, 4, 4],
         [2, 0, 0, 0, 9, 9, 9, 9, 4, 0, 0, 0], [1, None, 2]),
    ),
)
def test_irregular_lengths_take_the_per_key_path(tags, lengths, raw, expected):
    tags = np.asarray(tags, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.uint32)
    raw = bytes(raw)
    keys = keys_from_arrays(tags, lengths, np.frombuffer(raw, dtype=np.uint8))
    assert keys == _keys_from_arrays_per_key(tags, lengths, raw) == expected


@pytest.mark.parametrize(
    "tags, lengths, blob",
    (
        ([KEY_TAG_INT], [4], [1, 0, 0]),  # blob shorter than the lengths
        ([KEY_TAG_INT, KEY_TAG_NONE], [4, 0], [1, 0, 0, 0, 7]),  # longer
        ([KEY_TAG_INT, KEY_TAG_INT], [4], [0] * 8),  # tags/lengths shapes differ
        ([KEY_TAG_NONE], [4], [0, 0, 0, 0, 0]),  # NONE padded, sum off by one
        ([9], [0], []),  # unknown tag
    ),
)
def test_malformed_arrays_raise_value_error(tags, lengths, blob):
    with pytest.raises(ValueError):
        keys_from_arrays(
            np.asarray(tags, dtype=np.uint8),
            np.asarray(lengths, dtype=np.uint32),
            np.asarray(blob, dtype=np.uint8),
        )
