"""Reads compare keys: int64 batches, list batches and scalar queries agree.

While every interned key is a plain ``int`` in ``(-2^63, 2^63)`` the
interner holds its keys as one ``int64`` column, and ``query_batch`` on an
int64 batch compares each touched slot's key, gathered from the column,
with the query key.  A batch of any other keys compares interned ids, and
the scalar query compares the slot's key object.  The property drives all
three over keys on both sides of every codec boundary, with the first key
the column cannot hold arriving mid-stream (which converts the column to
a list), on the live sketch and on its copied and restored replicas.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.interning import KeyInterner
from repro.sketches.registry import build_sketch

MEMORY = 4 * 1024
EDGE_INTS = [0, 1, 2**31 - 1, 2**31, 2**31 + 1, -1, -3, -(2**31),
             2**63 - 1, -(2**63) + 1]
int_keys = st.one_of(
    st.sampled_from(EDGE_INTS),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-(2**63) + 1, max_value=2**63 - 1),
)
# Keys the column cannot hold: beyond int64, -2^63 (no int codec), str, bytes.
other_keys = st.sampled_from([2**70, -(2**63), "flow", "", b"raw", b""])
values = st.integers(min_value=1, max_value=30)
NEVER_INGESTED = [987_654_321, -(2**62), 2**70 + 1, "never", b"never"]


def fits_column(key) -> bool:
    return type(key) is int and -(2**63) < key < 2**63


def scalar_answers(sketch, probes):
    return [
        (result.estimate, result.mpe, result.layers_visited)
        for result in map(sketch.query_with_error, probes)
    ]


def assert_reads_agree(reader, probes, expected):
    """Scalar, list-batch and int64-batch reads of ``reader`` all give ``expected``."""
    assert scalar_answers(reader, probes) == expected
    estimates = [estimate for estimate, _, _ in expected]
    # ``probes`` always holds a str, so this batch compares interned ids.
    assert reader.query_batch(probes).tolist() == estimates
    ints = [position for position, key in enumerate(probes) if fits_column(key)]
    int_batch = np.asarray([probes[position] for position in ints], dtype=np.int64)
    assert reader.query_batch(int_batch).tolist() == [estimates[i] for i in ints]
    assert reader.query_batch(int_batch.tolist()).tolist() == [estimates[i] for i in ints]


def assert_every_reader_agrees(name, sketch, probes):
    """The live sketch and both kinds of replica answer every read path alike."""
    expected = scalar_answers(sketch, probes)
    copied = build_sketch(name, MEMORY, seed=3)
    sketch.copy_state_into(copied)
    restored = build_sketch(name, MEMORY, seed=3)
    restored.state_restore(sketch.state_snapshot())
    for reader in (sketch, copied, restored):
        assert_reads_agree(reader, probes, expected)


@pytest.mark.parametrize("name", ("Ours", "Ours(Raw)"))
@settings(max_examples=60, deadline=None)
@given(
    head=st.lists(st.tuples(int_keys, values), max_size=80),
    switch=other_keys,
    tail=st.lists(st.tuples(st.one_of(int_keys, other_keys), values), max_size=40),
)
def test_int64_list_and_scalar_reads_agree(name, head, switch, tail):
    sketch = build_sketch(name, MEMORY, seed=3)
    assert_every_reader_agrees(name, sketch, NEVER_INGESTED)  # empty sketch

    if head:
        sketch.insert_batch([key for key, _ in head], [value for _, value in head])
    assert sketch.key_interner.column is not None
    head_keys = [key for key, _ in head]
    assert_every_reader_agrees(name, sketch, head_keys + NEVER_INGESTED)

    more = [(switch, 7)] + tail
    sketch.insert_batch([key for key, _ in more], [value for _, value in more])
    assert sketch.key_interner.column is None  # the column became a list, once
    probes = head_keys + [key for key, _ in more] + NEVER_INGESTED
    assert_every_reader_agrees(name, sketch, probes)


@pytest.mark.parametrize("name", ("Ours", "Ours(Raw)"))
def test_int_reads_of_a_copied_replica_resolve_no_key(name, monkeypatch):
    """Int64 batches and scalar int queries compare keys: the replica never
    looks a key up, so it never builds its dict."""
    donor = build_sketch(name, MEMORY, seed=3)
    keys = np.arange(0, 6000, 3, dtype=np.int64)
    donor.insert_batch(keys, 5)
    replica = build_sketch(name, MEMORY, seed=3)
    donor.copy_state_into(replica)
    expected = donor.query_batch(keys.tolist() + ["str"])[:-1].tolist()

    def no_lookup(*args, **kwargs):
        raise AssertionError("a key was looked up")

    monkeypatch.setattr(KeyInterner, "lookup_batch", no_lookup)
    monkeypatch.setattr(KeyInterner, "lookup", no_lookup)
    assert replica.query_batch(keys).tolist() == expected
    assert [replica.query(key) for key in keys.tolist()] == expected
    assert replica.key_interner._ids is None


def test_empty_slots_read_no_key_even_from_an_empty_column():
    interner = KeyInterner()
    empty = np.full(3, -1, dtype=np.int64)
    assert interner.gather(empty).tolist() == [-(2**63)] * 3
    interner.intern_many([10, -10, 2**63 - 1])
    gathered = interner.gather(np.asarray([2, -1, 0, 1], dtype=np.int64))
    assert gathered.tolist() == [2**63 - 1, -(2**63), 10, -10]
    with pytest.raises(ValueError):
        interner.column[0] = 5  # read-only: the column is the id -> key record
