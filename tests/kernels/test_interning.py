"""KeyInterner bounds: adversarial key spaces must fail loudly, not grow.

ROADMAP follow-on from PR 4: the interner's dict + id table grow with the
distinct keys ingested.  ``max_keys`` turns that into a clear, stateless
failure (:class:`KeyInternerOverflowError`) instead of unbounded growth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import EncodedKeyBatch
from repro.kernels.interning import KeyInterner, KeyInternerOverflowError
from repro.sketches.registry import build_sketch


def test_unbounded_by_default():
    interner = KeyInterner()
    assert [interner.intern(key) for key in range(100)] == list(range(100))
    assert interner.max_keys is None


def test_scalar_overflow_raises_and_preserves_state():
    interner = KeyInterner(max_keys=3)
    for key in ("a", "b", "c"):
        interner.intern(key)
    with pytest.raises(KeyInternerOverflowError):
        interner.intern("d")
    # existing ids survive; re-interning known keys still works
    assert interner.intern("a") == 0
    assert interner.intern("c") == 2
    assert len(interner) == 3
    assert "d" not in interner._ids


def test_batch_overflow_raises_on_both_paths():
    # int fast path (vectorized table)
    interner = KeyInterner(max_keys=5)
    interner.intern_batch([0, 1, 2], np.asarray([0, 1, 2], dtype=np.int64))
    with pytest.raises(KeyInternerOverflowError):
        interner.intern_batch(
            [3, 4, 5, 6], np.asarray([3, 4, 5, 6], dtype=np.int64)
        )
    # object path (no int array)
    interner = KeyInterner(max_keys=2)
    with pytest.raises(KeyInternerOverflowError):
        interner.intern_batch(["x", "y", "z"])


def test_lookup_never_grows_a_bounded_interner():
    interner = KeyInterner(max_keys=2)
    interner.intern_batch([1, 2], np.asarray([1, 2], dtype=np.int64))
    ids = interner.lookup_batch([1, 2, 3, 4], np.asarray([1, 2, 3, 4], dtype=np.int64))
    assert ids[:2].tolist() == [0, 1]
    assert (ids[2:] < 0).all()  # unknown, not assigned
    assert len(interner) == 2


def test_bad_bound_rejected():
    with pytest.raises(ValueError):
        KeyInterner(max_keys=0)


@pytest.mark.parametrize("name", ("Ours", "Elastic"))
def test_sketch_level_bound_surfaces_cleanly(name):
    """Registry-built sketches thread max_interned_keys to their interner."""
    sketch = build_sketch(name, 16 * 1024, seed=0, max_interned_keys=50)
    with pytest.raises(KeyInternerOverflowError):
        sketch.insert_batch(list(range(500)))


def test_bounded_sketch_keeps_answering_after_overflow():
    sketch = build_sketch("Ours", 16 * 1024, seed=0, max_interned_keys=64)
    sketch.insert_batch(list(range(60)))
    before = sketch.query_batch(list(range(60))).copy()
    with pytest.raises(KeyInternerOverflowError):
        sketch.insert_batch(list(range(100, 400)))
    # interned state is intact: known keys answer exactly as before (the
    # overflow fired during interning, before any table mutation)
    assert (sketch.query_batch(list(range(60))) == before).all()


# ------------------------------------------------------------------ LRU mode
def test_lru_requires_max_keys_and_known_policy():
    with pytest.raises(ValueError):
        KeyInterner(evict="lru")
    with pytest.raises(ValueError):
        KeyInterner(max_keys=4, evict="fifo")


def test_lru_recycles_least_recently_interned_id():
    interner = KeyInterner(max_keys=3, evict="lru")
    assert [interner.intern(key) for key in ("a", "b", "c")] == [0, 1, 2]
    # "a" is the stalest; the fourth key takes its id.
    assert interner.intern("d") == 0
    assert interner.id_to_key[0] == "d"
    assert "a" not in interner._ids
    assert len(interner) == 3
    # Re-interning "a" now evicts "b" (the new stalest).
    assert interner.intern("a") == 1
    assert "b" not in interner._ids


def test_lru_recency_advances_on_intern():
    interner = KeyInterner(max_keys=3, evict="lru")
    for key in ("a", "b", "c"):
        interner.intern(key)
    interner.intern("a")  # refresh: "b" becomes the eviction victim
    assert interner.intern("d") == 1
    assert "b" not in interner._ids
    assert interner._ids["a"] == 0


def test_lru_table_entry_cleared_on_eviction():
    interner = KeyInterner(max_keys=2, evict="lru")
    interner.intern_batch([5, 6], np.asarray([5, 6], dtype=np.int64))
    interner.intern(7)  # evicts 5 from dict AND the vectorized table
    ids = interner.lookup_batch([5, 6, 7], np.asarray([5, 6, 7], dtype=np.int64))
    assert ids[0] < 0  # evicted key is unknown again
    assert ids[1].item() == 1
    assert ids[2].item() == 0  # recycled id


def test_lru_batch_touches_at_batch_granularity():
    interner = KeyInterner(max_keys=4, evict="lru")
    interner.intern_batch([0, 1], np.asarray([0, 1], dtype=np.int64))
    interner.intern_batch([2, 3], np.asarray([2, 3], dtype=np.int64))
    # Both ids of the first batch share one clock tick; np.argmin breaks the
    # tie at the lowest id, so key 0 is evicted first, then key 1.
    assert interner.intern("x") == 0
    assert interner.intern("y") == 1
    assert 2 in interner._ids and 3 in interner._ids


def test_lru_on_assign_refires_on_reassignment():
    assignments = []
    interner = KeyInterner(max_keys=2, evict="lru")
    interner.on_assign = lambda key, item_id: assignments.append((key, item_id))
    interner.intern("a")
    interner.intern("b")
    interner.intern("c")  # recycles id 0
    assert assignments == [("a", 0), ("b", 1), ("c", 0)]


@pytest.mark.parametrize("name", ("Ours", "Coco", "HashPipe", "PRECISION"))
def test_sketch_level_lru_ingests_beyond_the_bound(name):
    # With eviction enabled the same hostile ingest that overflows a bounded
    # interner completes, and the interner never exceeds its bound.
    sketch = build_sketch(
        name, 16 * 1024, seed=0, max_interned_keys=50, interner_eviction="lru"
    )
    sketch.insert_batch(list(range(500)))
    assert len(sketch._interner) <= 50
    # Recently interned keys still answer through the batch path.
    assert sketch.query_batch(list(range(450, 500))).shape == (50,)


# ------------------------------------------------------------ bulk interning
TABLE_LIMIT = 1 << 22

small_keys = st.integers(min_value=0, max_value=TABLE_LIMIT - 1)
large_keys = st.integers(min_value=TABLE_LIMIT, max_value=2**31 - 1)
# A narrow band on each side of the limit forces repeats within and across
# batches, so known keys, in-batch duplicates and brand-new keys all mix.
near_limit = st.integers(min_value=TABLE_LIMIT - 40, max_value=TABLE_LIMIT + 40)
int_batches = st.lists(
    st.lists(st.one_of(small_keys, large_keys, near_limit, st.integers(0, 50)),
             min_size=1, max_size=40),
    min_size=1, max_size=6,
)


def assert_faithful_table(interner: KeyInterner) -> None:
    """Every id-table entry agrees with the dict; every covered key is cached."""
    table = interner._table
    if table is None:
        return
    for key, item_id in interner._ids.items():
        if key < len(table):
            assert table[key] == item_id
    cached = np.flatnonzero(table >= 0)
    assert all(interner._ids[int(key)] == table[key] for key in cached)


@settings(max_examples=150, deadline=None)
@given(batches=int_batches, prime_table=st.booleans())
def test_bulk_interning_matches_the_scalar_loop(batches, prime_table):
    """Ids equal the scalar loop's first-contact order on both sides of 2^22."""
    bulk, many, scalar = KeyInterner(), KeyInterner(), KeyInterner()
    if prime_table:
        # An existing id table that the later batches must keep in sync.
        prime = [3, 1, 4, 1, 5]
        bulk.intern_batch(prime, EncodedKeyBatch(prime).int_key_array)
        many.intern_batch(prime, EncodedKeyBatch(prime).int_key_array)
        for key in prime:
            scalar.intern(key)
    for batch in batches:
        expected = [scalar.intern(key) for key in batch]
        got = bulk.intern_batch(batch, EncodedKeyBatch(batch).int_key_array)
        assert got.tolist() == expected
        assert many.intern_many(batch).tolist() == expected
        assert_faithful_table(bulk)
        assert_faithful_table(many)
    assert bulk.id_to_key == many.id_to_key == scalar.id_to_key
    assert bulk._ids == scalar._ids
    assert (many._table is None) == (not prime_table)


@pytest.mark.parametrize("prime_table", (False, True))
@pytest.mark.parametrize("base", (1000, 2**30))
def test_interner_stores_the_callers_key_objects(base, prime_table):
    """No copies: ``id_to_key[i]`` is the object of the key's first contact."""
    first = [int(str(base + i)) for i in range(6)]
    again = [int(str(base + i)) for i in range(6)]  # equal, distinct objects
    keys = first + again
    interner = KeyInterner()
    if prime_table:
        interner.intern_batch([7], np.asarray([7], dtype=np.int64))
    interner.intern_batch(keys, EncodedKeyBatch(keys).int_key_array)
    assert all(owner is key for owner, key in zip(interner.id_to_key[-6:], first))
    fresh = KeyInterner()
    fresh.intern_many(keys)
    assert all(owner is key for owner, key in zip(fresh.id_to_key, first))
    # Through a sketch's batch insert, too.
    sketch = build_sketch("Ours", 16 * 1024, seed=0)
    sketch.insert_batch(keys)
    assert all(owner is key for owner, key in zip(sketch._interner.id_to_key, first))


def test_intern_many_never_allocates_the_table():
    interner = KeyInterner()
    ids = interner.intern_many([5, 9, 5, 2**40, 2**70])
    assert ids.tolist() == [0, 1, 0, 2, 3]
    assert interner._table is None


@pytest.mark.parametrize("bound, evict", ((4, None), (3, "lru")))
def test_intern_many_keeps_the_scalar_loop_on_bounded_interners(bound, evict):
    keys = [10, 11, 10, 12, 13, 11]
    loop, many = KeyInterner(bound, evict), KeyInterner(bound, evict)
    expected = [loop.intern(key) for key in keys]
    assert many.intern_many(keys).tolist() == expected
    assert many._ids == loop._ids and many.id_to_key == loop.id_to_key
    if evict:
        assert many._touch_clock == loop._touch_clock
        assert many._last_touch.tolist() == loop._last_touch.tolist()
    with pytest.raises(KeyInternerOverflowError):
        KeyInterner(2).intern_many([1, 2, 3])
