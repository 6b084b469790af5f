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
from repro.hashing.families import keys_to_arrays
from repro.kernels import EMPTY_ID, UNKNOWN_ID
from repro.kernels.interning import KeyInterner, KeyInternerOverflowError
from repro.serve.async_server import AsyncServingSession
from repro.serve.server import ServeConfig
from repro.sketches import hashpipe
from repro.sketches.hashpipe import HashPipe
from repro.sketches.registry import build_sketch
from repro.sketches.sharded import ShardedSketch


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


@pytest.mark.parametrize("name", ("Ours", "Ours(Raw)", "Elastic", "Coco", "HashPipe", "PRECISION"))
@pytest.mark.parametrize("refused", ([1, 2, 3, 4, 5], ["a", "b", 2, "c", "d"]))
def test_a_refused_batch_changes_nothing(name, refused):
    """A bounded interner refuses the batch before it assigns an id, so the
    sketch's counts, its interner and its key directory stay as they were."""
    sketch = build_sketch(name, 16 * 1024, seed=0, max_interned_keys=3)
    sketch.insert_batch([2, 2])

    def state():
        # An Ours family's insert count is the third of its snapshot stats.
        stats = sketch.state_snapshot()["stats"].tolist() if name.startswith("Ours") else None
        interner = sketch.key_interner
        return stats, sketch.hash_calls(), len(interner), interner.keys()

    before = state()
    assert before[2:] == (1, [2])
    with pytest.raises(KeyInternerOverflowError):
        sketch.insert_batch(refused)
    assert state() == before
    with pytest.raises(KeyInternerOverflowError):
        sketch.check_room(refused)
    sketch.check_room([2, 7, 7, 8])  # two new keys fit
    assert state() == before
    assert sketch.query_batch([2, 1]).tolist() == [2, 0]


def test_a_sharded_batch_one_shard_refuses_reaches_no_shard():
    sketch = ShardedSketch.from_registry("Ours", 32 * 1024, 2, seed=0, max_interned_keys=2)
    keys = list(range(40))
    with pytest.raises(KeyInternerOverflowError):
        sketch.check_room(keys)
    with pytest.raises(KeyInternerOverflowError):
        sketch.insert_batch(keys)
    assert [len(shard.key_interner) for shard in sketch.shards] == [0, 0]
    assert sketch.items_per_shard.tolist() == [0, 0]
    assert sum(shard.hash_calls() for shard in sketch.shards) == 0
    assert sketch.hash_calls() == 0


def test_bounded_sketch_keeps_answering_after_overflow():
    sketch = build_sketch("Ours", 16 * 1024, seed=0, max_interned_keys=64)
    sketch.insert_batch(list(range(60)))
    before = sketch.query_batch(list(range(60))).copy()
    with pytest.raises(KeyInternerOverflowError):
        sketch.insert_batch(list(range(100, 400)))
    # interned state is intact: known keys answer exactly as before (the
    # overflow fired during interning, before any table mutation)
    assert (sketch.query_batch(list(range(60))) == before).all()


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
    assert bulk.keys() == many.keys() == scalar.keys()
    assert bulk._ids == scalar._ids
    assert (many._table is None) == (not prime_table)


@pytest.mark.parametrize("prime_table", (False, True))
@pytest.mark.parametrize("base", (1000, 2**30))
def test_interner_stores_the_callers_key_objects(base, prime_table):
    """``key_of(i)`` is the object of the key's first contact for ``str`` and
    ``bytes`` keys; int keys come back equal, as Python ints."""
    first = [int(str(base + i)) for i in range(6)]
    again = [int(str(base + i)) for i in range(6)]  # equal, distinct objects
    keys = first + again
    interner = KeyInterner()
    if prime_table:
        interner.intern_batch([7], np.asarray([7], dtype=np.int64))
    interner.intern_batch(keys, EncodedKeyBatch(keys).int_key_array)
    assert interner.keys(len(interner) - 6) == first
    fresh = KeyInterner()
    fresh.intern_many(keys)
    assert fresh.keys() == first
    assert all(type(key) is int for key in fresh.keys() + interner.keys())
    # Through a sketch's batch insert, too.
    sketch = build_sketch("Ours", 16 * 1024, seed=0)
    sketch.insert_batch(keys)
    assert sketch._interner.keys() == first
    # str and bytes keys: the caller's own objects, never copies.
    def make_named():
        return [f"flow-{base + i}" for i in range(3)] + [b"%d-%d" % (base, i) for i in range(3)]

    named, named_again = make_named(), make_named()  # equal, distinct objects
    assert all(copy is not key for copy, key in zip(named_again, named))
    sketch.insert_batch(named + named_again)
    owners = sketch._interner.keys(len(sketch._interner) - 6)
    assert all(owner is key for owner, key in zip(owners, named))
    assert all(sketch._interner.key_of(len(first) + i) is key for i, key in enumerate(named))


def test_intern_many_never_allocates_the_table():
    interner = KeyInterner()
    ids = interner.intern_many([5, 9, 5, 2**40, 2**70])
    assert ids.tolist() == [0, 1, 0, 2, 3]
    assert interner._table is None


def test_intern_many_keeps_the_scalar_loop_on_bounded_interners():
    keys = [10, 11, 10, 12, 13, 11]
    loop, many = KeyInterner(4), KeyInterner(4)
    expected = [loop.intern(key) for key in keys]
    assert many.intern_many(keys).tolist() == expected
    assert many._ids == loop._ids and many.keys() == loop.keys()
    with pytest.raises(KeyInternerOverflowError):
        KeyInterner(2).intern_many([1, 2, 3])


# ------------------------------------------------------- ids as the key record
def test_lookup_never_assigns():
    interner = KeyInterner()
    interner.intern_batch(["a", 5])
    assert (interner.lookup("a"), interner.lookup(5)) == (0, 1)
    assert interner.lookup("b") == UNKNOWN_ID
    assert len(interner) == 2


@pytest.mark.parametrize("keys", (
    ["x", 7, b"raw", 2**70, -3],  # mixed types: the codec's per-key path
    [12, 7, 2**40, 9, -3],  # plain ints: straight to the int codec
    [12, 7, 2**70, 9, -3],  # beyond int64: back to the per-key path
    [12, 7, -(2**63), 9, -3],  # -2^63 has no int64 code either
))
def test_slot_keys_round_trip_through_the_codec(keys):
    """Occupied slots encode exactly as the full slot list; restore re-interns them."""
    interner = KeyInterner()
    interner.intern_many(keys)
    slot_ids = np.asarray([EMPTY_ID, 1, 0, EMPTY_ID, 3, 1, 2, 4], dtype=np.int64)
    slots = [None if item_id == EMPTY_ID else keys[item_id] for item_id in slot_ids.tolist()]
    arrays = interner.slot_key_arrays(slot_ids)
    expected = keys_to_arrays(slots)
    for name in ("tags", "lengths", "blob"):
        assert arrays[name].dtype == expected[name].dtype, name
        assert arrays[name].tobytes() == expected[name].tobytes(), name
    split = 3
    restored, restored_ids = KeyInterner.from_slot_arrays([
        (arrays["tags"][:split], arrays["lengths"][:split],
         arrays["blob"][: int(arrays["lengths"][:split].sum())]),
        (arrays["tags"][split:], arrays["lengths"][split:],
         arrays["blob"][int(arrays["lengths"][:split].sum()):]),
    ])
    assert restored.keys() == list(dict.fromkeys(key for key in slots if key is not None))
    assert [
        None if item_id == EMPTY_ID else restored.key_of(item_id)
        for item_id in restored_ids.tolist()
    ] == slots
    assert restored._table is None
    with pytest.raises(KeyInternerOverflowError):
        KeyInterner.from_slot_arrays(
            [(arrays["tags"], arrays["lengths"], arrays["blob"])], max_keys=4
        )
    with pytest.raises(ValueError):
        KeyInterner.from_slot_arrays(
            [(arrays["tags"], arrays["lengths"], arrays["blob"][:-1])]
        )


@pytest.mark.parametrize("name", ("Ours", "Elastic", "Coco", "HashPipe", "PRECISION"))
def test_queries_never_grow_the_interner(name):
    """Reads resolve keys without interning them, on both query paths."""
    sketch = build_sketch(name, 16 * 1024, seed=0, max_interned_keys=50)
    sketch.insert_batch(list(range(40)))
    sketch.insert(1000, 2)
    interned = len(sketch._interner)
    unseen = list(range(5000, 5100)) + ["absent", b"absent"]
    assert [sketch.query(key) for key in unseen] == sketch.query_batch(unseen).tolist()
    assert len(sketch._interner) == interned


def test_hashpipe_caches_the_keys_a_failed_batch_interned():
    """A refused batch interns no key; the keys interned next get their stage cells."""
    sketch = HashPipe(2048, seed=0, max_interned_keys=8)
    with pytest.raises(KeyInternerOverflowError):
        sketch.insert_batch(list(range(10)))
    assert len(sketch._interner) == 0
    reference = HashPipe(2048, seed=0)
    sketch.insert(3, 2)
    reference.insert(3, 2)
    sketch.insert_batch(list(range(8)))
    reference.insert_batch(list(range(8)))
    keys = list(range(10))
    assert sketch.query_batch(keys).tolist() == reference.query_batch(keys).tolist()
    assert [sketch.query(key) for key in keys] == reference.query_batch(keys).tolist()


# ------------------------------------------- keys leave as Python objects
class RecordingHash:
    """A hash function wrapper that records every key it hashes one by one."""

    def __init__(self, hash_fn):
        self.hash_fn = hash_fn
        self.keys = []

    def __call__(self, key):
        self.keys.append(key)
        return self.hash_fn(key)

    def index_batch(self, batch):
        return self.hash_fn.index_batch(batch)


def test_keys_read_from_the_column_are_python_ints(monkeypatch):
    """Elastic's evicted keys, HashPipe's cached keys and top-k replies come
    from the interner's int64 column as plain ints, never NumPy scalars."""
    keys = np.arange(0, 40_000, 7, dtype=np.int64) % 5003
    elastic = build_sketch("Elastic", 1024, seed=0)
    light = elastic._light_hash = RecordingHash(elastic._light_hash)
    elastic.insert_batch(keys)
    for key in keys[:300].tolist():
        elastic.insert(key)
    assert elastic.key_interner.column is not None
    assert light.keys and all(type(key) is int for key in light.keys)

    cached = []
    real_key_to_bytes, real_batch = hashpipe.key_to_bytes, hashpipe.EncodedKeyBatch

    def record_batch(batch_keys):
        # insert_batch wraps the caller's ndarray; the cache fill, a list.
        if isinstance(batch_keys, list):
            cached.extend(batch_keys)
        return real_batch(batch_keys)

    monkeypatch.setattr(hashpipe, "key_to_bytes",
                        lambda key: cached.append(key) or real_key_to_bytes(key))
    monkeypatch.setattr(hashpipe, "EncodedKeyBatch", record_batch)
    pipe = HashPipe(2048, seed=0)
    pipe.insert_batch(keys)
    pipe.insert(10**6)
    assert len(cached) == len(pipe.key_interner)
    assert all(type(key) is int for key in cached)

    config = ServeConfig("Ours", 32 * 1024, seed=0, publish_every_items=10**9)
    service = config.build_service()
    service.ingest(keys)
    service.flush()
    assert service.key_directory.column is not None
    with AsyncServingSession(service) as session:
        client = session.connect()
        remote, _ = client.top_k(10)
        client.close()
        session.shutdown()
    local = service.top_k(10)
    assert remote == local
    assert all(type(key) is int for key, _ in local + remote)
