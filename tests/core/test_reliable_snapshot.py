"""ReliableSketch state snapshots: the ROADMAP follow-on from PR 3.

A restored replica must answer every query — point estimates *and* sensed
error bounds — bit-identically to the donor, continue ingesting
identically, and survive the distributed wire format.  Merging stays
unsupported (order-dependent lock/replace decisions have no lossless
combination).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ReliableSketch
from repro.distributed.ingest import run_dynamic_ingest
from repro.distributed.wire import decode_state, encode_state
from repro.hashing.families import _keys_from_arrays_per_key, _keys_to_arrays_per_key
from repro.kernels import EMPTY_ID
from repro.kernels.interning import KeyInterner
from repro.sketches.base import UnmergeableSketchError
from repro.sketches.registry import build_sketch
from repro.sketches.sharded import ShardedSketch
from repro.store.format import encode_snapshot_file
from repro.streams.synthetic import zipf_stream

MEMORY = 32 * 1024


def filled(name="Ours", count=8000, seed=5, **kwargs):
    sketch = build_sketch(name, MEMORY, seed=0, **kwargs)
    stream = zipf_stream(count, skew=1.2, universe=1500, seed=seed)
    sketch.insert_stream(stream, batch_size=512)
    return sketch, stream


@pytest.mark.parametrize("name", ("Ours", "Ours(Raw)"))
def test_restore_is_bit_identical(name):
    donor, stream = filled(name)
    replica = build_sketch(name, MEMORY, seed=0)
    replica.state_restore(donor.state_snapshot())
    keys = stream.keys() + ["missing", b"blob", -17]
    assert (replica.query_batch(keys) == donor.query_batch(keys)).all()
    for key in stream.keys()[:50]:
        mine, theirs = donor.query_with_error(key), replica.query_with_error(key)
        assert (mine.estimate, mine.mpe, mine.layers_visited) == (
            theirs.estimate, theirs.mpe, theirs.layers_visited,
        )
    assert replica.insert_failures == donor.insert_failures
    assert replica.failed_value == donor.failed_value
    assert replica.inserts_settled_per_layer == donor.inserts_settled_per_layer
    assert replica.operation_counts() == donor.operation_counts()


def test_restored_replica_continues_identically():
    donor, stream = filled()
    replica = build_sketch("Ours", MEMORY, seed=0)
    replica.state_restore(donor.state_snapshot())
    more = zipf_stream(3000, skew=1.1, universe=1500, seed=77)
    donor.insert_stream(more, batch_size=256)
    replica.insert_stream(more, batch_size=640)  # different chunking, same result
    keys = stream.keys()
    assert (replica.query_batch(keys) == donor.query_batch(keys)).all()


def test_snapshot_is_a_copy():
    donor, stream = filled()
    snapshot = donor.state_snapshot()
    before = {name: array.copy() for name, array in snapshot.items()}
    donor.insert_stream(zipf_stream(2000, skew=1.0, universe=1500, seed=3))
    for name, array in snapshot.items():
        assert (array == before[name]).all(), name


def test_snapshot_survives_the_wire_with_mixed_key_types():
    donor = build_sketch("Ours", 16 * 1024, seed=1)
    items = (
        [(f"flow-{i}", 1) for i in range(400)]
        + [(b"raw-%d" % i, 2) for i in range(200)]
        + [(-i, 1) for i in range(1, 150)]
        + [(i, 1) for i in range(900)]
    )
    donor.insert_stream(items, batch_size=128)
    state, algorithm, _ = decode_state(encode_state(donor.state_snapshot(), "Ours", {}))
    assert algorithm == "Ours"
    replica = build_sketch("Ours", 16 * 1024, seed=1)
    replica.state_restore(state)
    keys = [key for key, _ in items] + ["absent"]
    assert (replica.query_batch(keys) == donor.query_batch(keys)).all()


def test_restore_validates_before_mutating():
    donor, stream = filled()
    replica = build_sketch("Ours", MEMORY, seed=0)
    replica.state_restore(donor.state_snapshot())
    keys = stream.keys()
    expected = replica.query_batch(keys).copy()
    bad = donor.state_snapshot()
    bad["layer0_yes"] = np.zeros(3, dtype=np.int64)  # wrong shape
    with pytest.raises(ValueError):
        replica.state_restore(bad)
    missing = donor.state_snapshot()
    del missing["stats"]
    with pytest.raises(ValueError):
        replica.state_restore(missing)
    assert (replica.query_batch(keys) == expected).all()


def test_repeated_restore_resets_the_interner():
    """Restoring replaces the id space; stale ids never accumulate."""
    donor, stream = filled()
    replica = build_sketch("Ours", MEMORY, seed=0)
    for _ in range(3):
        replica.state_restore(donor.state_snapshot())
    assert len(replica._interner) <= len(donor._interner)
    keys = stream.keys()
    assert (replica.query_batch(keys) == donor.query_batch(keys)).all()


def test_restore_into_bounded_sketch_is_atomic():
    """A bounded interner that cannot hold the snapshot fails pre-commit."""
    from repro.kernels import KeyInternerOverflowError

    donor, stream = filled()
    occupied = sum(layer.occupied_count() for layer in donor._layers)
    bounded = build_sketch("Ours", MEMORY, seed=0, max_interned_keys=max(1, occupied // 2))
    bounded.insert_batch(list(range(5)))
    expected = bounded.query_batch(list(range(5))).copy()
    with pytest.raises(KeyInternerOverflowError):
        bounded.state_restore(donor.state_snapshot())
    # nothing was committed: the sketch still answers exactly as before
    assert (bounded.query_batch(list(range(5))) == expected).all()


def test_sharded_restore_is_atomic():
    """A snapshot malformed for a later shard must not touch earlier shards."""
    stream = zipf_stream(4000, skew=1.2, universe=800, seed=8)
    donor = ShardedSketch.from_registry("CM_fast", MEMORY, 2, seed=0)
    donor.insert_stream(stream, batch_size=512)
    target = ShardedSketch.from_registry("CM_fast", MEMORY, 2, seed=0)
    target.insert_stream(stream, batch_size=256)
    keys = stream.keys()
    expected = target.query_batch(keys).copy()
    bad = {
        name: array
        for name, array in donor.state_snapshot().items()
        if not name.startswith("shard1/")
    }
    with pytest.raises(ValueError):
        target.state_restore(bad)
    assert (target.query_batch(keys) == expected).all()


def test_emergency_store_refuses_snapshots():
    sketch = ReliableSketch.from_memory(MEMORY, use_emergency=True)
    sketch.insert(1, 5)
    with pytest.raises(UnmergeableSketchError):
        sketch.state_snapshot()
    with pytest.raises(UnmergeableSketchError):
        sketch.state_restore({})
    with pytest.raises(UnmergeableSketchError):
        sketch.copy_state_into(ReliableSketch.from_memory(MEMORY))


def test_merge_stays_unsupported():
    donor, _ = filled()
    other, _ = filled(seed=6)
    assert not donor.mergeable and donor.snapshotable
    with pytest.raises(UnmergeableSketchError):
        donor.merge(other)


@pytest.mark.parametrize("transport", ("inproc", "pipe"))
def test_distributed_ingest_of_reliable_sketch(transport):
    """Remote Ours ingest: routed answers equal local sharded ingest."""
    stream = zipf_stream(12_000, skew=1.1, universe=2500, seed=9)
    items = [(item.key, item.value) for item in stream]
    result = run_dynamic_ingest(
        "Ours", MEMORY, items, workers=2, transport=transport, chunk_size=1024, seed=0
    )
    assert result.merged is None  # snapshotable, not mergeable
    local = ShardedSketch.from_registry("Ours", MEMORY, 2, seed=0)
    local.insert_stream(items, batch_size=1024)
    keys = stream.keys()
    assert (result.sharded().query_batch(keys) == local.query_batch(keys)).all()
    assert list(result.items_per_partition) == local.items_per_shard.tolist()


def test_sharded_snapshot_round_trip():
    """ShardedSketch delegates snapshots shard by shard (incl. Ours)."""
    stream = zipf_stream(6000, skew=1.2, universe=1000, seed=4)
    donor = ShardedSketch.from_registry("Ours", MEMORY, 3, seed=0)
    donor.insert_stream(stream, batch_size=512)
    replica = ShardedSketch.from_registry("Ours", MEMORY, 3, seed=0)
    replica.state_restore(donor.state_snapshot())
    keys = stream.keys()
    assert (replica.query_batch(keys) == donor.query_batch(keys)).all()
    assert replica.items_per_shard.tolist() == donor.items_per_shard.tolist()


def test_unsnapshotable_shards_refuse():
    sharded = ShardedSketch.from_registry("SS", MEMORY, 2, seed=0)
    assert not sharded.snapshotable
    with pytest.raises(UnmergeableSketchError):
        sharded.state_snapshot()
    with pytest.raises(UnmergeableSketchError):
        sharded.state_restore({})


# ------------------------------------------------ array-speed snapshot path
def per_key_restore(state, depth, **bounds):
    """What a per-key restore loop builds: the interner and each layer's ids."""
    interner = KeyInterner(**bounds)
    layer_ids = []
    for index in range(depth):
        keys = _keys_from_arrays_per_key(
            state[f"layer{index}_key_tags"],
            state[f"layer{index}_key_lengths"],
            state[f"layer{index}_key_blob"].tobytes(),
        )
        layer_ids.append([-1 if key is None else interner.intern(key) for key in keys])
    return interner, layer_ids


@pytest.mark.parametrize("name", ("Ours", "Coco", "HashPipe", "PRECISION"))
def test_snapshot_bytes_equal_the_per_key_codec(name, monkeypatch):
    """A fixed stream's snapshot file is byte-identical on both codec paths.

    The reference resolves every slot's id to its key (``None`` for empty
    slots) and encodes the whole slot list key by key.
    """
    def per_key_slot_arrays(interner, slot_ids):
        return _keys_to_arrays_per_key([
            None if item_id == EMPTY_ID else interner.key_of(item_id)
            for item_id in slot_ids.tolist()
        ])

    sketch = build_sketch(name, MEMORY, seed=3)
    keys = (zipf_stream(6000, skew=1.1, universe=4000, seed=9).keys())
    sketch.insert_batch([(key * 2654435761) % 2**31 for key in keys])
    fast = encode_snapshot_file(sketch.state_snapshot(), name)
    monkeypatch.setattr(KeyInterner, "slot_key_arrays", per_key_slot_arrays)
    assert encode_snapshot_file(sketch.state_snapshot(), name) == fast


def test_restored_replica_builds_no_id_table():
    """Candidate keys below 2^22 must not make every replica allocate a table."""
    donor = build_sketch("Ours", MEMORY, seed=0)
    donor.insert_batch(list(range(3000)) * 3)
    assert donor._interner._table is not None  # the live path does use one
    replica = build_sketch("Ours", MEMORY, seed=0)
    replica.state_restore(donor.state_snapshot())
    assert replica._interner._table is None
    keys = list(range(3100))
    assert (replica.query_batch(keys) == donor.query_batch(keys)).all()


@pytest.mark.parametrize(
    "bounds", ({}, {"max_keys": 4000}), ids=("unbounded", "bounded"),
)
def test_restore_interns_like_the_per_key_loop(bounds):
    """Same ids as interning candidates one by one."""
    donor, stream = filled()
    state = donor.state_snapshot()
    replica = build_sketch(
        "Ours", MEMORY, seed=0, max_interned_keys=bounds.get("max_keys"),
    )
    replica.state_restore(state)
    expected, layer_ids = per_key_restore(state, donor.depth, **bounds)
    restored = replica._interner
    assert restored.keys() == expected.keys()
    assert restored._ids == expected._ids
    assert [layer.key_ids.tolist() for layer in replica._layers] == layer_ids
    keys = stream.keys()
    assert (replica.query_batch(keys) == donor.query_batch(keys)).all()


# ------------------------------------------------------- copy-into-peer path
def stream_keys(kind, count=9000, seed=21):
    """Zipf keys of one kind: ids the writer tables, 31-bit ints, str, mixed."""
    ranks = [item.key for item in zipf_stream(count, skew=1.1, universe=3000, seed=seed)]
    if kind == "small-int":
        return ranks
    if kind == "int31":
        return [(rank * 2654435761 + 977) % 2**31 for rank in ranks]
    if kind == "str":
        return [f"flow-{rank}" for rank in ranks]
    return [rank if rank % 2 else f"flow-{rank}" for rank in ranks]


KEY_KINDS = ("small-int", "int31", "str", "mixed")


def observed(sketch, keys):
    """Everything a reader or an operator can see of a sketch.

    The operation counts are read first: the queries made here count too.
    """
    operation_counts = sketch.operation_counts()
    scalar = [
        (result.estimate, result.mpe, result.layers_visited)
        for result in map(sketch.query_with_error, keys)
    ]
    return {
        "operation_counts": operation_counts,
        "query_batch": sketch.query_batch(keys).tolist(),
        "query_with_error": scalar,
        "insert_failures": sketch.insert_failures,
        "failed_value": sketch.failed_value,
        "settled": sketch.inserts_settled_per_layer,
        "occupancy": sketch.layer_occupancy(),
        "locked": sketch.locked_buckets(),
    }


def answers(sketch, keys):
    """:func:`observed` less the query count, which reading advances."""
    seen = observed(sketch, keys)
    seen["operation_counts"] = seen["operation_counts"][0]
    return seen


@pytest.mark.parametrize("name", ("Ours", "Ours(Raw)"))
@pytest.mark.parametrize("kind", KEY_KINDS)
@pytest.mark.parametrize("bound", (None, 6000), ids=("unbounded", "bounded"))
def test_copy_matches_restore_and_donor(name, kind, bound):
    keys = stream_keys(kind)
    build = lambda: build_sketch(name, MEMORY, seed=0, max_interned_keys=bound)  # noqa: E731
    donor = build()
    donor.insert_batch(keys[:4000])
    donor.insert_batch(keys[4000:])
    copied, restored = build(), build()
    donor.copy_state_into(copied)
    restored.state_restore(donor.state_snapshot())
    probe = list(dict.fromkeys(keys)) + [2**31 + 5, "absent", -3, b"blob"]
    expected = observed(donor, probe)
    assert observed(copied, probe) == expected
    assert observed(restored, probe) == expected


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_copied_replica_continues_identically(kind):
    keys = stream_keys(kind)
    donor = build_sketch("Ours", MEMORY, seed=0)
    donor.insert_batch(keys[:5000])
    replica = build_sketch("Ours", MEMORY, seed=0)
    donor.copy_state_into(replica)
    more = stream_keys(kind, count=4000, seed=22)
    donor.insert_batch(more)
    replica.insert_batch(more[:1500])
    replica.insert_batch(more[1500:])
    probe = list(dict.fromkeys(keys + more))
    assert observed(replica, probe) == observed(donor, probe)


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_copied_replica_interns_only_its_candidates(kind):
    """The replica's interner holds its candidate keys, not the writer's."""
    donor = build_sketch("Ours", MEMORY, seed=0)
    donor.insert_batch(stream_keys(kind))
    replica = build_sketch("Ours", MEMORY, seed=0)
    donor.copy_state_into(replica)
    candidates = {
        donor._interner.key_of(item_id)
        for layer in donor._layers
        for item_id in layer.key_ids.tolist()
        if item_id != EMPTY_ID
    }
    assert len(replica._interner) == len(candidates) < len(donor._interner)
    assert replica._interner._table is None


def test_copied_replica_shares_no_state():
    donor = build_sketch("Ours", MEMORY, seed=0)
    donor.insert_batch(stream_keys("int31"))
    replica = build_sketch("Ours", MEMORY, seed=0)
    donor.copy_state_into(replica)
    probe = list(dict.fromkeys(stream_keys("int31"))) + ["absent"]
    before = answers(replica, probe)
    donor.insert_batch(stream_keys("mixed", seed=23))
    calls = donor.hash_calls()
    assert answers(replica, probe) == before
    assert donor.hash_calls() == calls


def test_copy_validates_geometry_before_writing():
    donor, stream = filled()
    keys = stream.keys()
    for peer in (build_sketch("Ours", MEMORY // 2, seed=0), build_sketch("Ours(Raw)", MEMORY, seed=0)):
        peer.insert_batch(keys[:300])
        expected = answers(peer, keys)
        with pytest.raises(ValueError):
            donor.copy_state_into(peer)
        assert answers(peer, keys) == expected


def test_copy_carries_failure_statistics():
    """An overloaded donor's insert failures and failed value reach the replica."""
    keys = stream_keys("int31")
    donor = build_sketch("Ours(Raw)", 1024, seed=0)
    donor.insert_batch(keys)
    assert donor.insert_failures > 0
    replica = build_sketch("Ours(Raw)", 1024, seed=0)
    donor.copy_state_into(replica)
    probe = list(dict.fromkeys(keys))
    assert observed(replica, probe) == observed(donor, probe)
