"""The columnar Stream: a key array and a value array, never an item list.

An array-backed stream must be indistinguishable from the item list it
holds: the same length, iteration, indexing and ground truth, and the same
sketch — bit for bit, for every registered family — through
``insert_stream``, both ingest fleets and the epoch writer's fill, whose
chunks it hands over as array slices instead of unpacked item lists.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.ingest import run_dynamic_ingest
from repro.serve.snapshots import EpochWriter
from repro.sketches.registry import build_sketch, competitor_names, supports_snapshots
from repro.streams import Item, Stream, iter_key_value_chunks, ip_trace, zipf_stream

MEMORY = 4096
SEED = 5

keys_strategy = st.one_of(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=-(2**63) + 1, max_value=2**63 - 1),
    st.sampled_from([-(2**63), 2**63, 2**70]),
    st.text(max_size=3),
)


def item_list(keys, values) -> list[Item]:
    return [Item(key, value) for key, value in zip(keys, values)]


def fingerprint(sketch, keys) -> dict:
    """Everything a sketch answers with: its snapshot when it has one, else estimates."""
    probe = list(dict.fromkeys(keys)) + [10**6 + i for i in range(20)]
    prints = {"estimates": sketch.query_batch(probe).tolist()}
    if sketch.snapshotable:
        prints.update({name: array.tolist() for name, array in sketch.state_snapshot().items()})
    return prints


@pytest.fixture(scope="module")
def trace():
    """A 62-bit-key surrogate trace with byte-volume values, built from arrays."""
    return ip_trace(scale=0.0004, seed=3, value_model="bytes")


# ------------------------------------------------------------- the container
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(keys_strategy, st.integers(min_value=1, max_value=9)), max_size=60))
def test_array_stream_equals_its_item_list(pairs):
    keys = [key for key, _ in pairs]
    values = [value for _, value in pairs]
    items = item_list(keys, values)
    stream = Stream(items)
    from_arrays = Stream.from_arrays(stream.key_array, stream.value_array)
    for candidate in (stream, from_arrays):
        assert len(candidate) == len(items)
        assert list(candidate) == items
        assert candidate.items == items
        assert candidate[: len(items) // 2] == items[: len(items) // 2]
        assert [candidate[i] for i in range(len(items))] == items
        counts = Counter()
        for key, value in pairs:
            counts[key] += value
        assert candidate.counts() == counts
        assert [type(item.key) for item in candidate] == [type(key) for key in keys]


def test_key_array_dtype_follows_the_keys():
    assert Stream([(1, 1), (2**62, 2)]).key_array.dtype == np.int64
    assert Stream([]).key_array.dtype == np.int64
    # Anything the int64 array cannot hold exactly is an object array; a
    # mixed list must not become a numpy string array.
    for keys in ([1, "a"], [2**63, 1], [-(2**63)], [True, 2], [b"x"]):
        stream = Stream([(key, 1) for key in keys])
        assert stream.key_array.dtype == object
        assert [item.key for item in stream] == keys
    narrow = Stream.from_arrays(np.asarray([3, 4], dtype=np.uint16), [1, 1])
    assert narrow.key_array.dtype == np.int64
    assert Stream.from_arrays(np.asarray([True]), [1])[0].key is True


def test_generators_build_int64_arrays(trace):
    zipf = zipf_stream(500, skew=1.1, universe=64, seed=2, value=3)
    for stream in (trace, zipf):
        assert stream.key_array.dtype == np.int64
        assert stream.value_array.dtype == np.int64
        assert all(type(item.key) is int and type(item.value) is int for item in stream)
    assert set(zipf.value_array.tolist()) == {3}


def test_value_count_must_match():
    with pytest.raises(ValueError):
        Stream.from_arrays([1, 2], [1])


@pytest.mark.parametrize("chunk_size", (1, 7, 64, 10_000))
def test_chunks_slice_a_stream_and_unpack_other_iterables(trace, chunk_size):
    items = list(trace)
    from_stream = list(iter_key_value_chunks(trace, chunk_size))
    from_items = list(iter_key_value_chunks(items, chunk_size))
    assert len(from_stream) == len(from_items) == -(-len(items) // chunk_size)
    for (keys, values), (item_keys, item_values) in zip(from_stream, from_items):
        assert isinstance(keys, np.ndarray) and keys.dtype == np.int64
        assert keys.tolist() == item_keys
        assert values.tolist() == item_values
    mixed = Stream([("a", 1), (2, 2), (b"c", 3)])
    assert list(iter_key_value_chunks(mixed, 2))[0][0] == ["a", 2]
    with pytest.raises(ValueError):
        next(iter_key_value_chunks(trace, 0))


# ------------------------------------------------ bit-identical sketches
ALL_FAMILIES = competitor_names()
SNAPSHOT_FAMILIES = tuple(name for name in ALL_FAMILIES if supports_snapshots(name))


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_insert_stream_is_bit_identical(trace, name):
    keys = trace.key_array.tolist()
    from_items = build_sketch(name, MEMORY, seed=SEED)
    from_items.insert_stream(list(trace), batch_size=512)
    from_arrays = build_sketch(name, MEMORY, seed=SEED)
    from_arrays.insert_stream(trace, batch_size=512)
    assert fingerprint(from_arrays, keys) == fingerprint(from_items, keys)


def epoch_fill(name, stream, keys) -> list:
    """``(epoch id, items, fingerprint)`` of every epoch the writer publishes
    while ``stream`` fills ``name``; one fingerprint per epoch, because
    ReliableSketch counts its queries in its state."""
    epochs: list = []
    writer = EpochWriter(build_sketch(name, MEMORY, seed=SEED),
                         publish_every_items=700, on_publish=epochs.append)
    for chunk_keys, values in iter_key_value_chunks(stream, 300):
        writer.ingest(chunk_keys, values)
    writer.publish()
    return [(epoch.epoch_id, epoch.items, fingerprint(epoch.sketch, keys)) for epoch in epochs]


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_epoch_fill_is_bit_identical(trace, name):
    """Array chunks and item chunks publish the same epochs, and the flushed
    epoch equals the direct fill."""
    keys = trace.key_array.tolist()
    from_arrays = epoch_fill(name, trace, keys)
    assert len(from_arrays) > 2
    assert from_arrays == epoch_fill(name, list(trace), keys)
    direct = build_sketch(name, MEMORY, seed=SEED)
    direct.insert_stream(trace, batch_size=300)
    assert from_arrays[-1][2] == fingerprint(direct, keys)


@pytest.mark.parametrize("name", SNAPSHOT_FAMILIES)
def test_fleets_are_bit_identical(trace, name):
    keys = trace.key_array.tolist()
    results = []
    for stream in (trace, list(trace)):
        one_per_worker = run_dynamic_ingest(name, MEMORY, stream, workers=2,
                                            chunk_size=300, seed=SEED)
        spread = run_dynamic_ingest(name, MEMORY, stream, workers=2, partitions=3,
                                    chunk_size=300, seed=SEED)
        results.append([fingerprint(result.sharded(), keys)
                        for result in (one_per_worker, spread)])
    assert results[0] == results[1]


# ------------------------------------------- native keys from ndarray batches
@pytest.mark.parametrize("name", ("SS", "Frequent"))
def test_scalar_loop_sketches_keep_native_int_keys(name):
    sketch = build_sketch(name, MEMORY, seed=SEED)
    sketch.insert_batch(np.array([7, 7, 9]))
    sketch.insert_batch(np.array([9, 11]), np.array([2, 1]))
    keys = sketch.monitored_keys()
    assert sorted(keys) == [7, 9, 11]
    assert all(type(key) is int for key in keys)
    assert sketch.query_batch(np.array([7, 9, 11])).tolist() == [2, 3, 1]
    if name == "SS":
        json.dumps(sketch.top_k(3))
