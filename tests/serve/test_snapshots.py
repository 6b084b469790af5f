"""Epoch rotation and replication: the foundation of snapshot isolation.

The core property pinned here is *frozen epochs*: once published, an
epoch's answers never change, no matter how much the live sketch ingests
afterwards — and a published epoch is always bit-identical to a frozen
copy of the sketch taken at publication time.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.serve.snapshots import EpochWriter, replicate_sketch
from repro.sketches.registry import build_sketch, snapshot_names
from repro.streams.items import iter_key_value_chunks
from repro.streams.synthetic import zipf_stream

MEMORY = 32 * 1024
#: Snapshot families plus a deepcopy-only family (replication must work for
#: both paths).
FAMILIES = ("CM_fast", "CU_fast", "Count", "Ours", "Elastic")


def filled_sketch(name, count=5000, seed=3):
    sketch = build_sketch(name, MEMORY, seed=0)
    stream = zipf_stream(count, skew=1.1, universe=2000, seed=seed)
    sketch.insert_stream(stream, batch_size=512)
    return sketch, stream.keys()


@pytest.mark.parametrize("name", FAMILIES)
def test_replicate_answers_bit_identically(name):
    sketch, keys = filled_sketch(name)
    factory = lambda: build_sketch(name, MEMORY, seed=0)  # noqa: E731
    for replica in (replicate_sketch(sketch), replicate_sketch(sketch, factory)):
        assert (replica.query_batch(keys) == sketch.query_batch(keys)).all()


def test_replicate_shares_no_state():
    sketch, keys = filled_sketch("CM_fast")
    replica = replicate_sketch(sketch, lambda: build_sketch("CM_fast", MEMORY, seed=0))
    before = replica.query_batch(keys).copy()
    sketch.insert_batch(keys)  # mutate the donor only
    assert (replica.query_batch(keys) == before).all()


def test_epoch_zero_is_published_empty():
    writer = EpochWriter(build_sketch("CM_fast", MEMORY, seed=0))
    assert writer.current.epoch_id == 0
    assert writer.current.items == 0
    assert writer.current.sketch.query(123) == 0


def test_publish_cadence_and_staleness():
    writer = EpochWriter(
        build_sketch("CM_fast", MEMORY, seed=0), publish_every_items=1000
    )
    writer.ingest(list(range(999)))
    assert writer.current.epoch_id == 0 and writer.staleness_items == 999
    writer.ingest([999])  # crosses the threshold at the batch boundary
    assert writer.current.epoch_id == 1
    assert writer.current.items == 1000 and writer.staleness_items == 0
    # interval accounting
    writer.ingest(list(range(2500)))
    assert writer.current.epoch_id == 2
    assert writer.publish_count == 2
    assert writer.max_interval_items == 2500
    assert writer.total_interval_items == 3500


@pytest.mark.parametrize("name", ("CM_fast", "Ours"))
def test_published_epoch_is_frozen(name):
    """An epoch equals a deepcopy taken at publish time, forever."""
    writer = EpochWriter(
        build_sketch(name, MEMORY, seed=0),
        factory=lambda: build_sketch(name, MEMORY, seed=0),
        publish_every_items=500,
    )
    stream = zipf_stream(4000, skew=1.2, universe=800, seed=9)
    keys = stream.keys()
    frozen = {}
    for chunk in stream.iter_batches(500):
        writer.ingest([item.key for item in chunk], [item.value for item in chunk])
        epoch = writer.current
        if epoch.epoch_id not in frozen:
            frozen[epoch.epoch_id] = (epoch, copy.deepcopy(epoch.sketch))
    assert len(frozen) >= 4
    for epoch, reference in frozen.values():
        assert (epoch.query_batch(keys) == reference.query_batch(keys)).all()


def test_flush_publishes_complete_state():
    writer = EpochWriter(
        build_sketch("CU_fast", MEMORY, seed=0), publish_every_items=10**9
    )
    stream = zipf_stream(3000, skew=1.1, universe=500, seed=4)
    for chunk in stream.iter_batches(700):
        writer.ingest([item.key for item in chunk], [item.value for item in chunk])
    epoch = writer.publish()
    assert epoch.items == 3000
    keys = stream.keys()
    assert (epoch.query_batch(keys) == writer.live_sketch.query_batch(keys)).all()


def test_wall_clock_cadence_publishes_without_filling_the_item_budget():
    writer = EpochWriter(
        build_sketch("CM_fast", MEMORY, seed=0),
        publish_every_items=10**9,
        publish_every_seconds=1e-6,  # any elapsed time is "long enough"
    )
    writer.ingest([1, 2, 3])
    assert writer.current.epoch_id == 1  # time bound fired, items bound far off
    assert writer.current.items == 3


def test_writer_rejects_bad_cadence():
    sketch = build_sketch("CM_fast", MEMORY, seed=0)
    with pytest.raises(ValueError):
        EpochWriter(sketch, publish_every_items=0)
    with pytest.raises(ValueError):
        EpochWriter(sketch, publish_every_seconds=0.0)


def test_loadgen_epoch_count_excludes_the_drain_flush():
    """epochs_published reflects in-run rotation, not the final flush."""
    from repro.serve import AsyncServingSession, LoadGenConfig, ServeConfig, run_loadgen

    config = ServeConfig("CM_fast", MEMORY, seed=0, publish_every_items=10**9)
    with AsyncServingSession(config.build_service()) as session:
        client = session.connect()
        report = run_loadgen(client, LoadGenConfig(operations=60, seed=2))
        client.close()
    assert report.epochs_published == 0  # nothing rotated during the run
    assert report.epoch_consistent  # the flush still drained for the check


@pytest.mark.parametrize("name", snapshot_names())
def test_flushed_epoch_equals_the_direct_fill(name, small_zipf_stream):
    """Filling through the epoch writer never changes the sketch: after a
    flush, the published epoch's state is the direct fill's, bit for bit."""
    direct = build_sketch(name, MEMORY, seed=0)
    direct.insert_stream(small_zipf_stream)
    writer = EpochWriter(build_sketch(name, MEMORY, seed=0), publish_every_items=4096)
    for keys, values in iter_key_value_chunks(small_zipf_stream, 1024):
        writer.ingest(keys, values)
    served = writer.publish().sketch
    assert writer.current.epoch_id > 1  # the cadence published mid-stream too
    direct_state, served_state = direct.state_snapshot(), served.state_snapshot()
    assert served_state.keys() == direct_state.keys()
    for part, array in direct_state.items():
        assert np.array_equal(served_state[part], array), part
    keys = small_zipf_stream.keys()
    assert (direct.query_batch(keys) == served.query_batch(keys)).all()


def publish_keys(kind, count=6000, seed=13):
    """Zipf item keys: ids the writer tables, 31-bit ints, str, or mixed."""
    ranks = [item.key for item in zipf_stream(count, skew=1.1, universe=2500, seed=seed)]
    if kind == "small-int":
        return ranks
    if kind == "int31":
        return [(rank * 2654435761 + 977) % 2**31 for rank in ranks]
    if kind == "str":
        return [f"flow-{rank}" for rank in ranks]
    return [rank if rank % 2 else f"flow-{rank}" for rank in ranks]


def reliable_view(sketch, keys):
    """A ReliableSketch's answers, error bounds and statistics."""
    operation_counts = sketch.operation_counts()
    return (
        operation_counts,
        sketch.query_batch(keys).tolist(),
        [
            (result.estimate, result.mpe, result.layers_visited)
            for result in map(sketch.query_with_error, keys)
        ],
        sketch.insert_failures,
        sketch.inserts_settled_per_layer,
        sketch.layer_occupancy(),
        sketch.locked_buckets(),
    )


@pytest.mark.parametrize("name", ("Ours", "Ours(Raw)"))
@pytest.mark.parametrize("kind", ("small-int", "int31", "str", "mixed"))
@pytest.mark.parametrize("bound", (None, 4000), ids=("unbounded", "bounded"))
def test_published_replica_equals_the_live_sketch_at_publish(name, kind, bound):
    """Copied replica == restored replica == the live sketch when published.

    The reference is a deepcopy of the *live* sketch taken inside the
    publish hook, not of the replica, so a replica that is wrong but
    self-consistent cannot pass.
    """
    factory = lambda: build_sketch(name, MEMORY, seed=0, max_interned_keys=bound)  # noqa: E731
    live = factory()
    published = []

    def on_publish(epoch):
        published.append((epoch, copy.deepcopy(live)))

    writer = EpochWriter(live, factory=factory, publish_every_items=1500, on_publish=on_publish)
    keys = publish_keys(kind)
    for start in range(0, len(keys), 500):
        writer.ingest(keys[start : start + 500])
    assert len(published) == 5
    probe = list(dict.fromkeys(keys)) + [2**31 + 5, "absent", b"blob"]
    for epoch, reference in published:
        restored = factory()
        restored.state_restore(reference.state_snapshot())
        expected = reliable_view(reference, probe)
        assert reliable_view(epoch.sketch, probe) == expected
        assert reliable_view(restored, probe) == expected
