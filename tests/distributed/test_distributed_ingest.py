"""End-to-end distributed ingest: the acceptance contract of the subsystem.

For every transport backend and 2+ workers:

* **CM/Count** — the collector's tree-merged sketch is *bit-identical* to a
  single-node sketch fed the whole stream (tables compared, not just a
  query projection).
* **CU** — per-partition states are exact (the rebuilt ShardedSketch
  answers every routed query bit-identically to local sharded ingest); the
  merge carries CU's documented upper-bound semantics: never below the true
  value sums, never below the routed answers.
* Key->partition placement equals the local ``ShardedSketch`` partition,
  so the runner's ``transport`` knob can never change a result.
* Journal replay re-sends the encoded frames re-fenced at the new epoch,
  byte for byte what a fresh encode at that epoch would produce.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.distributed import run_dynamic_ingest, tree_merge
from repro.distributed.ingest import DynamicIngestCoordinator, dynamic_worker_main
from repro.distributed.transport import QueueChannel, create_transport
from repro.distributed.wire import (
    MSG_ROUTED_BATCH,
    WireFormatError,
    decode_frame,
    decode_routed_batch,
    encode_frame,
    encode_routed_batch,
    refence_routed_batch,
)
from repro.experiments.runner import ExperimentSettings, run_sketch
from repro.sketches.base import UnmergeableSketchError
from repro.sketches.registry import build_sketch
from repro.sketches.sharded import ShardedSketch
from repro.streams.synthetic import zipf_stream

MEMORY = 8192
SEED = 2
TRANSPORTS = ("inproc", "pipe", "tcp")


def mixed_items(seed: int, count: int = 900, universe: int = 200):
    """A weighted stream mixing int and string keys (exercises both wire modes)."""
    rng = random.Random(seed)
    items = []
    for _ in range(count):
        key: object = rng.randrange(universe)
        if rng.random() < 0.25:
            key = f"flow-{rng.randrange(universe // 4)}"
        items.append((key, rng.randrange(1, 4)))
    return items


def query_keys(items):
    present = sorted({key for key, _ in items}, key=str)
    return present + ["absent", 10**9]


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("name", ["CM_fast", "Count"])
def test_merged_bit_identical_to_single_node(name, transport):
    items = mixed_items(3)
    result = run_dynamic_ingest(
        name, MEMORY, items, workers=3, transport=transport, chunk_size=128, seed=SEED
    )
    single = build_sketch(name, MEMORY, seed=SEED)
    for key, value in items:
        single.insert(key, value)
    assert (result.merged._tables == single._tables).all()
    keys = query_keys(items)
    assert result.merged.query_batch(keys).tolist() == single.query_batch(keys).tolist()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_cu_upper_bound_semantics(transport):
    items = mixed_items(5)
    result = run_dynamic_ingest(
        "CU_fast", MEMORY, items, workers=3, transport=transport, chunk_size=128, seed=SEED
    )
    counts: dict = {}
    for key, value in items:
        counts[key] = counts.get(key, 0) + value
    keys = query_keys(items)
    merged = result.merged.query_batch(keys)
    routed = result.sharded().query_batch(keys)
    truth = np.asarray([counts.get(key, 0) for key in keys])
    assert (merged >= truth).all(), "CU merge must never underestimate"
    assert (merged >= routed).all(), "CU merge must dominate the routed answers"


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("name", ["CM_fast", "CU_fast", "Count"])
def test_remote_shards_equal_local_sharding(name, transport):
    """Partition states are bit-identical to local ShardedSketch shards."""
    items = mixed_items(7)
    result = run_dynamic_ingest(
        name, MEMORY, items, workers=3, transport=transport, chunk_size=64, seed=SEED
    )
    local = ShardedSketch.from_registry(name, MEMORY, 3, seed=SEED)
    for start in range(0, len(items), 64):
        chunk = items[start : start + 64]
        local.insert_batch([k for k, _ in chunk], [v for _, v in chunk])

    assert list(result.items_per_partition) == local.items_per_shard.tolist()
    assert [meta["items"] for meta in result.partition_metas] == list(
        result.items_per_partition
    )
    keys = query_keys(items)
    remote = result.sharded()
    assert remote.query_batch(keys).tolist() == local.query_batch(keys).tolist()
    # Partition-by-partition state equality, not just the routed projection.
    for remote_shard, local_shard in zip(result.partition_sketches, local.shards):
        snapshot_remote = remote_shard.state_snapshot()
        snapshot_local = local_shard.state_snapshot()
        assert (snapshot_remote["tables"] == snapshot_local["tables"]).all()
    assert result.bytes_sent > 0 and result.bytes_received > 0


def test_single_worker_matches_monolithic():
    """workers=1 degenerates to single-node ingest over a wire."""
    items = mixed_items(9)
    result = run_dynamic_ingest(
        "CM_fast", MEMORY, items, workers=1, transport="inproc", chunk_size=100, seed=SEED
    )
    single = build_sketch("CM_fast", MEMORY, seed=SEED)
    for key, value in items:
        single.insert(key, value)
    assert (result.merged._tables == single._tables).all()


def test_empty_stream():
    result = run_dynamic_ingest(
        "Count", MEMORY, [], workers=2, transport="inproc", seed=SEED
    )
    assert result.total_items == 0
    assert result.merged.query(1) == 0


def test_unmergeable_family_rejected():
    with pytest.raises(UnmergeableSketchError):
        run_dynamic_ingest("Elastic", MEMORY, [], workers=2, transport="inproc")


def test_coordinator_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        DynamicIngestCoordinator("CM_fast", MEMORY, 0, create_transport("inproc"))


def test_tree_merge_orders_are_equivalent():
    """Tree reduction equals sequential folding for the additive families."""
    streams = [mixed_items(seed, count=300) for seed in range(5)]
    sketches = []
    for items in streams:
        sketch = build_sketch("Count", MEMORY, seed=SEED)
        for key, value in items:
            sketch.insert(key, value)
        sketches.append(sketch)

    import copy

    tree = tree_merge([copy.deepcopy(s) for s in sketches])
    sequential = copy.deepcopy(sketches[0])
    for other in sketches[1:]:
        sequential.merge(other)
    assert (tree._tables == sequential._tables).all()

    with pytest.raises(ValueError):
        tree_merge([])


def test_worker_rejects_routed_batch_before_config():
    collector, worker = QueueChannel.pair()
    collector.send(encode_frame(MSG_ROUTED_BATCH, encode_routed_batch(0, 0, [1, 2])))
    collector.close()
    with pytest.raises(WireFormatError):
        dynamic_worker_main(worker)


def test_refence_keeps_partition_and_body():
    payload = encode_routed_batch(3, 5, [7, "flow", b"raw"], [1, 2, 3])
    assert refence_routed_batch(payload, 3) is payload
    assert refence_routed_batch(payload, 9) == encode_routed_batch(
        9, 5, [7, "flow", b"raw"], [1, 2, 3]
    )
    with pytest.raises(WireFormatError):
        refence_routed_batch(payload[:5], 9)


def test_replayed_journal_frames_equal_a_fresh_encode_at_the_new_epoch(monkeypatch):
    """Recovery re-sends each journaled frame re-fenced, never re-encoded."""
    coordinator = DynamicIngestCoordinator(
        "CM_fast", MEMORY, 2, create_transport("inproc"), partitions=2, seed=SEED
    )
    try:
        chunks = [mixed_items(seed, count=120) for seed in range(3)]
        for chunk in chunks:
            coordinator.send_batch([k for k, _ in chunk], [v for _, v in chunk])
        journaled = list(coordinator._journal[0])
        assert journaled

        victim = coordinator.router.owner(0)
        survivor = coordinator._workers[1 - victim]
        sent: list[bytes] = []
        send = survivor.channel.send
        monkeypatch.setattr(
            survivor.channel, "send", lambda frame: (sent.append(frame), send(frame))
        )
        coordinator._recover(victim)
        monkeypatch.undo()

        assert coordinator.router.owner(0) == survivor.worker_id
        assert coordinator.epoch > 0
        replayed = [
            payload
            for msg_type, payload in map(decode_frame, sent)
            if msg_type == MSG_ROUTED_BATCH
        ]
        assert len(replayed) == len(journaled)
        for (before, items), after in zip(journaled, replayed):
            old_epoch, partition, batch, values = decode_routed_batch(before)
            assert (old_epoch, partition, len(batch)) == (0, 0, items)
            assert after == encode_routed_batch(coordinator.epoch, 0, batch, values)
        assert coordinator.recoveries[-1].replayed_items == sum(
            items for _, items in journaled
        )

        local = ShardedSketch.from_registry("CM_fast", MEMORY, 2, seed=SEED)
        for chunk in chunks:
            local.insert_batch([k for k, _ in chunk], [v for _, v in chunk])
        sketches, _ = coordinator.collect()
        for remote, shard in zip(sketches, local.shards):
            assert (remote._tables == shard._tables).all()
    finally:
        coordinator.shutdown()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_runner_transport_knob_is_bit_identical(transport):
    """ExperimentSettings.transport never changes an accuracy report."""
    stream = zipf_stream(4000, skew=1.1, seed=6)
    local = run_sketch(
        "CM_fast", MEMORY, stream, ExperimentSettings(seed=SEED, shards=2, batch_size=512)
    )
    remote = run_sketch(
        "CM_fast", MEMORY, stream,
        ExperimentSettings(seed=SEED, shards=2, batch_size=512, transport=transport),
    )
    assert local.report == remote.report


def test_runner_transport_falls_back_for_unmergeable():
    stream = zipf_stream(2000, skew=1.1, seed=6)
    local = run_sketch(
        "Ours", MEMORY, stream, ExperimentSettings(seed=SEED, shards=2, batch_size=512)
    )
    remote = run_sketch(
        "Ours", MEMORY, stream,
        ExperimentSettings(seed=SEED, shards=2, batch_size=512, transport="inproc"),
    )
    assert local.report == remote.report
