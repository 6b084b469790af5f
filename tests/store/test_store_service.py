"""Warm restart through the serving stack: bit-identical for every family.

The acceptance bar of the durable store: a ``SketchService`` restarted
from ``--store DIR`` must answer every query exactly as a process that
never died — for *every* snapshotable family, including the
order-dependent ones whose RNG draw counters ride in the state — under
the full crash matrix (clean stop, kill without flush, kill mid-append).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.interning import KeyInternerOverflowError
from repro.serve.server import ServeConfig
from repro.sketches.registry import snapshot_names
from repro.store import CrashInjectingFileSystem, CrashPlan, InjectedCrash, SketchStore

MEMORY = 4096
PUBLISH_EVERY = 128


def key_chunks(count=600, seed=5):
    rng = np.random.default_rng(seed)
    keys = [f"k{int(v) % 97}" for v in rng.integers(0, 1 << 30, size=count)]
    return [keys[i : i + 100] for i in range(0, count, 100)]


def config_for(name, directory=None):
    return ServeConfig(
        name,
        MEMORY,
        seed=2,
        publish_every_items=PUBLISH_EVERY,
        store_dir=None if directory is None else str(directory),
    )


def reference_service(name, chunks):
    service = config_for(name).build_service()
    for chunk in chunks:
        service.ingest(chunk)
    service.flush()
    return service


@pytest.mark.parametrize("name", snapshot_names())
def test_warm_restart_bit_identical_per_family(tmp_path, name):
    chunks = key_chunks()
    half = len(chunks) // 2

    durable = config_for(name, tmp_path).build_service()
    for chunk in chunks[:half]:
        durable.ingest(chunk)
    # Kill without flush: whatever the writer held in memory must be in the
    # journal — recovery may not lose a single item.
    durable.close()

    restarted = config_for(name, tmp_path).build_service()
    for chunk in chunks[half:]:
        restarted.ingest(chunk)
    restarted.flush()

    reference = reference_service(name, chunks)
    probe = sorted({key for chunk in chunks for key in chunk})
    got = restarted.query_batch(probe)
    want = reference.query_batch(probe)
    assert np.array_equal(got, want), f"{name} answers diverged after restart"
    assert (
        restarted.stats()["items_ingested"] == reference.stats()["items_ingested"]
    )
    restarted.close()


def test_restart_epochs_continue_not_restart(tmp_path):
    service = config_for("CM_fast", tmp_path).build_service()
    service.ingest([f"k{i}" for i in range(300)])
    service.flush()
    first_epoch = service.stats()["epoch_id"]
    service.close()

    restarted = config_for("CM_fast", tmp_path).build_service()
    assert restarted.stats()["epoch_id"] > first_epoch
    restarted.close()


def test_crash_mid_append_then_serve_restart(tmp_path):
    chunks = key_chunks()
    config = config_for("Ours", tmp_path)
    fs = CrashInjectingFileSystem(plan=CrashPlan(crash_at_write=11, write_prefix=6))
    store = SketchStore(str(tmp_path), algorithm="Ours", fs=fs)
    from repro.serve.service import SketchService

    service = SketchService(
        config.build_sketch(), publish_every_items=PUBLISH_EVERY, store=store
    )
    survived = 0
    with pytest.raises(InjectedCrash):
        for chunk in chunks:
            service.ingest(chunk)
            survived += len(chunk)
    assert fs.crashed

    # A real restart over the torn directory: answers must match a clean
    # process fed exactly the batches whose journal frames survived.
    restarted = config.build_service()
    report_items = restarted.stats()["items_ingested"]
    reference = config_for("Ours").build_service()
    fed = 0
    for chunk in chunks:
        if fed + len(chunk) > report_items:
            break
        reference.ingest(chunk)
        fed += len(chunk)
    assert fed == report_items  # recovery stopped on a batch boundary
    reference.flush()
    restarted.flush()
    probe = sorted({key for chunk in chunks for key in chunk})
    got = restarted.query_batch(probe)
    want = reference.query_batch(probe)
    assert np.array_equal(got, want)
    restarted.close()


def test_non_positive_value_is_rejected_before_journaling(tmp_path):
    """A batch the sketch rejects never reaches the journal, where it would
    fail every later recovery."""
    service = config_for("Ours", tmp_path).build_service()
    service.ingest(["a", "b"])
    with pytest.raises(ValueError, match="positive"):
        service.ingest(["c", "d"], [1, -1])
    assert service.stats()["store"]["wal_frames_appended"] == 1
    service.close()

    restarted = config_for("Ours", tmp_path).build_service()
    assert restarted.stats()["items_ingested"] == 2
    assert restarted.query_batch(["a", "b", "c", "d"]).tolist() == [1, 1, 0, 0]
    restarted.close()


@pytest.mark.parametrize("name", ("Ours", "HashPipe"))
def test_batch_overflowing_a_bounded_interner_is_refused_before_journaling(name, tmp_path):
    """A batch with more new keys than the interner has room for raises
    before the journal sees it, so every later warm start still succeeds."""
    config = ServeConfig(name, 32768, store_dir=str(tmp_path),
                         sketch_kwargs={"max_interned_keys": 4})
    service = config.build_service()
    service.ingest([1, 2, 3, 4])
    with pytest.raises(KeyInternerOverflowError):
        service.ingest([5])
    with pytest.raises(KeyInternerOverflowError):
        service.ingest(np.asarray([4, 6, 4, 7]))
    service.ingest([4, 1, 1])  # known keys still fit
    assert service.stats()["store"]["wal_frames_appended"] == 2
    assert service.stats()["items_ingested"] == 7
    service.close()

    restarted = config.build_service()
    assert restarted.stats()["items_ingested"] == 7
    restarted.flush()
    assert restarted.query_batch([1, 2, 3, 4, 5]).tolist() == [3, 1, 1, 2, 0]
    restarted.close()


def test_sharded_batch_a_shard_refuses_is_not_journaled(tmp_path):
    """The service checks every shard's interner before journaling, so a
    batch one shard refuses never reaches the WAL and warm starts succeed."""
    config = ServeConfig("Ours", 32768, shards=2, store_dir=str(tmp_path),
                         sketch_kwargs={"max_interned_keys": 2})
    service = config.build_service()
    service.ingest([1, 2])
    with pytest.raises(KeyInternerOverflowError):
        service.ingest(list(range(3, 12)))
    assert service.stats()["store"]["wal_frames_appended"] == 1
    assert service.stats()["items_ingested"] == 2
    service.close()

    restarted = config.build_service()
    assert restarted.stats()["items_ingested"] == 2
    restarted.flush()
    assert restarted.query_batch([1, 2, 3]).tolist() == [1, 1, 0]
    restarted.close()


def test_warm_restart_directory_starts_from_restored_candidates(tmp_path):
    """For a family that stores keys the directory is the recovered sketch's
    interner: top_k ranks the restored candidates and the replayed journal
    before anything new is ingested."""
    heavy = [f"h{rank}" for rank in range(5)]
    chunks = [[key for rank, key in enumerate(heavy) for _ in range(50 - 10 * rank)],
              [f"l{index}" for index in range(200)]]
    tail = ["t0", "t1"]
    durable = config_for("Ours", tmp_path).build_service()
    reference = config_for("Ours").build_service()
    for service in (durable, reference):
        for chunk in chunks:
            service.ingest(chunk)
        service.flush()  # the chunks reach a snapshot ...
        service.ingest(tail)  # ... and the tail only the journal
    reference.flush()
    durable.close()

    restarted = config_for("Ours", tmp_path).build_service()
    assert restarted.stats()["items_ingested"] == reference.stats()["items_ingested"]
    assert set(heavy + tail) <= set(restarted.key_directory.keys())
    assert restarted.top_k(5) == reference.top_k(5)
    assert [key for key, _ in restarted.top_k(5)] == heavy
    restarted.close()


def test_degraded_store_keeps_serving(tmp_path):
    fs = CrashInjectingFileSystem(plan=CrashPlan(fail_writes=frozenset({2})))
    store = SketchStore(str(tmp_path), algorithm="CM_fast", fs=fs)
    from repro.serve.service import SketchService

    config = config_for("CM_fast")
    service = SketchService(
        config.build_sketch(), publish_every_items=PUBLISH_EVERY, store=store
    )
    for chunk in key_chunks():
        service.ingest(chunk)  # the disk error must never surface here
    service.flush()
    stats = service.stats()
    assert stats["store"]["degraded"]
    assert stats["store"]["dropped_batches"] > 0
    estimates = service.query_batch(["k1", "k2"])
    assert (estimates >= 0).all()
    service.close()


def test_non_snapshotable_algorithm_rejected_for_store(tmp_path):
    config = ServeConfig("Elastic", MEMORY, store_dir=str(tmp_path))
    with pytest.raises(ValueError, match="snapshotable"):
        config.build_service()
