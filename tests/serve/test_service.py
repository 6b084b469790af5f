"""SketchService semantics: epoch-pinned reads, top-k, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.service import SketchService
from repro.sketches.registry import build_sketch
from repro.streams.synthetic import zipf_stream

MEMORY = 32 * 1024


def make_service(name="CM_fast", publish_every_items=1000, **kwargs) -> SketchService:
    return SketchService(
        build_sketch(name, MEMORY, seed=0),
        factory=lambda: build_sketch(name, MEMORY, seed=0),
        publish_every_items=publish_every_items,
        **kwargs,
    )


def test_reads_lag_until_publish():
    service = make_service(publish_every_items=1000)
    service.ingest([7] * 600)
    assert service.query(7) == 0  # epoch 0 is the empty sketch
    service.ingest([7] * 600)  # crosses the epoch boundary
    assert service.query(7) == 1200
    assert service.current_epoch.epoch_id == 1


def test_flush_forces_read_your_writes():
    service = make_service(publish_every_items=10**9)
    service.ingest([1, 1, 2])
    assert service.query_batch([1, 2]).tolist() == [0, 0]
    service.flush()
    assert service.query_batch([1, 2]).tolist() == [2, 1]


def test_serve_batch_stamps_the_answering_epoch():
    service = make_service(publish_every_items=100)
    service.ingest(list(range(100)))
    estimates, epoch_id = service.serve_batch([1, 2])
    assert epoch_id == service.current_epoch.epoch_id == 1
    assert estimates.tolist() == [1, 1]


def test_top_k_matches_brute_force():
    service = make_service(name="CM_fast", publish_every_items=10**9)
    stream = zipf_stream(8000, skew=1.3, universe=500, seed=11)
    for chunk in stream.iter_batches(512):
        service.ingest([item.key for item in chunk], [item.value for item in chunk])
    epoch = service.flush()
    ranking = service.top_k(10)
    # brute force over the same candidates against the same frozen epoch
    candidates = service.key_directory.keys()
    estimates = {key: int(value) for key, value in
                 zip(candidates, epoch.sketch.query_batch(candidates))}
    expected = sorted(candidates, key=lambda key: -estimates[key])[:10]
    # ties break by first-contact order (stable sort), matching `expected`
    # because Python's sort is stable over the same candidate order
    assert [key for key, _ in ranking] == expected
    assert all(estimate == estimates[key] for key, estimate in ranking)


def test_top_k_ranks_todays_directory_at_one_epoch():
    service = make_service(publish_every_items=10**9)
    service.ingest([1] * 5)
    service.flush()
    assert service.serve_top_k(3) == ([(1, 5)], 1)
    # Same epoch, nothing ingested in between: the ranking repeats.
    assert service.serve_top_k(3) == ([(1, 5)], 1)
    # Keys ingested since the publish join the directory at once and rank
    # with their epoch-1 estimate.
    service.ingest([2, 3])
    assert service.serve_top_k(3) == ([(1, 5), (2, 0), (3, 0)], 1)


def test_top_k_reranks_when_a_publish_reorders_keys():
    service = make_service(publish_every_items=10**9)
    service.ingest([1] * 5 + [2] * 3)
    service.flush()
    assert service.serve_top_k(2) == ([(1, 5), (2, 3)], 1)
    service.ingest([2] * 4)
    # Until the publish, the ranking is epoch 1's.
    assert service.serve_top_k(2) == ([(1, 5), (2, 3)], 1)
    service.flush()
    assert service.serve_top_k(2) == ([(2, 7), (1, 5)], 2)


def test_top_k_does_not_depend_on_earlier_requests():
    """The answer for one (epoch, k) is the same whatever was asked before."""
    stream = zipf_stream(3000, skew=1.2, universe=300, seed=4)
    keys = [item.key for item in stream]
    asked, fresh = make_service(publish_every_items=10**9), make_service(
        publish_every_items=10**9
    )
    assert set(keys[2000:]) - set(keys[:2000])  # the tail brings new keys
    for service in (asked, fresh):
        service.ingest(keys[:2000])
        service.flush()
    for k in (1, 10, 1000):
        asked.top_k(k)
    for service in (asked, fresh):
        service.ingest(keys[2000:])  # new directory keys, same epoch
    for k in (1, 10, 1000):
        assert asked.serve_top_k(k) == fresh.serve_top_k(k)


def test_scalar_query_agrees_with_serve_batch():
    """``query`` reads the published epoch itself: it agrees with the batch
    path key by key, before and after a publish."""
    service = make_service(name="Ours", publish_every_items=10**9)
    stream = zipf_stream(4000, skew=1.1, universe=600, seed=9)
    keys = [item.key for item in stream]
    probe = sorted(set(keys)) + [10**6]
    service.ingest(keys[:2500])
    service.flush()
    before, epoch_id = service.serve_batch(probe)
    assert epoch_id == 1
    service.ingest(keys[2500:])
    assert [service.query(key) for key in probe] == before.tolist()
    service.flush()
    after, epoch_id = service.serve_batch(probe)
    assert epoch_id == 2
    assert [service.query(key) for key in probe] == after.tolist()
    assert after.tolist() != before.tolist()


def test_top_k_validation():
    service = make_service()
    with pytest.raises(ValueError):
        service.top_k(0)


def test_stats_counters():
    service = make_service(publish_every_items=1000)
    service.ingest(list(range(1000)))
    service.ingest(list(range(1000, 2000)))
    service.ingest(list(range(2000, 2500)))
    stats = service.stats()
    assert stats["epoch_id"] == 2
    assert stats["items_ingested"] == 2500
    assert stats["epoch_items"] == 2000
    assert stats["staleness_items"] == 500
    assert stats["publishes"] == 2
    assert stats["distinct_keys_tracked"] == 2500
    assert stats["memory_bytes"] > 0
    assert stats["algorithm"] == "CM"


# ------------------------------------------------------- bounded directory
def test_directory_unbounded_by_default():
    service = make_service(publish_every_items=10**9)
    service.ingest(list(range(5000)))
    assert len(service.key_directory) == 5000
    assert service.directory_prunes == 0
    assert service.stats()["max_tracked_keys"] is None


def test_directory_keeps_first_contact_order_and_native_keys():
    service = make_service(publish_every_items=10**9)
    service.ingest([5, "b", 5, 9, "b"])
    service.ingest(np.asarray([9, 11, 2, 11], dtype=np.int64))
    service.ingest([2, 7, b"x", 13])
    keys = service.key_directory.keys()
    assert keys == [5, "b", 9, 11, 2, 7, b"x", 13]
    assert all(not isinstance(key, np.generic) for key in keys)


def test_directory_prune_waits_for_the_slack():
    # Pruning is amortized: it fires only past cap + max(64, cap // 8), so
    # a directory hovering at the cap is not re-sorted on every batch.
    service = make_service(publish_every_items=10**9, max_tracked_keys=100)
    service.ingest(list(range(160)))
    assert service.directory_prunes == 0
    assert len(service.key_directory) == 160
    service.ingest(list(range(160, 170)))  # 170 > 100 + 64
    assert service.directory_prunes == 1
    assert len(service.key_directory) == 100


def test_directory_prune_keeps_the_heaviest_published_keys():
    service = make_service(publish_every_items=10**9, max_tracked_keys=100)
    service.ingest([key for key in range(100) for _ in range(5)])
    service.flush()  # heavy keys are now visible to the pruning rank
    service.ingest(list(range(1000, 1100)))  # 200 tracked > 164 -> prune
    assert service.directory_prunes == 1
    assert set(service.key_directory.keys()) == set(range(100))
    stats = service.stats()
    assert stats["distinct_keys_tracked"] == 100
    assert stats["max_tracked_keys"] == 100
    assert stats["directory_prunes"] == 1


def test_pruned_key_reenters_on_next_ingest():
    service = make_service(publish_every_items=10**9, max_tracked_keys=100)
    service.ingest([key for key in range(100) for _ in range(5)])
    service.flush()
    service.ingest(list(range(1000, 1100)))  # prunes the light keys away
    assert 1000 not in service.key_directory.keys()
    service.ingest([1000])
    assert 1000 in service.key_directory.keys()


def test_directory_prune_preserves_top_k_contract():
    # After pruning, top_k still ranks against the frozen epoch and breaks
    # ties in first-contact order over the surviving candidates.
    service = make_service(publish_every_items=10**9, max_tracked_keys=50)
    stream = zipf_stream(4000, skew=1.3, universe=300, seed=7)
    for chunk in stream.iter_batches(256):
        service.ingest([item.key for item in chunk], [item.value for item in chunk])
        service.flush()
    assert service.directory_prunes > 0  # the scenario actually prunes
    epoch = service.flush()
    ranking = service.top_k(10)
    candidates = service.key_directory.keys()
    estimates = {key: int(value) for key, value in
                 zip(candidates, epoch.sketch.query_batch(candidates))}
    expected = sorted(candidates, key=lambda key: -estimates[key])[:10]
    assert [key for key, _ in ranking] == expected


#: The families that intern every key they store: their interner is the
#: service's key directory.
KEY_STORING = ("Ours", "Ours(Raw)", "Elastic", "Coco", "HashPipe", "PRECISION")


@pytest.mark.parametrize("name", KEY_STORING)
def test_key_storing_directory_is_the_live_interner(name):
    sketch = build_sketch(name, MEMORY, seed=0)
    service = SketchService(
        sketch, factory=lambda: build_sketch(name, MEMORY, seed=0), publish_every_items=4
    )
    service.ingest([5, "b", 5, 9, "b"])
    service.ingest(np.asarray([9, 11, 2, 11], dtype=np.int64))
    service.ingest([2, 7, b"x", 13])
    service.ingest(np.arange(20, 30))
    assert service.key_directory is sketch.key_interner
    keys = service.key_directory.keys()
    assert keys == [5, "b", 9, 11, 2, 7, b"x", 13, *range(20, 30)]
    assert all(not isinstance(key, np.generic) for key in keys)
    assert service.stats()["distinct_keys_tracked"] == len(keys)


def test_max_tracked_keys_leaves_a_key_storing_directory_whole():
    service = make_service(name="Ours", publish_every_items=10**9, max_tracked_keys=50)
    service.ingest(list(range(300)))
    stream = zipf_stream(6000, skew=1.1, universe=300, seed=3)
    for chunk in stream.iter_batches(512):
        service.ingest([item.key for item in chunk])
    epoch = service.flush()
    assert service.directory_prunes == 0
    assert service.key_directory.keys() == list(range(300))
    estimates = epoch.sketch.query_batch(list(range(300))).tolist()
    # Brute force over every interned key; sorted() is stable, so ties keep
    # first-contact order as top_k does.
    expected = sorted(range(300), key=lambda key: -estimates[key])
    for k in (10, 300):
        assert service.top_k(k) == [(key, estimates[key]) for key in expected[:k]]
    stats = service.stats()
    assert stats["distinct_keys_tracked"] == 300
    assert stats["max_tracked_keys"] == 50


def test_directory_bound_validation():
    with pytest.raises(ValueError):
        make_service(max_tracked_keys=0)
    with pytest.raises(ValueError):
        make_service(max_tracked_keys=-5)
