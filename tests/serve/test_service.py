"""SketchService semantics: epoch-pinned reads, the answer cache, top-k."""

from __future__ import annotations

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


def test_cache_hits_within_epoch_and_invalidates_on_publish():
    service = make_service(publish_every_items=100)
    service.ingest([5] * 100)
    assert service.query(5) == 100
    assert (service.cache_hits, service.cache_misses) == (0, 1)
    assert service.query(5) == 100
    assert service.cache_hits == 1
    service.ingest([5] * 100)  # publishes epoch 2, invalidating the cache
    assert service.query(5) == 200
    assert service.cache_misses == 2


def test_cache_is_bounded_lru():
    service = make_service(cache_size=4)
    service.ingest(list(range(100)))
    service.flush()
    for key in range(10):
        service.query(key)
    assert len(service._cache) <= 4


def test_cache_can_be_disabled():
    service = make_service(cache_size=0)
    service.ingest([3, 3])
    service.flush()
    assert service.query(3) == 2
    assert (service.cache_hits, service.cache_misses) == (0, 0)


def test_top_k_matches_brute_force():
    service = make_service(name="CM_fast", publish_every_items=10**9)
    stream = zipf_stream(8000, skew=1.3, universe=500, seed=11)
    for chunk in stream.iter_batches(512):
        service.ingest([item.key for item in chunk], [item.value for item in chunk])
    epoch = service.flush()
    ranking = service.top_k(10)
    # brute force over the same candidates against the same frozen epoch
    candidates = list(service._keys)
    estimates = {key: int(value) for key, value in
                 zip(candidates, epoch.sketch.query_batch(candidates))}
    expected = sorted(candidates, key=lambda key: -estimates[key])[:10]
    # ties break by first-contact order (stable sort), matching `expected`
    # because Python's sort is stable over the same candidate order
    assert [key for key, _ in ranking] == expected
    assert all(estimate == estimates[key] for key, estimate in ranking)


def test_top_k_is_cached_per_epoch():
    service = make_service()
    service.ingest(list(range(50)))
    service.flush()
    first = service.top_k(5)
    hits_before = service.cache_hits
    assert service.top_k(5) == first
    assert service.cache_hits == hits_before + 1


def test_top_k_validation():
    service = make_service()
    with pytest.raises(ValueError):
        service.top_k(0)
    untracked = SketchService(build_sketch("CM_fast", MEMORY, seed=0), track_keys=False)
    untracked.ingest([1, 2, 3])
    with pytest.raises(ValueError):
        untracked.top_k(3)


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


def test_service_rejects_negative_cache():
    with pytest.raises(ValueError):
        make_service(cache_size=-1)


# ------------------------------------------------------- bounded directory
def test_directory_unbounded_by_default():
    service = make_service(publish_every_items=10**9)
    service.ingest(list(range(5000)))
    assert len(service._keys) == 5000
    assert service.directory_prunes == 0
    assert service.stats()["max_tracked_keys"] is None


def test_directory_keeps_first_contact_order_and_native_keys():
    import numpy as np

    service = make_service(publish_every_items=10**9)
    service.ingest([5, "b", 5, 9, "b"])
    service.ingest(np.asarray([9, 11, 2, 11], dtype=np.int64))
    service.ingest([2, 7, b"x", 13])
    assert list(service._keys) == [5, "b", 9, 11, 2, 7, b"x", 13]
    assert all(not isinstance(key, np.generic) for key in service._keys)


def test_directory_prune_waits_for_the_slack():
    # Pruning is amortized: it fires only past cap + max(64, cap // 8), so
    # a directory hovering at the cap is not re-sorted on every batch.
    service = make_service(publish_every_items=10**9, max_tracked_keys=100)
    service.ingest(list(range(160)))
    assert service.directory_prunes == 0
    assert len(service._keys) == 160
    service.ingest(list(range(160, 170)))  # 170 > 100 + 64
    assert service.directory_prunes == 1
    assert len(service._keys) == 100


def test_directory_prune_keeps_the_heaviest_published_keys():
    service = make_service(publish_every_items=10**9, max_tracked_keys=100)
    service.ingest([key for key in range(100) for _ in range(5)])
    service.flush()  # heavy keys are now visible to the pruning rank
    service.ingest(list(range(1000, 1100)))  # 200 tracked > 164 -> prune
    assert service.directory_prunes == 1
    assert set(service._keys) == set(range(100))
    stats = service.stats()
    assert stats["distinct_keys_tracked"] == 100
    assert stats["max_tracked_keys"] == 100
    assert stats["directory_prunes"] == 1


def test_pruned_key_reenters_on_next_ingest():
    service = make_service(publish_every_items=10**9, max_tracked_keys=100)
    service.ingest([key for key in range(100) for _ in range(5)])
    service.flush()
    service.ingest(list(range(1000, 1100)))  # prunes the light keys away
    assert 1000 not in service._keys
    service.ingest([1000])
    assert 1000 in service._keys


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
    candidates = list(service._keys)
    estimates = {key: int(value) for key, value in
                 zip(candidates, epoch.sketch.query_batch(candidates))}
    expected = sorted(candidates, key=lambda key: -estimates[key])[:10]
    assert [key for key, _ in ranking] == expected


def test_directory_bound_validation():
    with pytest.raises(ValueError):
        make_service(max_tracked_keys=0)
    with pytest.raises(ValueError):
        make_service(max_tracked_keys=-5)
