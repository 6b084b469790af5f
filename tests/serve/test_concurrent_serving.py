"""The acceptance property of the serving layer: snapshot-isolated reads.

For every mergeable family plus ReliableSketch, answers served at epoch E
must be bit-identical to querying a frozen copy of the sketch at E —
*including while ingest continues*.  Two harnesses pin it:

* a deterministic interleave (ingest chunk → query → ingest → query ...)
  that compares every served answer against an independently maintained
  frozen reference of the answering epoch;
* a threaded run (one writer thread, several reader threads) asserting the
  same property under real concurrency — no torn reads, ever.
"""

from __future__ import annotations

import copy
import sys
import threading

import pytest

from repro.serve.service import SketchService
from repro.sketches.registry import build_sketch, mergeable_names
from repro.streams.synthetic import zipf_stream

MEMORY = 32 * 1024
#: The acceptance matrix: every mergeable family plus ReliableSketch (both
#: variants — with and without the mice filter).
FAMILIES = tuple(mergeable_names()) + ("Ours", "Ours(Raw)")


def make_service(name, publish_every_items=700) -> SketchService:
    return SketchService(
        build_sketch(name, MEMORY, seed=0),
        factory=lambda: build_sketch(name, MEMORY, seed=0),
        publish_every_items=publish_every_items,
    )


@pytest.mark.parametrize("name", FAMILIES)
def test_interleaved_reads_match_frozen_epochs(name):
    """Every answer equals the frozen reference of its epoch, mid-ingest."""
    service = make_service(name)
    # Frozen references, maintained independently of the serving machinery:
    # a deepcopy of every published epoch's replica, keyed by epoch id.
    references = {}
    service._writer._on_publish = _chain(
        service._on_publish,
        lambda epoch: references.__setitem__(epoch.epoch_id, copy.deepcopy(epoch.sketch)),
    )
    references[0] = copy.deepcopy(service.current_epoch.sketch)

    stream = zipf_stream(6000, skew=1.2, universe=900, seed=13)
    probe_keys = stream.keys()[:64] + ["absent", -3]
    for chunk in stream.iter_batches(256):
        service.ingest([item.key for item in chunk], [item.value for item in chunk])
        estimates, epoch_id = service.serve_batch(probe_keys)
        reference = references[epoch_id]
        assert (estimates == reference.query_batch(probe_keys)).all(), (
            f"{name}: answers at epoch {epoch_id} diverged from the frozen copy"
        )
    assert service.current_epoch.epoch_id >= 5  # rotation actually happened


@pytest.mark.parametrize("name", FAMILIES)
def test_threaded_ingest_and_query_no_torn_reads(name):
    """Real writer/reader concurrency: every answer matches its epoch."""
    references = {}
    reference_lock = threading.Lock()

    def pin_reference(epoch):
        with reference_lock:
            references[epoch.epoch_id] = copy.deepcopy(epoch.sketch)

    sketch = build_sketch(name, MEMORY, seed=0)
    service = SketchService(sketch, publish_every_items=500)
    # Install the pinning hook before any ingest (epoch 0 predates it).
    service._writer._on_publish = _chain(service._on_publish, pin_reference)
    references[0] = copy.deepcopy(service.current_epoch.sketch)

    stream = zipf_stream(8000, skew=1.1, universe=1200, seed=21)
    probe_keys = stream.keys()[:48]
    failures: list[str] = []
    done = threading.Event()

    def writer():
        for chunk in stream.iter_batches(200):
            service.ingest(
                [item.key for item in chunk], [item.value for item in chunk]
            )
        done.set()

    def reader():
        while True:
            estimates, epoch_id = service.serve_batch(probe_keys)
            with reference_lock:
                reference = references.get(epoch_id)
            if reference is None:
                failures.append(f"unknown epoch {epoch_id}")
                break
            if not (estimates == reference.query_batch(probe_keys)).all():
                failures.append(f"torn read at epoch {epoch_id}")
                break
            if done.is_set():
                break

    _run_concurrently(
        [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(3)]
    )
    assert not failures, failures
    assert service.current_epoch.epoch_id >= 10


@pytest.mark.parametrize("name", ("CM_fast", "Ours"))
def test_threaded_top_k_reads_a_consistent_directory(name):
    """Readers rank the key directory while the writer grows it (the live
    sketch's interner for Ours, the service's own for CM): every ranking is
    of ingested keys at its epoch's estimates, and no update is lost."""
    references = {}
    reference_lock = threading.Lock()

    def pin_reference(epoch):
        with reference_lock:
            references[epoch.epoch_id] = copy.deepcopy(epoch.sketch)

    service = SketchService(build_sketch(name, MEMORY, seed=0), publish_every_items=400)
    service._writer._on_publish = _chain(service._on_publish, pin_reference)
    references[0] = copy.deepcopy(service.current_epoch.sketch)
    keys = [item.key for item in zipf_stream(8000, skew=1.1, universe=3000, seed=5)]
    ingested = set(keys)
    failures: list[str] = []
    done = threading.Event()

    def writer():
        for start in range(0, len(keys), 100):
            service.ingest(keys[start : start + 100])
        done.set()

    def reader():
        while True:
            finished = done.is_set()
            ranking, epoch_id = service.serve_top_k(20)
            with reference_lock:
                reference = references[epoch_id]
            ranked = [key for key, _ in ranking]
            estimates = [estimate for _, estimate in ranking]
            if not set(ranked) <= ingested or len(set(ranked)) != len(ranked):
                failures.append(f"ranking at epoch {epoch_id} names unknown or repeated keys")
            elif estimates != reference.query_batch(ranked).tolist():
                failures.append(f"ranking at epoch {epoch_id} has torn estimates")
            elif estimates != sorted(estimates, reverse=True):
                failures.append(f"ranking at epoch {epoch_id} is out of order")
            if failures or finished:
                break

    _run_concurrently(
        [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(4)]
    )
    assert not failures, failures
    assert service.key_directory.keys() == list(dict.fromkeys(keys))


def _run_concurrently(threads: list[threading.Thread]) -> None:
    """Start and join ``threads`` under a 10 µs GIL switch interval.

    At the default 5 ms the spinning readers starve the writer for tens of
    seconds: each time it gives the GIL up it waits a whole interval to get
    it back.  The short interval also interleaves the threads more often.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _chain(*callbacks):
    def chained(epoch):
        for callback in callbacks:
            callback(epoch)

    return chained
