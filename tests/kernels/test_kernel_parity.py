"""Kernel-parity matrix: every backend × every ported family × adversarial streams.

The conflict-free update kernels (:mod:`repro.kernels`) must be
*bit-identical* to replaying the same items one by one through the scalar
``insert`` path — state, statistics and hash-call accounting included.
This file pins that for each available backend against purpose-built
adversarial streams: every key hashing into a single bucket (width-1
sketches), two hot keys alternating at one cell (the worst case for the
round scheduler), single-key floods (the worst case for chain relaxation),
lock-heavy ReliableSketch layers, eviction-heavy Elastic buckets, mixed
key types and huge values (the fixpoint's overflow fallback).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReliableSketch
from repro.core.config import LayerSpec, ReliableConfig
from repro.kernels import BACKEND_NAMES, EMPTY_ID, use_backend
from repro.sketches.base import UnmergeableSketchError
from repro.sketches.coco import CocoSketch
from repro.sketches.cu import CUSketch
from repro.sketches.elastic import ElasticSketch
from repro.sketches.hashpipe import HashPipe
from repro.sketches.precision import Precision
from repro.streams import Stream, zipf_stream

BACKENDS = BACKEND_NAMES


def _width1_reliable(seed: int) -> ReliableSketch:
    """A ReliableSketch whose every layer has exactly one bucket."""
    config = ReliableConfig(
        layers=(LayerSpec(1, 1, 9), LayerSpec(2, 1, 4), LayerSpec(3, 1, 0)),
        tolerance=13.0,
        r_w=2.0,
        r_lambda=2.0,
        mice_filter_fraction=0.0,
        mice_filter_bits=2,
        mice_filter_arrays=2,
        mice_filter_bytes=0.0,
    )
    assert all(layer.width == 1 for layer in config.layers)
    return ReliableSketch(config, seed=seed)


BUILDERS = {
    "CU": lambda seed: CUSketch(2048, depth=3, seed=seed),
    # entries_for(1 byte) == 0 counters -> every row collapses to width 1:
    # all keys collide on the single cell of every row.
    "CU(width1)": lambda seed: CUSketch(1, depth=3, seed=seed),
    "Ours": lambda seed: ReliableSketch.from_memory(2048, tolerance=10, seed=seed),
    "Ours(Raw)": lambda seed: ReliableSketch.from_memory(
        2048, tolerance=10, seed=seed, use_mice_filter=False
    ),
    "Ours(width1)": _width1_reliable,
    "Elastic": lambda seed: ElasticSketch(2048, eviction_ratio=2, seed=seed),
    # heavy_width == light_width == 1 with eviction on every other arrival.
    "Elastic(width1)": lambda seed: ElasticSketch(8, eviction_ratio=1, seed=seed),
    # Pipeline competitors: probabilistic replacement (Coco), eviction walks
    # (HashPipe) and probabilistic recirculation (PRECISION).  The width-1
    # variants force every key onto one cell per stage — maximal carry
    # chains and replacement churn.
    "Coco": lambda seed: CocoSketch(2048, seed=seed),
    "Coco(width1)": lambda seed: CocoSketch(1, seed=seed),
    "HashPipe": lambda seed: HashPipe(2048, seed=seed),
    "HashPipe(width1)": lambda seed: HashPipe(1, seed=seed),
    "PRECISION": lambda seed: Precision(2048, seed=seed),
    "PRECISION(width1)": lambda seed: Precision(1, seed=seed),
}

#: The three pipeline families share the struct-of-arrays layout below.
PIPELINE_FAMILIES = ("Coco", "HashPipe", "PRECISION")


def _mixed_stream(seed: int, count: int = 3000) -> list[tuple[object, int]]:
    rng = random.Random(seed)
    items: list[tuple[object, int]] = []
    for _ in range(count):
        key: object = rng.randrange(250)
        roll = rng.random()
        if roll < 0.1:
            key = f"flow-{rng.randrange(40)}"
        elif roll < 0.15:
            key = str(key).encode()
        items.append((key, rng.randrange(1, 7)))
    return items


STREAMS = {
    "zipf": lambda: [(item.key, item.value) for item in zipf_stream(3000, skew=1.3, universe=400, seed=9)],
    "single-key-flood": lambda: [(7, 1 + (i % 3)) for i in range(2000)],
    "two-key-alternating": lambda: [(i % 2, 1) for i in range(2000)],
    "mixed-types": lambda: _mixed_stream(21),
    "mice-swarm": lambda: [(i, 1) for i in range(2000)],
}

CHUNK_SIZES = (64, 1024, 10_000)


def _fill_scalar(sketch, items):
    for key, value in items:
        sketch.insert(key, value)


def _fill_batched(sketch, items, chunk_size):
    for start in range(0, len(items), chunk_size):
        chunk = items[start:start + chunk_size]
        sketch.insert_batch([k for k, _ in chunk], [v for _, v in chunk])


def _query_keys(items):
    seen = list(dict.fromkeys(key for key, _ in items))
    return seen + ["never-seen", b"never-seen", 10**9, -3]


def _resident(sketch, key_ids):
    """The key each slot holds (``None`` if empty), resolved through the interner.

    Ids are interner-relative, keys are not: comparing resolved keys with
    the counters pins the full bucket contents of two differently-filled
    sketches.
    """
    key_of = sketch._interner.key_of
    return [
        None if item_id == EMPTY_ID else key_of(item_id)
        for item_id in key_ids.ravel().tolist()
    ]


def _assert_same_state(reference, candidate, items, context):
    keys = _query_keys(items)
    expected = [int(reference.query(key)) for key in keys]
    actual = candidate.query_batch(keys).tolist()
    assert expected == actual, context
    assert reference.hash_calls() == candidate.hash_calls(), context
    if isinstance(reference, ReliableSketch):
        assert reference.insert_failures == candidate.insert_failures, context
        assert reference.failed_value == candidate.failed_value, context
        assert (
            reference.inserts_settled_per_layer == candidate.inserts_settled_per_layer
        ), context
        for ref_layer, cand_layer in zip(reference._layers, candidate._layers):
            assert _resident(reference, ref_layer.key_ids) == _resident(
                candidate, cand_layer.key_ids
            ), context
            assert (ref_layer.yes == cand_layer.yes).all(), context
            assert (ref_layer.no == cand_layer.no).all(), context
    if isinstance(reference, ElasticSketch):
        assert _resident(reference, reference._heavy_ids) == _resident(
            candidate, candidate._heavy_ids
        ), context
        assert (reference._heavy_positive == candidate._heavy_positive).all(), context
        assert (reference._heavy_negative == candidate._heavy_negative).all(), context
        assert (reference._heavy_flags == candidate._heavy_flags).all(), context
        assert (reference._light == candidate._light).all(), context
    if isinstance(reference, CUSketch):
        snapshot = reference.state_snapshot()["tables"]
        assert (snapshot == candidate.state_snapshot()["tables"]).all(), context
    if isinstance(reference, (CocoSketch, HashPipe, Precision)):
        # Struct-of-arrays state: counters and the resident keys pin the
        # full bucket contents.
        assert (reference._counts == candidate._counts).all(), context
        assert _resident(reference, reference._key_ids) == _resident(
            candidate, candidate._key_ids
        ), context
    if isinstance(reference, Precision):
        assert reference.recirculations == candidate.recirculations, context


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", sorted(BUILDERS))
@pytest.mark.parametrize("stream_name", sorted(STREAMS))
def test_kernel_matches_scalar_replay(backend, family, stream_name):
    items = STREAMS[stream_name]()
    for chunk_size in CHUNK_SIZES:
        reference = BUILDERS[family](seed=3)
        _fill_scalar(reference, items)
        with use_backend(backend):
            candidate = BUILDERS[family](seed=3)
        _fill_batched(candidate, items, chunk_size)
        _assert_same_state(
            reference, candidate, items,
            context=(backend, family, stream_name, chunk_size),
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_huge_values_stay_bit_identical(backend):
    # Counter chains far beyond float53 must stay exact (all-int kernels).
    items = [(i % 5, 2**54 + i) for i in range(150)]
    reference = CUSketch(1, depth=3, seed=1)
    _fill_scalar(reference, items)
    with use_backend(backend):
        candidate = CUSketch(1, depth=3, seed=1)
    _fill_batched(candidate, items, 150)
    _assert_same_state(reference, candidate, items, context=backend)


def test_fixpoint_fallback_is_bit_identical(monkeypatch):
    # With zero relaxation passes allowed, the numpy backend must take its
    # per-item fallback and still match scalar replay exactly.
    from repro.kernels import numpy_backend

    monkeypatch.setattr(numpy_backend, "_MAX_FIXPOINT_PASSES", 0)
    items = STREAMS["zipf"]()
    for family in ("CU", "Ours"):
        reference = BUILDERS[family](seed=6)
        _fill_scalar(reference, items)
        with use_backend("numpy-grouped"):
            candidate = BUILDERS[family](seed=6)
        _fill_batched(candidate, items, 512)
        _assert_same_state(reference, candidate, items, context=family)


@pytest.mark.parametrize("tail", [0, 10**9])
def test_scalar_tail_threshold_extremes_stay_bit_identical(monkeypatch, tail):
    # _SCALAR_TAIL=0 keeps every round in closed form; a huge threshold
    # replays the whole batch per item.  Both ends must agree with scalar.
    from repro.kernels import numpy_backend

    monkeypatch.setattr(numpy_backend, "_SCALAR_TAIL", tail)
    items = STREAMS["zipf"]()
    for family in ("Ours(Raw)", "Elastic"):
        reference = BUILDERS[family](seed=8)
        _fill_scalar(reference, items)
        with use_backend("numpy-grouped"):
            candidate = BUILDERS[family](seed=8)
        _fill_batched(candidate, items, 512)
        _assert_same_state(reference, candidate, items, context=(family, tail))


@pytest.mark.parametrize("tail", [0, 10**9])
def test_pipeline_tail_threshold_extremes_stay_bit_identical(monkeypatch, tail):
    # Tail thresholds of the pipeline kernels: 0 keeps every round on the
    # vectorized path; a huge threshold replays everything per item.  Both
    # ends must agree with scalar replay bit for bit.
    from repro.kernels import numpy_backend

    monkeypatch.setattr(numpy_backend, "_COCO_TAIL", tail)
    monkeypatch.setattr(numpy_backend, "_PRECISION_TAIL", tail)
    monkeypatch.setattr(numpy_backend, "_HASHPIPE_TAIL", tail)
    items = STREAMS["zipf"]()
    for family in PIPELINE_FAMILIES:
        reference = BUILDERS[family](seed=11)
        _fill_scalar(reference, items)
        with use_backend("numpy-grouped"):
            candidate = BUILDERS[family](seed=11)
        _fill_batched(candidate, items, 512)
        _assert_same_state(reference, candidate, items, context=(family, tail))


def test_pipeline_subchunk_recursion_stays_bit_identical(monkeypatch):
    # A tiny sub-chunk bound forces the conflict-splitting recursion of the
    # Coco/PRECISION engines on every batch; state must not drift.
    from repro.kernels import numpy_backend

    monkeypatch.setattr(numpy_backend, "_COCO_CHUNK", 17)
    monkeypatch.setattr(numpy_backend, "_PRECISION_CHUNK", 17)
    items = STREAMS["zipf"]()
    for family in ("Coco", "PRECISION"):
        reference = BUILDERS[family](seed=12)
        _fill_scalar(reference, items)
        with use_backend("numpy-grouped"):
            candidate = BUILDERS[family](seed=12)
        _fill_batched(candidate, items, 2048)
        _assert_same_state(reference, candidate, items, context=family)


@pytest.mark.parametrize("family", sorted(PIPELINE_FAMILIES))
def test_pipeline_merge_is_refused(family):
    # None of the pipeline competitors defines a lossless merge; the base
    # contract must refuse loudly rather than combine states incorrectly.
    first = BUILDERS[family](seed=3)
    second = BUILDERS[family](seed=3)
    first.insert(1, 2)
    second.insert(2, 3)
    with pytest.raises(UnmergeableSketchError):
        first.merge(second)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", sorted(PIPELINE_FAMILIES))
def test_pipeline_snapshot_roundtrip_continues_identically(backend, family):
    # Snapshot mid-stream, restore into a fresh sketch, finish the stream
    # batched: the result must equal one uninterrupted scalar fill.  Coco
    # and PRECISION snapshots carry the RNG draw counter, so the resumed
    # stream consumes the same replacement draws at the same positions.
    items = _mixed_stream(17)
    head, rest = items[:1700], items[1700:]
    reference = BUILDERS[family](seed=4)
    _fill_scalar(reference, items)
    with use_backend(backend):
        donor = BUILDERS[family](seed=4)
        resumed = BUILDERS[family](seed=4)
    _fill_batched(donor, head, 256)
    resumed.state_restore(donor.state_snapshot())
    _fill_batched(resumed, rest, 256)
    keys = _query_keys(items)
    expected = [int(reference.query(key)) for key in keys]
    assert expected == resumed.query_batch(keys).tolist(), (backend, family)
    assert (reference._counts == resumed._counts).all(), (backend, family)
    assert _resident(reference, reference._key_ids) == _resident(
        resumed, resumed._key_ids
    ), (backend, family)
    if isinstance(reference, Precision):
        assert reference.recirculations == resumed.recirculations, backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_lock_heavy_layers_push_survivors_identically(backend):
    # A narrow, shallow sketch under a flood locks buckets and overflows
    # items off the last layer: failure accounting must match exactly.
    items = [(key, 1) for key in [0, 1] * 600 + list(range(50)) * 4]
    reference = _width1_reliable(seed=2)
    _fill_scalar(reference, items)
    with use_backend(backend):
        candidate = _width1_reliable(seed=2)
    _fill_batched(candidate, items, 128)
    assert reference.insert_failures > 0  # the scenario actually overflows
    _assert_same_state(reference, candidate, items, context=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=9)),
        min_size=1,
        max_size=300,
    ),
    chunk_size=st.integers(min_value=1, max_value=64),
)
def test_property_random_streams_bit_identical(backend, data, chunk_size):
    for build in (
        lambda: CUSketch(64, depth=2, seed=5),
        lambda: ReliableSketch.from_memory(512, tolerance=5, seed=5),
        lambda: ElasticSketch(64, eviction_ratio=2, seed=5),
    ):
        reference = build()
        _fill_scalar(reference, data)
        with use_backend(backend):
            candidate = build()
        _fill_batched(candidate, data, chunk_size)
        keys = _query_keys(data)
        assert [int(reference.query(k)) for k in keys] == candidate.query_batch(keys).tolist()
        assert reference.hash_calls() == candidate.hash_calls()


def test_sharded_and_stream_fill_reach_kernels():
    # The kernels sit under ShardedSketch routing and insert_stream chunking
    # untouched: results equal the scalar fill of the same stream.
    from repro.sketches.sharded import ShardedSketch

    stream = Stream(_mixed_stream(4, count=1500), name="mixed")
    scalar = ShardedSketch.from_registry("CU_fast", 2048, shards=3, seed=1)
    for key, value in stream:
        scalar.insert(key, value)
    batched = ShardedSketch.from_registry("CU_fast", 2048, shards=3, seed=1)
    batched.insert_stream(stream, batch_size=256)
    keys = stream.keys()
    assert [int(scalar.query(k)) for k in keys] == batched.query_batch(keys).tolist()
