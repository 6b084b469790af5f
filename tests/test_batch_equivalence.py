"""Batch/scalar equivalence: the core contract of the batch-first datapath.

For every sketch with a vectorized ``insert_batch`` / ``query_batch``
(ReliableSketch with and without mice filter, CM, CU, Count, Elastic,
Coco, HashPipe, PRECISION) and for the default fallback loop, feeding the same stream through the batch API in any
chunking must leave the sketch in a state indistinguishable from the scalar
loop: identical estimates for every key (present or absent), identical
hash-call accounting, and — for ReliableSketch — identical failure and
per-layer settling statistics.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ReliableSketch
from repro.kernels import BACKEND_NAMES, use_backend
from repro.sketches.cm import CountMinSketch
from repro.sketches.coco import CocoSketch
from repro.sketches.count import CountSketch
from repro.sketches.cu import CUSketch
from repro.sketches.elastic import ElasticSketch
from repro.sketches.hashpipe import HashPipe
from repro.sketches.precision import Precision
from repro.sketches.sharded import ShardedSketch
from repro.sketches.spacesaving import SpaceSaving
from repro.streams import Stream, zipf_stream


@pytest.fixture(params=BACKEND_NAMES)
def kernel_backend(request):
    """Run a test under each available update-kernel backend.

    The order-dependent sketches (CU, ReliableSketch, Elastic) bind a
    kernel at construction; the equivalence contract must hold for every
    backend, not just the default.
    """
    with use_backend(request.param):
        yield request.param


def random_stream(seed: int, count: int = 1500, universe: int = 400) -> Stream:
    """A weighted random stream mixing int and string keys."""
    rng = random.Random(seed)
    items = []
    for _ in range(count):
        key: object = rng.randrange(universe)
        if rng.random() < 0.15:
            key = f"flow-{rng.randrange(universe // 4)}"
        items.append((key, rng.randrange(1, 6)))
    return Stream(items, name=f"random-{seed}")


BUILDERS = {
    "Ours": lambda seed: ReliableSketch.from_memory(2048, tolerance=25, seed=seed),
    "Ours(Raw)": lambda seed: ReliableSketch.from_memory(
        2048, tolerance=25, seed=seed, use_mice_filter=False
    ),
    "Ours(emergency)": lambda seed: ReliableSketch.from_memory(
        1024, tolerance=10, seed=seed, use_emergency=True
    ),
    "CM": lambda seed: CountMinSketch(4096, depth=3, seed=seed),
    "CU": lambda seed: CUSketch(4096, depth=3, seed=seed),
    "Count": lambda seed: CountSketch(4096, depth=3, seed=seed),
    # Elastic vectorizes the heavy-part hash only; the bucket state machine
    # replays in stream order (order-dependent evictions).
    "Elastic": lambda seed: ElasticSketch(2048, seed=seed),
    # SpaceSaving has no vectorized override: exercises the base fallback.
    "SS": lambda seed: SpaceSaving(2048),
    # Pipeline competitors on the kernel subsystem: probabilistic
    # replacement, eviction walks and probabilistic recirculation — all
    # order-dependent, all bound to the active kernel backend.
    "Coco": lambda seed: CocoSketch(2048, seed=seed),
    "HashPipe": lambda seed: HashPipe(2048, seed=seed),
    "PRECISION": lambda seed: Precision(2048, seed=seed),
    # The sharded wrapper must itself honour the equivalence contract,
    # including its partition-hash accounting.
    "Sharded(CM)": lambda seed: ShardedSketch.from_registry(
        "CM_fast", 4096, shards=3, seed=seed
    ),
}

# Chunk size 1 degenerates to the scalar loop through the batch machinery;
# the last entry exceeds every test stream (single-chunk case).
CHUNK_SIZES = [1, 7, 256, 10_000]


def fill_scalar(sketch, stream):
    for key, value in stream:
        sketch.insert(key, value)


def fill_batched(sketch, stream, chunk_size):
    for chunk in stream.iter_batches(chunk_size):
        sketch.insert_batch(
            [item.key for item in chunk], [item.value for item in chunk]
        )


def query_keys(stream):
    """All present keys plus keys the stream never saw."""
    return stream.keys() + [10**9 + i for i in range(25)] + ["absent", b"absent"]


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("stream_seed,sketch_seed", [(1, 0), (2, 9)])
def test_insert_and_query_batch_match_scalar(
    name, chunk_size, stream_seed, sketch_seed, kernel_backend
):
    stream = random_stream(stream_seed)
    scalar = BUILDERS[name](sketch_seed)
    batched = BUILDERS[name](sketch_seed)

    fill_scalar(scalar, stream)
    fill_batched(batched, stream, chunk_size)
    assert scalar.hash_calls() == batched.hash_calls(), "insert hash accounting"

    keys = query_keys(stream)
    scalar_estimates = [int(scalar.query(key)) for key in keys]
    batched_estimates = batched.query_batch(keys).tolist()
    assert scalar_estimates == batched_estimates
    assert scalar.hash_calls() == batched.hash_calls(), "query hash accounting"


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("use_filter", [True, False])
def test_reliable_sketch_statistics_match(chunk_size, use_filter, kernel_backend):
    stream = zipf_stream(3000, skew=1.2, universe=500, seed=11)
    build = lambda: ReliableSketch.from_memory(
        1024, tolerance=10, seed=4, use_mice_filter=use_filter
    )
    scalar, batched = build(), build()
    fill_scalar(scalar, stream)
    fill_batched(batched, stream, chunk_size)

    assert scalar.insert_failures == batched.insert_failures
    assert scalar.failed_value == batched.failed_value
    assert scalar.inserts_settled_per_layer == batched.inserts_settled_per_layer
    assert (scalar.state_snapshot()["stats"] == batched.state_snapshot()["stats"]).all()
    assert scalar.layer_occupancy() == batched.layer_occupancy()
    assert scalar.locked_buckets() == batched.locked_buckets()


def test_mixed_key_types_in_one_batch():
    keys = [1, "one", b"one", 2**40, -5, 0]
    scalar = CountMinSketch(1024, depth=3, seed=1)
    batched = CountMinSketch(1024, depth=3, seed=1)
    for key in keys:
        scalar.insert(key, 3)
    batched.insert_batch(keys, 3)
    assert [scalar.query(key) for key in keys] == batched.query_batch(keys).tolist()


def test_insert_batch_default_and_scalar_values():
    for values in (None, 2):
        scalar = CUSketch(1024, depth=3, seed=1)
        batched = CUSketch(1024, depth=3, seed=1)
        keys = [i % 17 for i in range(200)]
        for key in keys:
            scalar.insert(key, 1 if values is None else values)
        batched.insert_batch(keys, values)
        assert [scalar.query(k) for k in range(17)] == batched.query_batch(list(range(17))).tolist()


def test_insert_batch_rejects_non_positive_values():
    for sketch in (
        CountMinSketch(1024, seed=0),
        CUSketch(1024, seed=0),
        CountSketch(1024, seed=0),
        ReliableSketch.from_memory(1024, tolerance=25, seed=0),
    ):
        with pytest.raises(ValueError):
            sketch.insert_batch([1, 2, 3], [1, 0, 1])


def test_insert_batch_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        CountMinSketch(1024, seed=0).insert_batch([1, 2, 3], [1, 2])
    # The default fallback loop must enforce the same contract instead of
    # silently zip-truncating (regression).
    with pytest.raises(ValueError):
        SpaceSaving(2048).insert_batch([1, 2, 3], [1, 2])


@pytest.mark.parametrize("depth", [3, 4])
def test_count_sketch_query_batch_exact_beyond_float53(depth):
    # Regression: np.median went through float64 and rounded estimates
    # above 2^53; the integer median must stay bit-identical to the scalar
    # statistics.median path.
    huge = 2**55 + 3
    scalar = CountSketch(4096, depth=depth, seed=2)
    batched = CountSketch(4096, depth=depth, seed=2)
    scalar.insert(7, huge)
    batched.insert_batch([7], [huge])
    assert scalar.query(7) == batched.query_batch([7])[0]
    assert batched.query_batch([7])[0] > 2**53  # the value actually exercises the range


def test_insert_stream_batched_equals_scalar():
    stream = random_stream(5, count=800)
    scalar = ReliableSketch.from_memory(1024, tolerance=25, seed=3)
    batched = ReliableSketch.from_memory(1024, tolerance=25, seed=3)
    scalar.insert_stream(stream)
    batched.insert_stream(stream, batch_size=64)
    keys = query_keys(stream)
    assert [scalar.query(k) for k in keys] == batched.query_batch(keys).tolist()
