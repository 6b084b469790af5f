"""The batch murmur split at the seed, against the scalar ``murmur3_32``.

A batch mixes its keys' blocks once and every hash function finishes them
per seed.  Int batches hash from the two halves of their zigzag codes,
with one pass for every encoded length; other batches mix one matrix per
length group.  Every source of a batch (lists, ndarrays, both wire key
modes, sub-batches of sub-batches) must hash like the scalar reference
for every seed, and hash-call accounting must not move.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.distributed.wire import decode_batch, encode_batch
from repro.experiments.speed import hash_call_profile
from repro.hashing import EncodedKeyBatch, HashFamily, HashFunction, key_to_bytes, murmur3_32
from repro.hashing.murmur import mix_key_matrix, murmur3_32_fixed_batch, murmur3_finish

SEEDS = tuple(HashFamily(master).draw().seed for master in range(12)) + (0, 0xFFFFFFFF)


def key_of_code(code: int) -> int:
    """The int key whose zigzag code is ``code``."""
    return -(code >> 1) if code & 1 else code >> 1


#: Codes on both sides of every encoded-length boundary, and the extremes.
BOUNDARY_CODES = sorted(
    {bound + delta for bound in (2**32 - 1, 2**32, 2**40, 2**48, 2**56) for delta in (-1, 0, 1)}
    | {2, 3, 2**64 - 2, 2**64 - 1}
)
BOUNDARY_KEYS = [key_of_code(code) for code in BOUNDARY_CODES]


def reference(keys, seed: int) -> list[int]:
    return [murmur3_32(key_to_bytes(key), seed) for key in keys]


def assert_hashes(batch: EncodedKeyBatch, keys) -> None:
    for seed in SEEDS:
        assert HashFunction(seed).raw_batch(batch).tolist() == reference(keys, seed)


def test_boundary_keys_span_every_int_length():
    assert BOUNDARY_KEYS[-2:] == [2**63 - 1, -(2**63 - 1)]
    assert {len(key_to_bytes(key)) for key in BOUNDARY_KEYS} == {4, 5, 6, 7, 8}
    assert any(key < 0 for key in BOUNDARY_KEYS)


@pytest.mark.parametrize("length", range(17))
def test_str_and_bytes_keys_of_every_length(length):
    rng = random.Random(length)
    raw = [bytes(rng.randrange(256) for _ in range(length)) for _ in range(24)]
    text = ["".join(chr(rng.randrange(97, 123)) for _ in range(length)) for _ in range(24)]
    for keys in (raw, text, raw + text):
        assert_hashes(EncodedKeyBatch(keys), keys)


def test_fixed_batch_kernel_is_mix_then_finish():
    rng = random.Random(7)
    for length in range(17):
        matrix = np.frombuffer(rng.randbytes(9 * length), dtype=np.uint8).reshape(9, length)
        mixed = mix_key_matrix(matrix)
        assert mixed.shape == (-(-length // 4), 9)
        for seed in SEEDS:
            assert murmur3_finish(mixed, length, seed).tolist() == (
                murmur3_32_fixed_batch(matrix, seed).tolist()
            )


@pytest.mark.parametrize("keys", [
    BOUNDARY_KEYS,
    [-key for key in BOUNDARY_KEYS],
    [0, 1, 2**31 - 1],
    [-1, -(2**31), 5],
    [2**62 + 3, 2**62, 2**47, 2**62 + 7, 9],
])
def test_int_keys_from_every_source(keys):
    batch = EncodedKeyBatch(keys)
    assert batch.int64_keys is not None
    assert_hashes(batch, keys)
    assert_hashes(EncodedKeyBatch(np.asarray(keys, dtype=np.int64)), keys)
    decoded, _ = decode_batch(encode_batch(keys))
    assert decoded.int64_keys is not None
    assert_hashes(decoded, keys)
    # A sub-batch of a sub-batch slices the mixed halves twice.
    outer = np.arange(len(keys))[::-1]
    inner = np.arange(0, len(keys), 2)
    nested = batch.take(outer).take(inner)
    assert_hashes(nested, [keys[outer[i]] for i in inner])
    assert list(nested.keys) == [keys[outer[i]] for i in inner]


def test_int32_wire_block_hashes_like_the_keys():
    keys = [0, 7, 2**31 - 1, 12345, 7]
    payload = encode_batch(keys)
    assert payload[4] == 0  # the uint32 key mode
    decoded, _ = decode_batch(payload)
    assert_hashes(decoded, keys)
    assert_hashes(decoded.take([4, 0, 2]).take([2, 0]), [2**31 - 1, 7])


def test_mixed_batches_and_their_sub_batches():
    rng = random.Random(3)
    keys = [
        rng.choice((rng.randrange(2**63), -rng.randrange(2**40), f"k{rng.randrange(99)}",
                    rng.randbytes(rng.randrange(9)), -(2**63), 2**70))
        for _ in range(300)
    ]
    batch = EncodedKeyBatch(keys)
    assert batch.int64_keys is None
    assert_hashes(batch, keys)
    positions = np.flatnonzero(np.arange(300) % 3 != 1)
    sub = batch.take(positions)
    assert_hashes(sub, [keys[i] for i in positions])
    assert_hashes(sub.take([5, 0, 5]), [keys[positions[5]], keys[0], keys[positions[5]]])


def test_empty_batches():
    for keys in ([], np.zeros(0, dtype=np.int64), ["a"], [2**40]):
        batch = EncodedKeyBatch(keys).take([]) if len(keys) else EncodedKeyBatch(keys)
        fn = HashFunction(SEEDS[0], width=13)
        assert fn.raw_batch(batch).tolist() == []
        assert fn.index_batch(batch).tolist() == []
        assert fn.calls == 0


def test_index_batch_reduces_to_int64_for_every_width():
    keys = BOUNDARY_KEYS + [0, 1, 2**31 - 1]
    batch = EncodedKeyBatch(keys)
    for width in (1, 3, 1000, 2**31 + 11, 2**32 - 1, 2**32, 2**40, None):
        fn = HashFunction(SEEDS[1], width=width)
        indexes = fn.index_batch(batch)
        assert indexes.dtype == np.int64
        assert indexes.tolist() == [HashFunction(SEEDS[1], width=width)(key) for key in keys]


def test_calls_advance_by_the_batch_size():
    fn = HashFunction(SEEDS[2], width=64)
    batch = EncodedKeyBatch(BOUNDARY_KEYS)
    fn.raw_batch(batch)
    fn.index_batch(batch.take([0, 1, 2]))
    fn.index_batch(EncodedKeyBatch(["x", b"y"]))
    assert fn.calls == len(BOUNDARY_KEYS) + 3 + 2


def test_figure16_hash_call_counts_are_unchanged():
    """Exact hash-call totals of Figure 16 on 10,000 ``ip`` items and 400 distinct keys."""
    curves = {
        curve.algorithm: curve
        for curve in hash_call_profile(
            dataset_name="ip", scale=0.001, memory_points=[2048, 8192, 32768], seed=1
        )
    }
    expected = {
        "Ours": ([29697, 29131, 29073], [1395, 1221, 1202]),
        "Ours(Raw)": ([10630, 10219, 10123], [606, 431, 410]),
        "CM_fast": ([30000] * 3, [1200] * 3),
    }
    for name, (inserts, queries) in expected.items():
        assert [round(v * 10_000) for v in curves[name].insert_calls] == inserts
        assert [round(v * 400) for v in curves[name].query_calls] == queries
