"""Vectorized hashing: bit-identity with the scalar murmur, batch mechanics."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.hashing import (
    EncodedKeyBatch,
    HashFamily,
    encode_keys,
    key_to_bytes,
    murmur3_32,
    murmur3_32_fixed_batch,
)


def mixed_keys(seed: int, count: int = 400) -> list[object]:
    rng = random.Random(seed)
    keys: list[object] = []
    for _ in range(count):
        choice = rng.random()
        if choice < 0.4:
            keys.append(rng.randrange(0, 2**31))
        elif choice < 0.6:
            keys.append(rng.randrange(2**31, 2**62))
        elif choice < 0.7:
            keys.append(-rng.randrange(1, 2**30))
        elif choice < 0.85:
            keys.append("key-%d" % rng.randrange(10**6))
        else:
            keys.append(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 9))))
    return keys


class TestMurmurBatchKernel:
    @pytest.mark.parametrize("length", list(range(0, 13)))
    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF])
    def test_bit_identical_to_scalar_for_every_length(self, length, seed):
        rng = random.Random(length * 1000 + seed)
        rows = [bytes(rng.randrange(256) for _ in range(length)) for _ in range(64)]
        matrix = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(64, length)
        batch_hashes = murmur3_32_fixed_batch(matrix, seed)
        assert batch_hashes.dtype == np.uint32
        assert batch_hashes.tolist() == [murmur3_32(row, seed) for row in rows]

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            murmur3_32_fixed_batch(np.zeros(8, dtype=np.uint8), 0)


class TestEncodedKeyBatch:
    def test_encodings_match_key_to_bytes(self):
        keys = mixed_keys(1)
        batch = EncodedKeyBatch(keys)
        assert batch.encoded == [key_to_bytes(key) for key in keys]
        assert encode_keys(keys) == batch.encoded

    def test_int_fast_path_matches_generic_encoding(self):
        keys = [0, 1, 2**31 - 1, 12345]
        fast = EncodedKeyBatch(keys)  # stays on the vectorized int path
        HashFamily(0).draw(8).index_batch(fast.take([3, 0]))
        assert fast._groups is None  # int batches hash with no byte matrix
        groups = fast.groups
        assert len(groups) == 1
        positions, matrix = groups[0]
        assert matrix.shape == (len(keys), 4)
        rebuilt = [matrix[row].tobytes() for row in positions.argsort()]
        # positions are 0..n-1 in order on the fast path
        assert positions.tolist() == list(range(len(keys)))
        assert rebuilt == [key_to_bytes(key) for key in keys]

    def test_take_preserves_keys_and_hashes(self):
        keys = mixed_keys(2)
        batch = EncodedKeyBatch(keys)
        fn = HashFamily(3).draw(101)
        full = fn.raw_batch(batch)
        sub = batch.take([0, 5, 17, 399])
        assert sub.keys == [keys[0], keys[5], keys[17], keys[399]]
        assert fn.raw_batch(sub).tolist() == [int(full[i]) for i in (0, 5, 17, 399)]

    def test_numpy_array_input(self):
        array = np.arange(100, dtype=np.int64)
        batch = EncodedKeyBatch(array)
        assert batch.keys == list(range(100))
        fn = HashFamily(0).draw(64)
        assert fn.index_batch(batch).tolist() == [
            murmur3_32(key_to_bytes(int(k)), fn.seed) % 64 for k in array
        ]

    def test_empty_batch(self):
        batch = EncodedKeyBatch([])
        fn = HashFamily(0).draw(8)
        assert fn.raw_batch(batch).tolist() == []
        assert fn.index_batch(batch).tolist() == []


class TestBatchHashFunctions:
    def test_raw_and_index_match_scalar(self):
        keys = mixed_keys(3)
        batch = EncodedKeyBatch(keys)
        family = HashFamily(7)
        fn = family.draw(997)
        assert fn.raw_batch(batch).tolist() == [
            murmur3_32(key_to_bytes(key), fn.seed) for key in keys
        ]
        fresh = HashFamily(7).draw(997)  # same seed, untouched counter
        assert fn.index_batch(batch).tolist() == [fresh(key) for key in keys]

    def test_sign_batch_matches_scalar(self):
        keys = mixed_keys(4)
        batch = EncodedKeyBatch(keys)
        sign_a = HashFamily(9).draw_sign()
        sign_b = HashFamily(9).draw_sign()
        batch_signs = sign_a.sign_batch(batch)
        assert set(batch_signs.tolist()) <= {-1, 1}
        assert batch_signs.tolist() == [sign_b(key) for key in keys]

    def test_call_counter_advances_by_batch_size(self):
        keys = mixed_keys(5, count=123)
        batch = EncodedKeyBatch(keys)
        fn = HashFamily(1).draw(10)
        fn.raw_batch(batch)
        assert fn.calls == 123
        fn.index_batch(batch)
        assert fn.calls == 246

    def test_raw_batch_without_width(self):
        fn = HashFamily(2).draw()  # width=None: raw values pass through
        batch = EncodedKeyBatch([1, 2, 3])
        assert fn.index_batch(batch).tolist() == fn.raw_batch(batch).tolist()
