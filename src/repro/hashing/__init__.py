"""Hashing substrate used by every sketch in this repository.

The paper's C++ implementation uses 32-bit MurmurHash3 for all index hashing.
We provide a faithful pure-Python MurmurHash3 (x86, 32-bit) implementation plus
convenience wrappers that turn a seed into an independent hash function family,
as required by multi-array sketches (CM, CU, Count, ...) and by the per-layer
hash functions of ReliableSketch.

The batch datapath hashes whole arrays of keys at once: encode a batch once
with :class:`EncodedKeyBatch`, which also mixes its keys' MurmurHash3
blocks once (the seed-independent half of the hash), then feed it to
``HashFunction.raw_batch`` / ``index_batch`` (or
``SignHashFunction.sign_batch``), which finish the hash per seed and
produce bit-identical results to the scalar calls.
:func:`murmur3_32_fixed_batch` is both halves composed over one matrix of
same-length keys.
"""

from repro.hashing.murmur import murmur3_32, murmur3_32_fixed_batch
from repro.hashing.families import (
    EncodedKeyBatch,
    HashFamily,
    HashFunction,
    SignHashFunction,
    encode_keys,
    key_to_bytes,
)

__all__ = [
    "murmur3_32",
    "murmur3_32_fixed_batch",
    "EncodedKeyBatch",
    "HashFamily",
    "HashFunction",
    "SignHashFunction",
    "encode_keys",
    "key_to_bytes",
]
