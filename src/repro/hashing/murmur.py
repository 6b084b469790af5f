"""MurmurHash3 (x86, 32-bit): scalar reference and vectorized batch kernel.

This mirrors the reference implementation used by the paper's C++ code.  The
function is deterministic across runs and platforms, which matters because the
experiments in the paper (notably Figure 7) repeat runs with different seeds
and report worst-case behaviour — reproducibility requires a stable hash.

Entry points:

* :func:`murmur3_32` — the scalar reference, one key at a time;
* :func:`murmur3_32_fixed_batch` — the same function evaluated over a
  ``(n, length)`` matrix of same-length keys with NumPy ``uint32``
  arithmetic, bit-identical to the scalar path (enforced by
  ``tests/hashing/test_batch_hashing.py``).  It is the composition of the
  two halves the batch datapath uses: :func:`mix_key_matrix`, the
  seed-independent block mix a key batch computes once, and
  :func:`murmur3_finish`, the per-seed rest.  :func:`murmur3_mix_int` and
  :func:`murmur3_finish_int` are the same split for keys of 4 to 8 bytes,
  computed from the two 32-bit halves of their 64-bit words in one pass
  for every length.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF

_C1 = 0xCC9E2D51
_C2 = 0x1B873593


def _rotl32(x: int, r: int) -> int:
    """Rotate a 32-bit integer left by ``r`` bits."""
    return ((x << r) | (x >> (32 - r))) & _MASK32


def _fmix32(h: int) -> int:
    """Finalisation mix — forces all bits of a hash block to avalanche."""
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """Compute the 32-bit MurmurHash3 of ``data`` with the given ``seed``.

    Parameters
    ----------
    data:
        Raw bytes to hash.  Use :func:`repro.hashing.families.key_to_bytes`
        to convert arbitrary stream keys.
    seed:
        32-bit seed selecting a member of the hash family.

    Returns
    -------
    int
        An unsigned 32-bit hash value.
    """
    length = len(data)
    h1 = seed & _MASK32
    rounded_end = (length // 4) * 4

    for i in range(0, rounded_end, 4):
        k1 = (
            data[i]
            | (data[i + 1] << 8)
            | (data[i + 2] << 16)
            | (data[i + 3] << 24)
        )
        k1 = (k1 * _C1) & _MASK32
        k1 = _rotl32(k1, 15)
        k1 = (k1 * _C2) & _MASK32

        h1 ^= k1
        h1 = _rotl32(h1, 13)
        h1 = (h1 * 5 + 0xE6546B64) & _MASK32

    # Tail (remaining 1-3 bytes).
    k1 = 0
    tail = length & 3
    if tail >= 3:
        k1 ^= data[rounded_end + 2] << 16
    if tail >= 2:
        k1 ^= data[rounded_end + 1] << 8
    if tail >= 1:
        k1 ^= data[rounded_end]
        k1 = (k1 * _C1) & _MASK32
        k1 = _rotl32(k1, 15)
        k1 = (k1 * _C2) & _MASK32
        h1 ^= k1

    h1 ^= length
    return _fmix32(h1)


# ---------------------------------------------------------------------------
# The batch kernel, split at the seed.  MurmurHash3 mixes every 32-bit block
# of a key (``k = rotl(k·C1, 15)·C2``) before the seed enters; only the
# ``h1`` chain, the length and the final avalanche depend on the seed.  A
# batch mixes its blocks once and every hash function finishes them.

_U32 = np.uint32


def _rotl(h: np.ndarray, r: int) -> np.ndarray:
    """Rotate ``uint32`` words left by ``r`` bits, in place."""
    top = h >> _U32(32 - r)
    h <<= _U32(r)
    h |= top
    return h


def murmur3_mix(words: np.ndarray) -> np.ndarray:
    """The seed-independent block mix ``rotl(k·C1, 15)·C2`` of ``uint32`` words.

    Returns a new ``uint32`` array.  ``mix(0) == 0``, so a zero tail word
    or a zero high half contributes nothing to the hash.
    """
    k = _rotl(np.multiply(words, _U32(_C1), dtype=np.uint32), 15)
    k *= _U32(_C2)
    return k


def mix_key_matrix(blocks: np.ndarray) -> np.ndarray:
    """The mixed words of an ``(n, length)`` ``uint8`` matrix of same-length keys.

    Returns a ``(ceil(length / 4), n)`` ``uint32`` array: row ``i`` holds
    block ``i`` of every key, and when ``length % 4`` the last row holds
    the tail word (the key zero-padded to whole words).  The words are a
    little-endian view of the matrix, not assembled byte by byte.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2:
        raise ValueError("blocks must be a 2-D (n, length) uint8 array")
    count, length = blocks.shape
    if length % 4:
        padded = np.zeros((count, length + (-length) % 4), dtype=np.uint8)
        padded[:, :length] = blocks
        blocks = padded
    words = np.ascontiguousarray(blocks).view("<u4")
    return murmur3_mix(np.ascontiguousarray(words.T))


def _round(h: np.ndarray) -> np.ndarray:
    """One ``h1`` step, in place: ``h = rotl(h, 13)·5 + 0xE6546B64``."""
    _rotl(h, 13)
    h *= _U32(5)
    h += _U32(0xE6546B64)
    return h


def _fmix(h: np.ndarray) -> np.ndarray:
    """The final avalanche of :func:`_fmix32`, in place."""
    h ^= h >> _U32(16)
    h *= _U32(0x85EBCA6B)
    h ^= h >> _U32(13)
    h *= _U32(0xC2B2AE35)
    h ^= h >> _U32(16)
    return h


def murmur3_finish(mixed: np.ndarray, length: int, seed: int = 0) -> np.ndarray:
    """MurmurHash3 of ``n`` keys of ``length`` bytes from their mixed words.

    ``mixed`` is :func:`mix_key_matrix` of the keys.  Returns the ``(n,)``
    ``uint32`` hashes for ``seed``: the ``h1`` chain over the full blocks,
    the tail word, the length and the final avalanche.
    """
    seed = _U32(seed & _MASK32)
    full_blocks = length // 4
    if full_blocks:
        h = _round(mixed[0] ^ seed)
        for block in mixed[1:full_blocks]:
            h ^= block
            _round(h)
    else:
        h = np.full(mixed.shape[1], seed, dtype=np.uint32)
    if length & 3:
        h ^= mixed[full_blocks]
    h ^= _U32(length)
    return _fmix(h)


def murmur3_mix_int(low: np.ndarray, high: np.ndarray | None) -> tuple:
    """The seed-independent state of keys 4 to 8 bytes long, from their halves.

    A key of ``L`` bytes, read as one little-endian word zero-padded to 8
    bytes, has its ``uint32`` low half as block 0.  Its high half is block
    1 when ``L == 8``, the tail word when ``L`` is 5 to 7, and zero when
    ``L == 4``; pass ``high=None`` when every key is 4 bytes long.

    Returns ``(first, mixed_high)`` for :func:`murmur3_finish_int`.
    ``first`` is ``rotl(mix(low), 13)``: the first ``h1`` step rotates
    ``seed ^ mix(low)``, and a rotation distributes over XOR, so block 0's
    share of it is seed-independent too.
    """
    first = _rotl(murmur3_mix(low), 13)
    return first, None if high is None else murmur3_mix(high)


def murmur3_finish_int(
    first: np.ndarray, high: np.ndarray | None, lengths: np.ndarray | None, seed: int = 0
) -> np.ndarray:
    """MurmurHash3 of keys 4 to 8 bytes long from :func:`murmur3_mix_int`.

    ``lengths`` holds the keys' ``uint32`` byte lengths; like ``high`` it
    is ``None`` when every key is 4 bytes long.  One pass over the whole
    batch, whatever the mix of lengths.
    """
    h = first ^ _U32(_rotl32(seed & _MASK32, 13))
    h *= _U32(5)
    h += _U32(0xE6546B64)
    if high is None:
        h ^= _U32(4)
    else:
        h ^= high
        # Keys shorter than 8 bytes end here: the high half was their tail.
        short = np.flatnonzero(lengths != 8)
        tails = h[short] ^ lengths[short]
        _round(h)
        h ^= _U32(8)
        h[short] = tails
    return _fmix(h)


def murmur3_32_fixed_batch(blocks: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized MurmurHash3 of ``n`` same-length keys.

    Parameters
    ----------
    blocks:
        ``(n, length)`` ``uint8`` matrix, one pre-encoded key per row.  All
        rows share the same byte length, so the block loop and the tail
        handling are identical for every row and run as whole-array
        ``uint32`` operations (wrap-around multiplication gives the mod-2^32
        semantics of the scalar path for free).
    seed:
        32-bit seed selecting a member of the hash family.

    Returns
    -------
    numpy.ndarray
        ``(n,)`` ``uint32`` array, bit-identical to calling
        :func:`murmur3_32` on each row: :func:`murmur3_finish` of
        :func:`mix_key_matrix`.
    """
    mixed = mix_key_matrix(blocks)
    return murmur3_finish(mixed, np.shape(blocks)[1], seed)
