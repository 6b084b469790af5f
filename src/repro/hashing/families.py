"""Seeded hash-function families built on MurmurHash3.

Sketches need several *independent* hash functions (one per array/layer).  A
:class:`HashFamily` hands out :class:`HashFunction` objects with distinct
seeds derived from a master seed, so an experiment can be reproduced exactly
by fixing a single integer.

Keys in this repository may be ``int``, ``str`` or ``bytes``; everything is
normalised to bytes before hashing so that the same key always maps to the
same bucket regardless of which sketch consumes it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.hashing.murmur import murmur3_32, murmur3_32_fixed_batch

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Multiplier of SplitMix64, used to derive per-function seeds from one seed.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def key_to_bytes(key: object) -> bytes:
    """Normalise a stream key to bytes for hashing.

    Integers are encoded little-endian in the fewest bytes that hold them
    (minimum 4, mirroring the 32-bit flow IDs used in the paper), strings are
    UTF-8 encoded, and bytes pass through unchanged.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int):
        if key < 0:
            # Map negative keys to a distinct positive range deterministically.
            key = (-key << 1) | 1
        else:
            key = key << 1
        length = max(4, (key.bit_length() + 7) // 8)
        return key.to_bytes(length, "little")
    raise TypeError(f"unsupported key type: {type(key)!r}")


def encode_keys(keys: Sequence[object]) -> list[bytes]:
    """Batch :func:`key_to_bytes`: encode every key of a batch exactly once.

    The scalar datapath re-encodes a key for every hash function that touches
    it (``d`` times per insert for a depth-``d`` sketch); the batch datapath
    encodes each key once and shares the encoding across all hash functions
    via :class:`EncodedKeyBatch`.
    """
    return [key_to_bytes(key) for key in keys]


# Per-key type tags of the reversible key-list codec (shared with the wire
# format's tagged batch mode, which uses the same 0/1/2 assignment).
KEY_TAG_INT = 0
KEY_TAG_STR = 1
KEY_TAG_BYTES = 2
#: Slot-is-empty tag of :func:`keys_to_arrays` (``None`` entries, e.g. the
#: unset buckets of a ReliableSketch layer).
KEY_TAG_NONE = 3


def decode_zigzag_int(encoded: bytes) -> int:
    """Invert the zigzag int encoding of :func:`key_to_bytes`."""
    value = int.from_bytes(encoded, "little")
    return -(value >> 1) if value & 1 else value >> 1


def key_from_bytes(tag: int, encoded: bytes) -> object | None:
    """Invert :func:`key_to_bytes` given the key's type tag."""
    if tag == KEY_TAG_BYTES:
        return encoded
    if tag == KEY_TAG_STR:
        return encoded.decode("utf-8")
    if tag == KEY_TAG_INT:
        return decode_zigzag_int(encoded)
    if tag == KEY_TAG_NONE:
        return None
    raise ValueError(f"unknown key tag {tag}")


def keys_to_arrays(keys: Sequence[object | None]) -> dict[str, np.ndarray]:
    """Serialize a key list (``None`` allowed) into three plain arrays.

    Returns ``{"tags": uint8, "lengths": uint32, "blob": uint8}`` —
    per-slot type tags, per-slot encoded lengths and the concatenated
    :func:`key_to_bytes` encodings.  The representation is array-only on
    purpose: it rides inside ``state_snapshot()`` dicts, which the
    distributed wire format ships as raw array bytes.  Inverse:
    :func:`keys_from_arrays`.

    Lists of plain ints in ``[0, 2^31)`` and ``None`` (32-bit flow IDs and
    empty buckets) encode with whole-array operations; any other list takes
    the per-key path.  Both produce the same bytes.
    """
    arrays = _small_int_keys_to_arrays(keys)
    if arrays is None:
        arrays = _keys_to_arrays_per_key(keys)
    return arrays


def _small_int_keys_to_arrays(keys: Sequence[object | None]) -> dict[str, np.ndarray] | None:
    """The whole-array encoding, or ``None`` when a key is not a small int.

    The type screen runs at C speed (``bool`` and int subclasses fail it);
    ints beyond ``int64`` fail the array conversion, and negative or
    ``>= 2^31`` ones the bounds check.  Each key ``k`` encodes as the
    4-byte little-endian ``k << 1`` of :func:`key_to_bytes`.
    """
    if not set(map(type, keys)) <= {int, type(None)}:
        return None
    slots = np.fromiter(keys, dtype=object, count=len(keys))
    occupied = slots != None  # noqa: E711 (element-wise, not identity)
    try:
        values = slots[occupied].astype(np.int64)
    except OverflowError:
        return None
    if values.size and (int(values.min()) < 0 or int(values.max()) >= 2**31):
        return None
    return {
        "tags": np.where(occupied, np.uint8(KEY_TAG_INT), np.uint8(KEY_TAG_NONE)),
        "lengths": np.where(occupied, np.uint32(4), np.uint32(0)),
        "blob": (values << 1).astype("<u4").view(np.uint8),
    }


def _keys_to_arrays_per_key(keys: Sequence[object | None]) -> dict[str, np.ndarray]:
    """The per-key encoding: every key type, and the fast path's reference."""
    count = len(keys)
    tags = np.empty(count, dtype=np.uint8)
    encodings: list[bytes] = []
    for position, key in enumerate(keys):
        if key is None:
            tags[position] = KEY_TAG_NONE
            encodings.append(b"")
        elif isinstance(key, bytes):
            tags[position] = KEY_TAG_BYTES
            encodings.append(key)
        elif isinstance(key, str):
            tags[position] = KEY_TAG_STR
            encodings.append(key.encode("utf-8"))
        elif isinstance(key, int):
            tags[position] = KEY_TAG_INT
            encodings.append(key_to_bytes(key))
        else:
            raise TypeError(f"unsupported key type: {type(key)!r}")
    lengths = np.fromiter((len(blob) for blob in encodings), dtype=np.uint32, count=count)
    blob = np.frombuffer(b"".join(encodings), dtype=np.uint8)
    return {"tags": tags, "lengths": lengths, "blob": blob}


def keys_from_arrays(
    tags: np.ndarray, lengths: np.ndarray, blob: np.ndarray
) -> list[object | None]:
    """Inverse of :func:`keys_to_arrays`; malformed input raises ``ValueError``.

    When every ``INT`` slot is 4 bytes long and every ``NONE`` slot empty,
    the keys decode with whole-array operations; otherwise per key.
    """
    tags = np.asarray(tags, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.uint32)
    if tags.shape != lengths.shape:
        raise ValueError("key tags and lengths must have the same shape")
    raw = np.asarray(blob, dtype=np.uint8).tobytes()
    if int(lengths.sum()) != len(raw):
        raise ValueError("key blob does not match the encoded lengths")
    is_int = tags == KEY_TAG_INT
    if (
        np.all(is_int | (tags == KEY_TAG_NONE))
        and np.all(lengths == np.where(is_int, 4, 0))
    ):
        # Zigzag-decode every 4-byte encoding at once (negative keys too).
        encoded = np.frombuffer(raw, dtype="<u4").astype(np.int64)
        keys = np.full(len(tags), None, dtype=object)
        keys[is_int] = np.where(encoded & 1, -(encoded >> 1), encoded >> 1).astype(object)
        return keys.tolist()
    return _keys_from_arrays_per_key(tags, lengths, raw)


def _keys_from_arrays_per_key(
    tags: np.ndarray, lengths: np.ndarray, raw: bytes
) -> list[object | None]:
    """The per-key decoding: every key type, and the fast path's reference."""
    keys: list[object | None] = []
    position = 0
    for tag, length in zip(tags.tolist(), lengths.tolist()):
        piece = raw[position : position + length]
        position += length
        keys.append(key_from_bytes(tag, piece))
    return keys


class EncodedKeyBatch:
    """A batch of stream keys, pre-encoded and grouped for vectorized hashing.

    MurmurHash3 is only vectorizable over *same-length* inputs (the block
    loop depends on the byte length), so the batch groups its keys by encoded
    length and packs each group into a contiguous ``(n_group, length)``
    ``uint8`` matrix.  Real workloads (32-bit flow IDs) collapse into a
    single 4-byte group, which is the fully vectorized fast path; mixed key
    types degrade gracefully into one kernel launch per distinct length.

    The batch is immutable and reusable: every hash function of every layer
    or array hashes the same encoded matrices, so encoding cost is paid once
    per item regardless of sketch depth.  Batches of non-negative ints below
    2^31 (the paper's 32-bit flow IDs) skip per-key ``key_to_bytes`` entirely
    and build the packed matrix with whole-array NumPy operations.

    Constructing an ``EncodedKeyBatch`` from an existing one shares all of
    its cached state instead of re-encoding, and the batch behaves as a
    read-only sequence of its original keys.  Together these let a batch be
    passed anywhere a key sequence is accepted — in particular, a
    :class:`repro.sketches.sharded.ShardedSketch` can route sub-batches into
    its per-shard sketches' ``insert_batch`` without paying the encoding
    twice.
    """

    __slots__ = (
        "_keys", "_encoded", "_groups", "_group_of", "_row_of",
        "_int_array", "_count", "_parent", "_positions",
    )

    def __init__(self, keys: Sequence[object], _encoded: list[bytes] | None = None) -> None:
        if isinstance(keys, EncodedKeyBatch):
            # Share the donor's cached encodings/groups: re-wrapping a batch
            # (e.g. a routed sub-batch entering a sketch's insert_batch) must
            # never redo the per-key encoding work.
            self._keys = keys._keys
            self._encoded = keys._encoded if _encoded is None else _encoded
            self._groups = keys._groups
            self._group_of = keys._group_of
            self._row_of = keys._row_of
            self._int_array = keys._int_array
            self._count = keys._count
            self._parent = keys._parent
            self._positions = keys._positions
            return
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        elif not isinstance(keys, (list, tuple)):
            keys = list(keys)
        self._keys = keys
        self._encoded = _encoded
        self._groups: list[tuple[np.ndarray, np.ndarray]] | None = None
        # Per-position (group id, row within the group matrix) maps, built
        # with the groups; they make take() a pure matrix-slicing operation.
        self._group_of: np.ndarray | None = None
        self._row_of: np.ndarray | None = None
        self._int_array: np.ndarray | None = None
        self._count = len(keys)
        self._parent: EncodedKeyBatch | None = None
        self._positions: np.ndarray | None = None

    @property
    def keys(self) -> Sequence[object]:
        """The original key objects.

        Sub-batches built by :meth:`take` defer this list: the per-layer
        hashing of the survivor pipeline only ever touches the packed
        matrices, so the Python-level key list is materialised lazily on
        first access (typically never for intermediate layers).
        """
        if self._keys is None:
            parent = self._parent
            positions = self._positions
            parent_keys = parent.keys
            self._keys = [parent_keys[i] for i in positions]
            if self._encoded is None and parent._encoded is not None:
                self._encoded = [parent._encoded[i] for i in positions]
            self._parent = None
            self._positions = None
        return self._keys

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        # Sequence behaviour over the original keys: scalar-fallback sketches
        # inside a sharded wrapper receive sub-batches and loop over them.
        return iter(self.keys)

    def __getitem__(self, index):
        return self.keys[index]

    @property
    def encoded(self) -> list[bytes]:
        """Per-key encodings (materialised on demand)."""
        if self._encoded is None:
            self.keys  # a deferred sub-batch slices its parent's encodings
            if self._encoded is None:
                self._encoded = encode_keys(self._keys)
        return self._encoded

    @property
    def int_key_array(self) -> np.ndarray | None:
        """The keys as one ``int64`` array when the int fast path applies.

        ``None`` for batches that did not take the fast path (mixed types,
        negative or oversized ints).  Used by the key interner to resolve
        whole batches through one table gather or one dict probe.
        """
        self.groups  # the fast-path probe runs with the one-time packing
        return self._int_array

    def _int_fast_groups(self) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """Single-group packing for batches of small non-negative ints.

        ``key_to_bytes`` maps an int ``k`` in ``[0, 2^31)`` to the 4-byte
        little-endian encoding of ``k << 1``, so the whole batch packs into
        one ``(n, 4)`` matrix via a vectorized shift — no per-key encoding.
        The type screen runs at C speed (``set(map(type, ...))`` is exactly
        the per-key ``type(key) is int`` test) and the bounds check on the
        already-converted array.
        """
        if set(map(type, self.keys)) != {int}:
            return None
        try:
            array = np.asarray(self._keys, dtype=np.int64)
        except OverflowError:
            return None
        if int(array.min()) < 0 or int(array.max()) >= 2**31:
            return None
        self._int_array = array
        matrix = (array << 1).astype("<u4").view(np.uint8).reshape(self._count, 4)
        return [(np.arange(self._count, dtype=np.intp), matrix)]

    @property
    def groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Length groups as ``(original_positions, (n, length) uint8 matrix)``."""
        if self._groups is None:
            groups = None
            if self._encoded is None and self._count:
                groups = self._int_fast_groups()
            if groups is None:
                by_length: dict[int, list[int]] = {}
                for position, encoding in enumerate(self.encoded):
                    by_length.setdefault(len(encoding), []).append(position)
                groups = []
                for length, positions in by_length.items():
                    packed = b"".join(self.encoded[i] for i in positions)
                    matrix = np.frombuffer(packed, dtype=np.uint8).reshape(len(positions), length)
                    groups.append((np.asarray(positions, dtype=np.intp), matrix))
            self._set_groups(groups)
        return self._groups

    def _set_groups(self, groups: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Install groups and the position -> (group, row) reverse maps."""
        self._groups = groups
        count = self._count
        self._group_of = np.empty(count, dtype=np.intp)
        self._row_of = np.empty(count, dtype=np.intp)
        for group_id, (positions, _) in enumerate(groups):
            self._group_of[positions] = group_id
            self._row_of[positions] = np.arange(len(positions), dtype=np.intp)

    def take(self, positions: Sequence[int]) -> "EncodedKeyBatch":
        """Sub-batch of the given positions, reusing the packed encodings.

        Used by the layered datapath of ReliableSketch: only the items that
        survive layer ``i`` are re-hashed for layer ``i + 1``.  When the
        length groups are already packed, the sub-batch's groups are sliced
        straight out of the parent matrices — no per-key re-encoding or
        re-packing, even on the int fast path — and the Python key list is
        *deferred*: hashing only reads the matrices, so consumers that
        never touch ``.keys`` (each layer of the survivor pipeline) skip
        the per-key list construction entirely.
        """
        # Force the parent's one-time packing (a no-op if a hash already
        # triggered it), so sub-batches always slice instead of re-encoding.
        parent_groups = self.groups
        position_array = np.asarray(positions, dtype=np.intp)
        sub = object.__new__(EncodedKeyBatch)
        sub._keys = None
        sub._encoded = None
        sub._count = len(position_array)
        sub._parent = self
        sub._positions = position_array
        sub._int_array = (
            None if self._int_array is None else self._int_array[position_array]
        )
        group_ids = self._group_of[position_array]
        rows = self._row_of[position_array]
        groups = []
        for group_id, (_, matrix) in enumerate(parent_groups):
            mask = group_ids == group_id
            if mask.any():
                groups.append(
                    (np.nonzero(mask)[0].astype(np.intp), matrix[rows[mask]])
                )
        sub._set_groups(groups)
        return sub


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the ``index``-th 32-bit seed from a 64-bit master seed.

    Uses a SplitMix64-style finaliser so that nearby master seeds and indices
    still produce unrelated 32-bit seeds.
    """
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z & 0xFFFFFFFF


class HashFunction:
    """A single seeded hash function mapping keys to ``[0, width)``.

    Instances also count how many times they were evaluated; the paper's
    Figure 16 reports the average number of hash calls per operation, and the
    experiment harness reads these counters to reproduce it.
    """

    __slots__ = ("seed", "width", "calls")

    def __init__(self, seed: int, width: int | None = None) -> None:
        if width is not None and width <= 0:
            raise ValueError("hash width must be positive")
        self.seed = seed & 0xFFFFFFFF
        self.width = width
        self.calls = 0

    def raw(self, key: object) -> int:
        """Return the raw unsigned 32-bit hash of ``key``."""
        self.calls += 1
        return murmur3_32(key_to_bytes(key), self.seed)

    def __call__(self, key: object) -> int:
        """Return the bucket index of ``key`` (requires ``width``)."""
        value = self.raw(key)
        if self.width is None:
            return value
        return value % self.width

    def raw_batch(self, batch: EncodedKeyBatch) -> np.ndarray:
        """Raw 32-bit hashes of a whole batch as an ``int64`` array.

        Bit-identical to calling :meth:`raw` on each key; the call counter
        advances by the batch size so that hash-call accounting (Figure 16)
        matches the scalar path exactly.
        """
        self.calls += len(batch)
        out = np.empty(len(batch), dtype=np.int64)
        for positions, matrix in batch.groups:
            out[positions] = murmur3_32_fixed_batch(matrix, self.seed).astype(np.int64)
        return out

    def index_batch(self, batch: EncodedKeyBatch) -> np.ndarray:
        """Bucket indexes of a whole batch (``raw_batch`` reduced mod width)."""
        raw = self.raw_batch(batch)
        if self.width is None:
            return raw
        return raw % self.width

    def reset_counter(self) -> None:
        """Zero the call counter (used between measurement phases)."""
        self.calls = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFunction(seed={self.seed:#010x}, width={self.width})"


class SignHashFunction(HashFunction):
    """Hash function returning ±1, used by the Count sketch."""

    def __call__(self, key: object) -> int:  # type: ignore[override]
        return 1 if self.raw(key) & 1 else -1

    def sign_batch(self, batch: EncodedKeyBatch) -> np.ndarray:
        """±1 signs of a whole batch as an ``int64`` array."""
        return np.where(self.raw_batch(batch) & 1, np.int64(1), np.int64(-1))


class HashFamily:
    """Factory of independent :class:`HashFunction` objects.

    Parameters
    ----------
    master_seed:
        Any integer; all functions drawn from the family are derived from it.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._next_index = 0
        self._functions: list[HashFunction] = []

    def draw(self, width: int | None = None) -> HashFunction:
        """Create the next independent index-hash in the family."""
        fn = HashFunction(derive_seed(self.master_seed, self._next_index), width)
        self._next_index += 1
        self._functions.append(fn)
        return fn

    def draw_sign(self) -> SignHashFunction:
        """Create the next independent ±1 hash in the family."""
        fn = SignHashFunction(derive_seed(self.master_seed, self._next_index))
        self._next_index += 1
        self._functions.append(fn)
        return fn

    def draw_many(self, count: int, width: int | None = None) -> list[HashFunction]:
        """Create ``count`` independent index-hashes with a common width."""
        return [self.draw(width) for _ in range(count)]

    @property
    def functions(self) -> Iterable[HashFunction]:
        """All functions drawn so far (used for hash-call accounting)."""
        return tuple(self._functions)

    def total_calls(self) -> int:
        """Total number of hash evaluations across all drawn functions."""
        return sum(fn.calls for fn in self._functions)

    def reset_counters(self) -> None:
        """Zero all call counters in the family."""
        for fn in self._functions:
            fn.reset_counter()
