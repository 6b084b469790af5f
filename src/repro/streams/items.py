"""Key-value stream items and ground-truth helpers.

A stream is any iterable of ``(key, value)`` pairs — :class:`Item` objects
or plain tuples, which matters for throughput experiments where attribute
access would dominate the measurement.  The materialised :class:`Stream`
is columnar: one key array and one value array, so the batch datapath
chunks it by slicing (:func:`iter_key_value_chunks`) instead of building
and unpacking one Python object per item.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.hashing.families import as_int64_keys

_T = TypeVar("_T")

#: Keys converted to Python objects at a time while a :class:`Stream` is
#: iterated, so iterating a large stream never holds one object per item.
_ITER_SLICE = 65536


def chunked(items: Iterable[_T], chunk_size: int) -> Iterator[list[_T]]:
    """Yield ``items`` as consecutive lists of at most ``chunk_size`` elements.

    The chunking primitive of iterables that are not a :class:`Stream`
    (trace readers, generators, item lists): the chunk contract (order
    preserved, last chunk short, positive size required) lives in exactly
    one place.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    chunk: list[_T] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _unpack(pairs: Sequence) -> tuple[list, list]:
    """Split ``(key, value)`` pairs into a key list and a value list."""
    if not pairs:
        return [], []
    keys, values = zip(*pairs)
    return list(keys), list(values)


def iter_key_value_chunks(
    items: Iterable, chunk_size: int
) -> Iterator[tuple[Sequence[object], np.ndarray | list]]:
    """Yield an iterable of ``(key, value)`` pairs as ``(keys, values)`` chunks.

    The one chunk source of the batch datapath (``Sketch.insert_stream``,
    the ingest coordinators, the epoch fills).  A :class:`Stream` is sliced:
    ``int64`` key slices (a list for object keys) and ``int64`` value
    slices, with no per-item work.  Any other iterable goes through
    :func:`chunked` and one unpack per chunk.  Chunks keep stream order and
    at most ``chunk_size`` items; the last one may be short.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if isinstance(items, Stream):
        keys, values = items.key_array, items.value_array
        for start in range(0, len(keys), chunk_size):
            key_slice = keys[start : start + chunk_size]
            if keys.dtype == object:
                key_slice = key_slice.tolist()
            yield key_slice, values[start : start + chunk_size]
        return
    for chunk in chunked(items, chunk_size):
        yield _unpack(chunk)


@dataclass(frozen=True)
class Item:
    """One stream element: a key and its (positive) value increment.

    The paper's default experiments use ``value == 1`` (frequency
    estimation); weighted streams are exercised by dedicated tests and the
    byte-volume testbed experiment (Figure 20).
    """

    key: object
    value: int = 1

    def __iter__(self) -> Iterator[object]:
        # Allows ``key, value = item`` unpacking.
        return iter((self.key, self.value))


def _key_array(keys: Sequence[object] | np.ndarray) -> np.ndarray:
    """Keys as ``int64`` when every key is a plain int in range, else ``object``."""
    ints = as_int64_keys(keys)
    if ints is not None:
        return ints
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    # Built element-wise: np.array([1, "a"]) would be a <U21 string array.
    return np.fromiter(keys, dtype=object, count=len(keys))


class Stream:
    """A materialised key-value stream with cached ground truth.

    The stream is held as two arrays, never as a list of items:
    :attr:`key_array` (``int64`` when every key is a plain ``int`` in
    ``(-2^63, 2^63)``, ``object`` otherwise) and :attr:`value_array`
    (``int64``).  Iterating or indexing yields :class:`Item` objects built
    on the fly, for consumers that want one object per item; the batch
    datapath slices the arrays instead.  Materialising once lets
    every sketch in a comparison consume the *same* data, and lets metrics
    be computed from an exact frequency table without a second pass over a
    generator.
    """

    def __init__(self, items: Sequence[Item] | Iterable[Item], name: str = "stream") -> None:
        keys, values = _unpack(list(items))
        self._init(keys, values, name)

    @classmethod
    def from_arrays(
        cls, keys: Sequence[object] | np.ndarray, values: Sequence[int] | np.ndarray,
        name: str = "stream",
    ) -> "Stream":
        """A stream of ``keys[i]`` with value ``values[i]``, without any ``Item``."""
        stream = cls.__new__(cls)
        stream._init(keys, values, name)
        return stream

    def _init(self, keys, values, name: str) -> None:
        self._keys = _key_array(keys)
        self._values = np.asarray(values, dtype=np.int64)
        if self._values.shape != self._keys.shape:
            raise ValueError("a stream needs one value per key")
        self.name = name
        self._counts: Counter | None = None

    @property
    def key_array(self) -> np.ndarray:
        """The keys in stream order (do not mutate)."""
        return self._keys

    @property
    def value_array(self) -> np.ndarray:
        """The ``int64`` values in stream order (do not mutate)."""
        return self._values

    def __iter__(self) -> Iterator[Item]:
        for start in range(0, len(self._keys), _ITER_SLICE):
            stop = start + _ITER_SLICE
            yield from map(Item, self._keys[start:stop].tolist(), self._values[start:stop].tolist())

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, index: int | slice) -> Item | list[Item]:
        if isinstance(index, slice):
            return list(map(Item, self._keys[index].tolist(), self._values[index].tolist()))
        key = self._keys[index]
        return Item(key if self._keys.dtype == object else int(key), int(self._values[index]))

    @property
    def items(self) -> list[Item]:
        """The stream as a list of items, built on every access.

        Kept for callers that want objects; the batch datapath reads
        :attr:`key_array` and :attr:`value_array` instead.
        """
        return list(self)

    def iter_batches(self, chunk_size: int) -> Iterator[list[Item]]:
        """Yield the stream as consecutive chunks of at most ``chunk_size`` items.

        Chunks preserve stream order, so feeding every chunk to
        ``Sketch.insert_batch`` is equivalent to a scalar pass; the last
        chunk may be shorter (and a chunk size beyond ``len(self)`` yields
        one chunk holding the whole stream).
        """
        yield from chunked(self, chunk_size)

    def counts(self) -> Counter:
        """Exact per-key value sums ``f(e)`` (computed once, then cached)."""
        if self._counts is None:
            counter: Counter = Counter()
            for key, value in zip(self._keys.tolist(), self._values.tolist()):
                counter[key] += value
            self._counts = counter
        return self._counts

    def total_value(self) -> int:
        """The L1 norm ``N = sum_e f(e)`` used throughout the analysis."""
        return sum(self.counts().values())

    def distinct_keys(self) -> int:
        """Number of distinct keys in the stream."""
        return len(self.counts())

    def keys(self) -> list[object]:
        """All distinct keys (order unspecified but deterministic)."""
        return list(self.counts().keys())

    def frequent_keys(self, threshold: int) -> list[object]:
        """Keys whose exact value sum exceeds ``threshold`` (paper's T)."""
        return [key for key, count in self.counts().items() if count > threshold]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stream(name={self.name!r}, items={len(self)}, "
            f"distinct={self.distinct_keys()})"
        )


def exact_counts(items: Iterable[Item]) -> Counter:
    """Exact value sums for an arbitrary iterable of items."""
    counter: Counter = Counter()
    for item in items:
        key, value = item
        counter[key] += value
    return counter


def total_value(items: Iterable[Item]) -> int:
    """Total inserted value ``N`` for an arbitrary iterable of items."""
    return sum(value for _, value in items)
