"""Common interface shared by every sketch in the repository.

The experiment harness treats all algorithms uniformly: construct from a
memory budget, feed a stream through ``insert``, then compare ``query``
against the ground truth.  Keeping the interface minimal (two methods plus
introspection helpers) mirrors the abstract "stream summary" problem of §2.1.

Since the batch-first datapath rework, the interface also carries a batch
contract: ``insert_batch(keys, values)`` / ``query_batch(keys)`` must be
*observably equivalent* to the scalar loop — same estimates bit for bit,
same hash-call accounting, same statistics — for any chunking of the stream.
The base class provides the scalar fallback loop; sketches with a vectorized
datapath (ReliableSketch, CM, CU, Count, Elastic) override it.

The sharded-ingest subsystem adds a *merge contract* on top: sketches whose
state is a pure function of the multiset of inserted items (CM, Count) set
``mergeable = True`` and implement :meth:`Sketch.merge` so that merging
sketches fed disjoint partitions of a stream is bit-identical to one sketch
fed the whole stream.  Order-dependent sketches either raise
:class:`UnmergeableSketchError` or, like CU, document the weaker guarantee
their merge provides.

The distributed-ingest subsystem (``repro.distributed``) extends the merge
contract with *state snapshots*: mergeable sketches implement
:meth:`Sketch.state_snapshot` / :meth:`Sketch.state_restore` so a remote
worker can ship its table state over a wire to a collector, which restores
it into a structurally identical replica and merges.  Restoring a snapshot
must reproduce the donor sketch exactly (every query answers identically),
which is what makes remote ingest bit-identical to local ingest.

The temporal subsystem (``repro.temporal``) adds the *delta contract*, the
inverse of merging: sketches whose state is a linear function of the stream
(CM, Count — element-wise table addition) set ``subtractable = True`` and
implement :meth:`Sketch.subtract` / :meth:`Sketch.state_delta` so the
difference of two epoch snapshots is exactly the sketch of the items
between them.  CU stays unsubtractable: its merge is an upper bound, so a
difference of CU tables has no windowed meaning.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.hashing import EncodedKeyBatch
from repro.kernels.interning import KeyInterner

#: Default ``insert_stream`` chunk size.  Chunks amortize the per-batch
#: encode/dispatch overhead while keeping the working set cache-resident;
#: bit-identical to the scalar loop by the parity contract.
DEFAULT_STREAM_BATCH = 4096


@dataclass(frozen=True)
class SketchDescription:
    """Static description of a sketch instance for reports and tables."""

    name: str
    memory_bytes: float
    parameters: dict


class UnmergeableSketchError(NotImplementedError):
    """Raised when :meth:`Sketch.merge` is called on a sketch without a
    lossless merge operation (order-dependent or replacement-based state)."""


class Sketch(abc.ABC):
    """Abstract base class of all stream-summary sketches."""

    #: Human-readable algorithm name, overridden by subclasses.
    name: str = "sketch"

    #: Capability flag of the merge contract: True when :meth:`merge` is
    #: implemented and merging sketches fed disjoint stream partitions equals
    #: one sketch fed the full stream (exactly for CM/Count; CU documents a
    #: weaker guarantee).  Checked by ``ShardedSketch.merge_shards`` and the
    #: registry's ``is_mergeable``.
    mergeable: bool = False

    #: Capability flag of the delta contract: True when :meth:`subtract` /
    #: :meth:`state_delta` are implemented, i.e. the sketch's state is a
    #: *linear* function of the inserted multiset, so subtracting an earlier
    #: state from a later one yields exactly the sketch of the items in
    #: between.  Strictly stronger than ``mergeable``: CU merges (upper
    #: bound) but cannot subtract — an upper-bound difference has no
    #: windowed meaning.  Checked by the sliding-window reads of
    #: ``repro.temporal`` and the registry's ``supports_deltas``.
    subtractable: bool = False

    #: Capability flag of the snapshot half of the contract: True when
    #: :meth:`state_snapshot` / :meth:`state_restore` are implemented, i.e.
    #: the sketch's whole mutable state round-trips through named arrays.
    #: Every mergeable sketch is snapshotable (snapshots are how distributed
    #: workers ship state), but not vice versa: ReliableSketch snapshots its
    #: layers yet stays unmergeable (lock/replace decisions are
    #: order-dependent).  Snapshot support is what the distributed ingest
    #: pipeline and the serving layer (``repro.serve``) actually require.
    snapshotable: bool = False

    #: Set by the families whose buckets name their key by interned id.
    _interner: KeyInterner | None = None

    @property
    def key_interner(self) -> KeyInterner | None:
        """The interner whose ``keys()`` lists this sketch's keys, or ``None`` (read-only)."""
        return self._interner

    def check_room(self, keys: Sequence[object]) -> None:
        """Raise ``KeyInternerOverflowError`` if ``insert_batch(keys)`` would overflow.

        Refuses a batch with more new keys than a bounded key interner has
        room for, and changes nothing; ``insert_batch`` refuses the same
        batches.  A no-op for a sketch without a bounded interner.
        """
        interner = self._interner
        if interner is not None and interner.max_keys is not None:
            batch = EncodedKeyBatch(keys)
            interner.check_room(batch.keys, batch.int_key_array)

    @abc.abstractmethod
    def insert(self, key: object, value: int = 1) -> None:
        """Process one stream item ``<key, value>`` (value must be positive)."""

    @abc.abstractmethod
    def query(self, key: object) -> int:
        """Return the estimated value sum of ``key``."""

    def insert_batch(self, keys: Sequence[object], values: Sequence[int] | int | None = None) -> None:
        """Insert a batch of items, equivalent to a scalar ``insert`` loop.

        Parameters
        ----------
        keys:
            Stream keys, in stream order (order matters for order-dependent
            sketches such as CU and ReliableSketch).
        values:
            Per-item positive values, a single int applied to every key, or
            ``None`` for the unit-value default.

        The default implementation is the scalar loop; overrides vectorize
        but must stay bit-identical to it.
        """
        keys = self._native_keys(keys)
        if values is None or isinstance(values, int):
            value = 1 if values is None else values
            for key in keys:
                self.insert(key, value)
        else:
            if len(values) != len(keys):
                raise ValueError("values must match the number of keys")
            for key, item_value in zip(keys, values):
                self.insert(key, int(item_value))

    def query_batch(self, keys: Sequence[object]) -> np.ndarray:
        """Estimated value sums of a batch of keys as an ``int64`` array.

        The default implementation loops over :meth:`query`; overrides
        vectorize but must return bit-identical estimates.
        """
        keys = self._native_keys(keys)
        return np.fromiter(
            (self.query(key) for key in keys), dtype=np.int64, count=len(keys)
        )

    def insert_stream(self, items: Iterable, batch_size: int | None = None) -> None:
        """Insert every item of an iterable of ``(key, value)`` pairs.

        Items are buffered into chunks (``batch_size``, default
        :data:`DEFAULT_STREAM_BATCH`) and fed through :meth:`insert_batch` —
        the batch datapath of the sketch, when it has one — which is
        bit-identical to the scalar path for every sketch (the kernel-parity
        contract), so chunking is purely a throughput knob.  ``batch_size=0``
        forces the per-item scalar path, which timing harnesses use to
        measure it explicitly.
        """
        if batch_size is None:
            batch_size = DEFAULT_STREAM_BATCH
        if not batch_size:
            for key, value in items:
                self.insert(key, value)
            return
        # Imported here: repro.streams is a leaf package, but keeping the
        # import local avoids widening sketch import time for scalar users.
        from repro.streams.items import iter_key_value_chunks

        for keys, values in iter_key_value_chunks(items, batch_size):
            self.insert_batch(keys, values)

    def merge(self, other: "Sketch") -> "Sketch":
        """Fold another sketch's state into this one, in place.

        ``other`` must be a structurally identical peer: same class, same
        table geometry, same hash seeds (shards built by
        ``ShardedSketch.from_registry`` satisfy this by construction).  For
        mergeable sketches the merged instance answers queries as if it had
        ingested the concatenation of both operands' streams.  Returns
        ``self`` so merges chain.

        Sketches whose state depends on stream order or on replacement
        decisions (ReliableSketch, Elastic, SpaceSaving, ...) cannot merge
        losslessly and raise :class:`UnmergeableSketchError`.
        """
        raise UnmergeableSketchError(
            f"{type(self).__name__} ({self.name}) does not support lossless merging; "
            "only sketches with mergeable=True implement merge()"
        )

    def subtract(self, other: "Sketch") -> "Sketch":
        """Remove another sketch's contribution from this one, in place.

        The inverse of :meth:`merge`, under the same peer contract (same
        class, geometry and hash seeds).  When ``other`` summarises a
        *prefix* of the stream this sketch has absorbed, the result answers
        queries exactly as a sketch fed only the suffix — the sliding-window
        primitive of ``repro.temporal``: the difference of two epoch
        snapshots is the sketch of the items between them.  Exact only for
        sketches whose state is linear in the stream (``subtractable``);
        order-dependent and upper-bound families raise.  Returns ``self``
        so subtractions chain.
        """
        raise UnmergeableSketchError(
            f"{type(self).__name__} ({self.name}) does not support state subtraction; "
            "only sketches with subtractable=True implement subtract()"
        )

    def state_delta(self, earlier: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """The snapshot of this sketch's stream *minus* an earlier snapshot.

        ``earlier`` is a :meth:`state_snapshot` taken from a structurally
        identical peer at some prior point of the same stream; the returned
        dict restores (via :meth:`state_restore`) into a sketch that answers
        exactly as one fed only the items absorbed since.  The state-level
        form of :meth:`subtract`, for callers that hold snapshots rather
        than live sketches (the epoch ring's windowed reads).
        """
        raise UnmergeableSketchError(
            f"{type(self).__name__} ({self.name}) does not support state subtraction; "
            "only sketches with subtractable=True implement state_delta()"
        )

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """Mutable table state as named arrays (mergeable sketches only).

        The snapshot is a *copy*: mutating the sketch afterwards does not
        change it.  Together with :meth:`state_restore` this is the transfer
        half of the merge contract — ``repro.distributed.wire`` serializes
        snapshots so remote workers can ship shard state to a collector —
        and the publication step of the serving layer's epoch rotation
        (``repro.serve.snapshots``).
        """
        raise UnmergeableSketchError(
            f"{type(self).__name__} ({self.name}) does not support state snapshots; "
            "only sketches with snapshotable=True implement state_snapshot()"
        )

    def state_restore(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite this sketch's table state from a snapshot, in place.

        The receiving sketch must be a structurally identical peer of the
        snapshot's donor (same class, geometry and hash seeds — e.g. built
        from the registry with the donor's configuration); after restoring,
        every query answers exactly as the donor would.  Array shapes are
        validated; geometry/seed equality is the caller's contract, exactly
        as for :meth:`merge`.
        """
        raise UnmergeableSketchError(
            f"{type(self).__name__} ({self.name}) does not support state snapshots; "
            "only sketches with snapshotable=True implement state_restore()"
        )

    def copy_state_into(self, peer: "Sketch") -> None:
        """Overwrite ``peer``'s state with a copy of this sketch's, in place.

        ``peer`` is a structurally identical peer, as for
        :meth:`state_restore`; afterwards it answers every query exactly as
        this sketch does now and shares no mutable state with it.  The
        default is ``peer.state_restore(self.state_snapshot())``; a sketch
        with a cheaper direct copy overrides it.  The serving layer builds
        its epoch replicas this way (``repro.serve.snapshots``).
        """
        peer.state_restore(self.state_snapshot())

    def _check_snapshot_shape(self, state: dict[str, np.ndarray], key: str,
                              shape: tuple[int, ...]) -> np.ndarray:
        """Shared restore validation: ``key`` present with the expected shape."""
        try:
            array = state[key]
        except KeyError:
            raise ValueError(f"snapshot is missing the {key!r} array") from None
        array = np.asarray(array)
        if array.shape != shape:
            raise ValueError(
                f"cannot restore {self.name} snapshot: {key!r} has shape "
                f"{array.shape}, expected {shape}"
            )
        return array

    def _check_merge_peer(self, other: "Sketch", attributes: Sequence[str]) -> None:
        """Shared merge validation: same class and identical named attributes.

        ``attributes`` name the structural parameters that must match for
        element-wise table addition to be meaningful (geometry and hash
        seeds); a mismatch raises ``ValueError`` before any state changes.
        """
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        for attribute in attributes:
            mine, theirs = getattr(self, attribute), getattr(other, attribute)
            if mine != theirs:
                raise ValueError(
                    f"cannot merge {self.name} sketches with mismatched "
                    f"{attribute}: {mine!r} != {theirs!r}"
                )

    def memory_bytes(self) -> float:
        """Configured memory footprint of the data structure, in bytes."""
        raise NotImplementedError

    def hash_calls(self) -> int:
        """Total number of hash-function evaluations so far (Figure 16)."""
        return 0

    def reset_hash_calls(self) -> None:
        """Zero the hash-call counters before a measurement phase."""

    def describe(self) -> SketchDescription:
        """Summarise this instance for experiment reports."""
        return SketchDescription(self.name, self.memory_bytes(), self.parameters())

    def parameters(self) -> dict:
        """Algorithm-specific parameters worth recording in reports."""
        return {}

    @staticmethod
    def _native_keys(keys: Sequence[object]) -> Sequence[object]:
        """An ndarray batch as Python key objects, converted once per batch.

        The scalar loop stores the keys it is given; NumPy scalars would
        leak into ``top_k`` and other key-returning APIs.
        """
        return keys.tolist() if isinstance(keys, np.ndarray) else keys

    @staticmethod
    def _check_insert(value: int) -> None:
        """Shared validation: the stream-summary problem assumes positive values."""
        if value <= 0:
            raise ValueError("inserted value must be positive")

    @staticmethod
    def _batch_values(values: Sequence[int] | int | None, count: int) -> np.ndarray:
        """Normalise and validate batch values to a positive ``int64`` array.

        Shared by the vectorized ``insert_batch`` overrides; validation
        happens up front for the whole batch (the scalar loop validates item
        by item, so an invalid value mid-batch aborts earlier here — the
        accepted inputs are identical).
        """
        if values is None:
            value_array = np.ones(count, dtype=np.int64)
        elif isinstance(values, int):
            value_array = np.full(count, values, dtype=np.int64)
        else:
            value_array = np.asarray(values, dtype=np.int64)
        if value_array.shape != (count,):
            raise ValueError("values must match the number of keys")
        if value_array.size and int(value_array.min()) <= 0:
            raise ValueError("inserted value must be positive")
        return value_array
