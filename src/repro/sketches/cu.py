"""CU sketch — Count-Min with Conservative Update (Estan & Varghese 2002).

Identical layout to Count-Min, but an insertion only increments the counters
that currently hold the minimum value, which strictly reduces overestimation
for unit-value streams.  Used by the paper both as a baseline (fast/accurate
variants) and, in miniature, as the mice filter of ReliableSketch (§3.3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hashing import EncodedKeyBatch, HashFamily
from repro.kernels import resolve_backend
from repro.kernels.scalar import cu_apply
from repro.metrics.memory import COUNTER_32
from repro.sketches.base import Sketch


class CUSketch(Sketch):
    """Conservative-update Count-Min sketch sized from a memory budget.

    Conservative update is order-dependent within a batch (each item's
    target depends on the counters left by its predecessors), so
    ``insert_batch`` hands the vectorized per-row indexes to a conflict-free
    update kernel (:mod:`repro.kernels`) — bit-identical to the scalar loop,
    which applies the same transition (:func:`repro.kernels.scalar.cu_apply`)
    one item at a time.  The counter rows live in one native ``int64``
    matrix, shared by inserts, queries, merges and snapshots alike.
    """

    name = "CU"
    #: CU merges by element-wise addition like CM, but conservative update is
    #: order-dependent, so the merge carries a weaker guarantee — see
    #: :meth:`merge`.
    mergeable = True
    #: The counter matrix is the whole mutable state (snapshot contract).
    snapshotable = True

    def __init__(
        self,
        memory_bytes: float,
        depth: int = 3,
        seed: int = 0,
    ) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        total_counters = COUNTER_32.entries_for(memory_bytes)
        self.depth = depth
        self.width = max(1, total_counters // depth)
        self._family = HashFamily(seed)
        self._hashes = self._family.draw_many(depth, self.width)
        self._tables = np.zeros((depth, self.width), dtype=np.int64)
        self._kernel = resolve_backend()

    def insert(self, key: object, value: int = 1) -> None:
        self._check_insert(value)
        cu_apply(self._tables, [hash_fn(key) for hash_fn in self._hashes], value)

    def query(self, key: object) -> int:
        return int(
            min(row[hash_fn(key)] for row, hash_fn in zip(self._tables, self._hashes))
        )

    def insert_batch(self, keys: Sequence[object], values: Sequence[int] | int | None = None) -> None:
        batch = EncodedKeyBatch(keys)
        value_array = self._batch_values(values, len(batch))
        if not len(batch):
            return
        # Hashing is vectorized across the whole batch; the order-dependent
        # conservative updates then run through the dispatched kernel.
        indexes = np.stack([hash_fn.index_batch(batch) for hash_fn in self._hashes])
        self._kernel.cu_update(self._tables, indexes, value_array)

    def query_batch(self, keys: Sequence[object]) -> np.ndarray:
        batch = EncodedKeyBatch(keys)
        readings = np.stack(
            [
                row[hash_fn.index_batch(batch)]
                for row, hash_fn in zip(self._tables, self._hashes)
            ]
        )
        return readings.min(axis=0)

    @property
    def _hash_seeds(self) -> tuple[int, ...]:
        return tuple(hash_fn.seed for hash_fn in self._hashes)

    def merge(self, other: "CUSketch") -> "CUSketch":
        """Element-wise table addition — exact only where order permits.

        The merged sketch still never underestimates (each key's counters
        hold at least its value sum from either operand), and it is exactly
        the single-pass CU result when the operands' occupied counters are
        disjoint in every row (then no update's conservative minimum ever
        spans both streams, so any interleaving produces the same tables).
        When occupancy overlaps, the merge is an upper bound on the
        single-pass CU — the standard distributed-CU compromise.
        """
        self._check_merge_peer(other, ("depth", "width", "_hash_seeds"))
        self._tables += other._tables
        return self

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """A copy of the counter matrix."""
        return {"tables": self._tables.copy()}

    def state_restore(self, state: dict[str, np.ndarray]) -> None:
        tables = self._check_snapshot_shape(state, "tables", (self.depth, self.width))
        self._tables = tables.astype(np.int64, copy=True)

    def memory_bytes(self) -> float:
        return COUNTER_32.bytes_for(self.depth * self.width)

    def hash_calls(self) -> int:
        return self._family.total_calls()

    def reset_hash_calls(self) -> None:
        self._family.reset_counters()

    def parameters(self) -> dict:
        return {"depth": self.depth, "width": self.width}
