"""PRECISION (Ben-Basat et al., ICNP 2018).

Probabilistic-recirculation heavy-hitter detection for programmable
switches, used as a competitor in Figures 7 and 10.  Like HashPipe it keeps
``d`` stages of (key, counter) slots, but instead of always evicting at the
first stage it admits an unmatched key only *probabilistically*, with
probability ``value / (min_count + value)`` — emulating the recirculation
budget of a real switch.  This avoids HashPipe's duplicate entries at the
cost of a small admission delay for emerging heavy hitters.

The paper uses ``d = 3`` stages for best performance.

The state is struct-of-arrays (``int64`` counters plus interned key ids,
the only record of each slot's key), and both datapaths run
through the shared kernel transitions (:mod:`repro.kernels`).  Admission
draws come from the counter-based RNG keyed on ``(seed, stream position)``,
so scalar, batched and kernel-backend runs are bit-identical for any
chunking.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hashing import EncodedKeyBatch, HashFamily
from repro.kernels import resolve_backend
from repro.kernels.interning import KeyInterner
from repro.kernels.scalar import EMPTY_ID, precision_apply
from repro.metrics.memory import KEY_COUNTER_PAIR
from repro.sketches.base import Sketch


class Precision(Sketch):
    """PRECISION sized from a memory budget.

    Parameters mirror :class:`repro.sketches.coco.CocoSketch`; ``depth``
    defaults to the paper's 3 stages.
    """

    name = "PRECISION"
    snapshotable = True

    def __init__(
        self,
        memory_bytes: float,
        depth: int = 3,
        seed: int = 0,
        max_interned_keys: int | None = None,
    ) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        total_slots = KEY_COUNTER_PAIR.entries_for(memory_bytes)
        self.depth = depth
        self.width = max(1, total_slots // depth)
        self._family = HashFamily(seed)
        self._hashes = self._family.draw_many(depth, self.width)
        self._key_ids = np.full((depth, self.width), EMPTY_ID, dtype=np.int64)
        self._counts = np.zeros((depth, self.width), dtype=np.int64)
        self._kernel = resolve_backend()
        self.max_interned_keys = max_interned_keys
        self._interner = KeyInterner(max_keys=max_interned_keys)
        self._rng_seed = seed
        self._draws = 0
        #: Number of simulated recirculations (entry replacements).
        self.recirculations = 0

    # ------------------------------------------------------------- inserts
    def insert(self, key: object, value: int = 1) -> None:
        self._check_insert(value)
        # All d stage cells are evaluated up front (the switch pipeline this
        # emulates hashes at every stage regardless of where the key
        # settles), matching the batch datapath's per-row accounting.
        cells = [hash_fn(key) for hash_fn in self._hashes]
        item_id = self._interner.intern(key)
        position = self._draws
        self._draws += 1
        if precision_apply(
            self._key_ids, self._counts, cells, item_id, value,
            self._rng_seed, position,
        ):
            self.recirculations += 1

    def insert_batch(
        self, keys: Sequence[object], values: Sequence[int] | int | None = None
    ) -> None:
        batch = EncodedKeyBatch(keys)
        value_array = self._batch_values(values, len(batch))
        if not len(batch):
            return
        item_ids = self._interner.intern_batch(batch.keys, batch.int_key_array)
        indexes = np.stack([hash_fn.index_batch(batch) for hash_fn in self._hashes])
        positions = np.arange(
            self._draws, self._draws + len(batch), dtype=np.int64
        )
        self._draws += len(batch)
        self.recirculations += int(self._kernel.precision_update(
            self._key_ids, self._counts, indexes, item_ids, value_array,
            positions, self._rng_seed,
        ))

    # ------------------------------------------------------------- queries
    def query(self, key: object) -> int:
        cells = [hash_fn(key) for hash_fn in self._hashes]
        item_id = self._interner.lookup(key)
        for row, cell in enumerate(cells):
            if self._key_ids.item(row, cell) == item_id:
                return self._counts.item(row, cell)
        return 0

    def query_batch(self, keys: Sequence[object]) -> np.ndarray:
        batch = EncodedKeyBatch(keys)
        indexes = [hash_fn.index_batch(batch) for hash_fn in self._hashes]
        ids = self._interner.lookup_batch(batch.keys, batch.int_key_array)
        estimates = np.zeros(len(batch), dtype=np.int64)
        # Reverse row order so the earliest matching row wins the overwrite,
        # mirroring the scalar first-match scan.
        for row in range(self.depth - 1, -1, -1):
            cells = indexes[row]
            matches = self._key_ids[row, cells] == ids
            estimates = np.where(matches, self._counts[row, cells], estimates)
        return estimates

    # ----------------------------------------------------------- snapshots
    def state_snapshot(self) -> dict[str, np.ndarray]:
        arrays = self._interner.slot_key_arrays(self._key_ids.ravel())
        return {
            "counts": self._counts.copy(),
            "key_tags": arrays["tags"],
            "key_lengths": arrays["lengths"],
            "key_blob": arrays["blob"],
            "draws": np.asarray([self._draws], dtype=np.int64),
            "recirculations": np.asarray([self.recirculations], dtype=np.int64),
        }

    def state_restore(self, state: dict[str, np.ndarray]) -> None:
        shape = (self.depth, self.width)
        slots = self.depth * self.width
        counts = self._check_snapshot_shape(state, "counts", shape).astype(np.int64)
        tags = self._check_snapshot_shape(state, "key_tags", (slots,))
        lengths = self._check_snapshot_shape(state, "key_lengths", (slots,))
        draws = self._check_snapshot_shape(state, "draws", (1,)).astype(np.int64)
        recirculations = self._check_snapshot_shape(
            state, "recirculations", (1,)
        ).astype(np.int64)
        if "key_blob" not in state:
            raise ValueError("snapshot is missing the 'key_blob' array")
        interner, slot_ids = KeyInterner.from_slot_arrays(
            [(tags, lengths, state["key_blob"])], max_keys=self.max_interned_keys
        )
        self._counts = counts
        self._key_ids = slot_ids.reshape(shape)
        self._interner = interner
        self._draws = int(draws[0])
        self.recirculations = int(recirculations[0])

    # -------------------------------------------------------- introspection
    def memory_bytes(self) -> float:
        return KEY_COUNTER_PAIR.bytes_for(self.depth * self.width)

    def hash_calls(self) -> int:
        return self._family.total_calls()

    def reset_hash_calls(self) -> None:
        self._family.reset_counters()

    def parameters(self) -> dict:
        return {"depth": self.depth, "width": self.width}
