"""HashPipe (Sivaraman et al., SOSR 2017).

A heavy-hitter data structure designed for programmable switch pipelines,
used as a competitor in Figures 7 and 10.  The structure is a pipeline of
``d`` stages, each an array of (key, counter) slots:

* Stage 1 always installs the arriving key, evicting the incumbent.
* Later stages install the carried (evicted) key only if the slot is empty or
  holds a smaller counter; otherwise the carried key continues down the
  pipeline and is dropped after the last stage.

The paper uses ``d = 6`` stages as recommended by the original authors.

The state is struct-of-arrays (``int64`` counters plus interned key ids,
with the key objects mirrored for scalar queries), and both datapaths run
through the shared kernel transitions (:mod:`repro.kernels`).  Because the
eviction walk hashes the *carried* (evicted) key — not the arriving one —
the sketch pre-computes every interned key's cell at every stage in a
``(depth, capacity)`` cache, filled from the interner's assignment hook;
hash-call counters are advanced exactly where the legacy per-slot datapath
evaluated a hash (once at stage 1 per insert, once per walk stage entered).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hashing import EncodedKeyBatch, HashFamily, key_to_bytes, murmur3_32
from repro.hashing.families import keys_from_arrays, keys_to_arrays
from repro.kernels import resolve_backend
from repro.kernels.interning import KeyInterner
from repro.kernels.scalar import EMPTY_ID, hashpipe_apply
from repro.metrics.memory import KEY_COUNTER_PAIR
from repro.sketches.base import Sketch

#: Initial column capacity of the per-stage cell cache.
_INITIAL_CACHE_CAPACITY = 1024


class HashPipe(Sketch):
    """HashPipe sized from a memory budget.

    Parameters mirror :class:`repro.sketches.coco.CocoSketch`; ``depth``
    defaults to the paper's 6 stages.
    """

    name = "HashPipe"
    snapshotable = True

    def __init__(
        self,
        memory_bytes: float,
        depth: int = 6,
        seed: int = 0,
        max_interned_keys: int | None = None,
        interner_eviction: str | None = None,
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
        self._keys: list[list[object | None]] = [
            [None] * self.width for _ in range(depth)
        ]
        self._kernel = resolve_backend()
        self.max_interned_keys = max_interned_keys
        self.interner_eviction = interner_eviction
        self._stage_cells = np.zeros((depth, 0), dtype=np.int64)
        self._interner = self._new_interner()

    def _new_interner(self) -> KeyInterner:
        interner = KeyInterner(
            max_keys=self.max_interned_keys, evict=self.interner_eviction
        )
        interner.on_assign = self._cache_stage_cells
        return interner

    def _cache_stage_cells(self, key: object, item_id: int) -> None:
        """Record ``key``'s cell at every stage under its interned id.

        Runs uncounted: the cache is a precomputation artefact of the
        struct-of-arrays port, not a hash evaluation the pipeline model
        performs — ``calls`` is advanced where the legacy datapath hashed.
        """
        cache = self._grow_cache(item_id)
        data = key_to_bytes(key)
        for row, hash_fn in enumerate(self._hashes):
            cache[row, item_id] = murmur3_32(data, hash_fn.seed) % self.width

    def _grow_cache(self, item_id: int) -> np.ndarray:
        """Ensure the cell cache covers ``item_id``; return it."""
        cache = self._stage_cells
        if item_id >= cache.shape[1]:
            capacity = max(_INITIAL_CACHE_CAPACITY, 2 * cache.shape[1], item_id + 1)
            grown = np.empty((self.depth, capacity), dtype=np.int64)
            grown[:, : cache.shape[1]] = cache
            self._stage_cells = cache = grown
        return cache

    # ------------------------------------------------------------- inserts
    def insert(self, key: object, value: int = 1) -> None:
        self._check_insert(value)
        item_id = self._interner.intern(key)
        self._hashes[0].calls += 1
        changed, walk_stages = hashpipe_apply(
            self._key_ids, self._counts, self._stage_cells, item_id, value
        )
        for row in range(1, 1 + walk_stages):
            self._hashes[row].calls += 1
        if changed:
            id_to_key = self._interner.id_to_key
            for row, cell in changed:
                self._keys[row][cell] = id_to_key[self._key_ids[row, cell]]

    def insert_batch(
        self, keys: Sequence[object], values: Sequence[int] | int | None = None
    ) -> None:
        batch = EncodedKeyBatch(keys)
        value_array = self._batch_values(values, len(batch))
        if not len(batch):
            return
        # Fill the cell cache vectorized instead of per new key through the
        # assignment hook: same murmur values, scattered under the interned
        # ids.  The hook is suspended so new keys do not also pay the
        # scalar fill.  Without eviction, ids grow densely, so only the
        # batch's first-contact keys need hashing; an LRU interner can
        # recycle ids below the watermark, so it refills the whole batch
        # (idempotent for already-cached ids).
        interner = self._interner
        known_before = len(interner)
        interner.on_assign = None
        try:
            item_ids = interner.intern_batch(batch.keys, batch.int_key_array)
        finally:
            interner.on_assign = self._cache_stage_cells
        self._grow_cache(int(item_ids.max()))
        cache = self._stage_cells
        if interner.evict is None:
            fresh_pos = np.flatnonzero(item_ids >= known_before)
            if fresh_pos.size:
                new_ids, first_seen = np.unique(
                    item_ids[fresh_pos], return_index=True
                )
                first_pos = fresh_pos[first_seen]
                fill_batch = EncodedKeyBatch(
                    [batch.keys[i] for i in first_pos.tolist()]
                )
            else:
                new_ids, fill_batch = None, None
        else:
            new_ids, fill_batch = item_ids, batch
        if fill_batch is not None:
            for row, hash_fn in enumerate(self._hashes):
                cells_row = hash_fn.index_batch(fill_batch)
                # Uncounted, like the hook: cache fills are a precomputation
                # artefact, not datapath hashing (accounted for below).
                hash_fn.calls -= len(fill_batch)
                cache[row, new_ids] = cells_row
        rows, cells, stage_entries = self._kernel.hashpipe_update(
            self._key_ids, self._counts, cache, item_ids, value_array
        )
        self._hashes[0].calls += len(batch)
        for row in range(1, self.depth):
            self._hashes[row].calls += int(stage_entries[row])
        self._sync_changed(rows, cells)

    def _sync_changed(self, rows: np.ndarray, cells: np.ndarray) -> None:
        """Re-sync the object-key mirror at every (row, cell) the kernel changed."""
        if not rows.size:
            return
        id_to_key = self._interner.id_to_key
        key_table = self._keys
        rows_u, cells_u = np.divmod(np.unique(rows * self.width + cells), self.width)
        ids = self._key_ids[rows_u, cells_u].tolist()
        for row, cell, item_id in zip(rows_u.tolist(), cells_u.tolist(), ids):
            key_table[row][cell] = id_to_key[item_id]

    # ------------------------------------------------------------- queries
    def query(self, key: object) -> int:
        # A key may be resident in several stages (duplicates are inherent to
        # HashPipe); the estimate is the sum of all matching slots.
        total = 0
        for row, hash_fn in enumerate(self._hashes):
            cell = hash_fn(key)
            if self._keys[row][cell] == key:
                total += int(self._counts[row, cell])
        return total

    def query_batch(self, keys: Sequence[object]) -> np.ndarray:
        batch = EncodedKeyBatch(keys)
        ids = self._interner.lookup_batch(batch.keys, batch.int_key_array)
        totals = np.zeros(len(batch), dtype=np.int64)
        for row, hash_fn in enumerate(self._hashes):
            cells = hash_fn.index_batch(batch)
            matches = self._key_ids[row, cells] == ids
            totals += np.where(matches, self._counts[row, cells], 0)
        return totals

    # ----------------------------------------------------------- snapshots
    def state_snapshot(self) -> dict[str, np.ndarray]:
        resident = [key for row_keys in self._keys for key in row_keys]
        arrays = keys_to_arrays(resident)
        return {
            "counts": self._counts.copy(),
            "key_tags": arrays["tags"],
            "key_lengths": arrays["lengths"],
            "key_blob": arrays["blob"],
        }

    def state_restore(self, state: dict[str, np.ndarray]) -> None:
        shape = (self.depth, self.width)
        slots = self.depth * self.width
        counts = self._check_snapshot_shape(state, "counts", shape).astype(np.int64)
        tags = self._check_snapshot_shape(state, "key_tags", (slots,))
        lengths = self._check_snapshot_shape(state, "key_lengths", (slots,))
        if "key_blob" not in state:
            raise ValueError("snapshot is missing the 'key_blob' array")
        resident = keys_from_arrays(tags, lengths, state["key_blob"])
        # Fresh cache first: the new interner's assignment hook refills it
        # as the resident keys are re-interned.
        self._stage_cells = np.zeros((self.depth, 0), dtype=np.int64)
        interner = self._new_interner()
        key_ids = np.full(shape, EMPTY_ID, dtype=np.int64)
        key_table: list[list[object | None]] = [
            [None] * self.width for _ in range(self.depth)
        ]
        for row in range(self.depth):
            row_keys = key_table[row]
            for cell in range(self.width):
                key = resident[row * self.width + cell]
                if key is not None:
                    key_ids[row, cell] = interner.intern(key)
                    row_keys[cell] = key
        self._counts = counts.copy()
        self._key_ids = key_ids
        self._keys = key_table
        self._interner = interner

    # -------------------------------------------------------- introspection
    def memory_bytes(self) -> float:
        return KEY_COUNTER_PAIR.bytes_for(self.depth * self.width)

    def hash_calls(self) -> int:
        return self._family.total_calls()

    def reset_hash_calls(self) -> None:
        self._family.reset_counters()

    def parameters(self) -> dict:
        return {"depth": self.depth, "width": self.width}
