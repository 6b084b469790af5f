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
the only record of each slot's key), and both datapaths run through the
shared kernel transitions (:mod:`repro.kernels`).  Because the eviction
walk hashes the *carried* (evicted) key — not the arriving one — the sketch
pre-computes every interned key's cell at every stage in a
``(depth, capacity)`` cache.  Ids are dense and never recycled, so the keys
not yet cached are exactly the ids at or above a watermark, and every
insert hashes just those into the cache (a restore resets the watermark);
hash-call counters are advanced exactly where the legacy per-slot
datapath evaluated a hash (once at stage 1 per insert, once per walk
stage entered).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hashing import EncodedKeyBatch, HashFamily, key_to_bytes, murmur3_32
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
        self._stage_cells = np.zeros((depth, 0), dtype=np.int64)
        #: Ids below this watermark have their cells in ``_stage_cells``.
        self._cached_ids = 0
        self._interner = KeyInterner(max_keys=max_interned_keys)

    def _cache_stage_cells(self) -> None:
        """Cache every stage's cell of the ids at or above the watermark.

        Those are the keys ``keys(_cached_ids)``, in id order: a lone
        one (a scalar insert's new key) is hashed per key, a run of them
        vectorized.  Runs uncounted: the cache is a precomputation artefact
        of the struct-of-arrays port, not a hash evaluation the pipeline
        model performs — ``calls`` is advanced where the legacy datapath
        hashed.
        """
        start = self._cached_ids
        fresh = self._interner.keys(start)
        if not fresh:
            return
        end = start + len(fresh)
        cache = self._grow_cache(end - 1)
        if len(fresh) == 1:
            data = key_to_bytes(fresh[0])
            for row, hash_fn in enumerate(self._hashes):
                cache[row, start] = murmur3_32(data, hash_fn.seed) % self.width
        else:
            batch = EncodedKeyBatch(fresh)
            for row, hash_fn in enumerate(self._hashes):
                cache[row, start:end] = hash_fn.index_batch(batch)
                hash_fn.calls -= len(fresh)
        self._cached_ids = end

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
        if item_id >= self._cached_ids:
            self._cache_stage_cells()
        self._hashes[0].calls += 1
        walk_stages = hashpipe_apply(
            self._key_ids, self._counts, self._stage_cells, item_id, value
        )
        for row in range(1, 1 + walk_stages):
            self._hashes[row].calls += 1

    def insert_batch(
        self, keys: Sequence[object], values: Sequence[int] | int | None = None
    ) -> None:
        batch = EncodedKeyBatch(keys)
        value_array = self._batch_values(values, len(batch))
        if not len(batch):
            return
        item_ids = self._interner.intern_batch(batch.keys, batch.int_key_array)
        self._cache_stage_cells()
        stage_entries = self._kernel.hashpipe_update(
            self._key_ids, self._counts, self._stage_cells, item_ids, value_array
        )
        self._hashes[0].calls += len(batch)
        for row in range(1, self.depth):
            self._hashes[row].calls += int(stage_entries[row])

    # ------------------------------------------------------------- queries
    def query(self, key: object) -> int:
        # A key may be resident in several stages (duplicates are inherent to
        # HashPipe); the estimate is the sum of all matching slots.
        item_id = self._interner.lookup(key)
        total = 0
        for row, hash_fn in enumerate(self._hashes):
            cell = hash_fn(key)
            if self._key_ids.item(row, cell) == item_id:
                total += self._counts.item(row, cell)
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
        arrays = self._interner.slot_key_arrays(self._key_ids.ravel())
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
        interner, slot_ids = KeyInterner.from_slot_arrays(
            [(tags, lengths, state["key_blob"])], max_keys=self.max_interned_keys
        )
        self._counts = counts
        self._key_ids = slot_ids.reshape(shape)
        self._interner = interner
        # Every restored id is uncached: the next insert hashes them all.
        self._cached_ids = 0

    # -------------------------------------------------------- introspection
    def memory_bytes(self) -> float:
        return KEY_COUNTER_PAIR.bytes_for(self.depth * self.width)

    def hash_calls(self) -> int:
        return self._family.total_calls()

    def reset_hash_calls(self) -> None:
        self._family.reset_counters()

    def parameters(self) -> dict:
        return {"depth": self.depth, "width": self.width}
