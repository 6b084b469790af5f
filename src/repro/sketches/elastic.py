"""Elastic sketch (Yang et al., SIGCOMM 2018).

The closest prior work to ReliableSketch: its heavy part also uses an
election bucket with positive and negative votes, but the negative counter is
reset on replacement, so it cannot bound the error (§7 of the paper).

Structure:

* **Heavy part** — struct-of-arrays election buckets, each holding a
  candidate key (as an interned ``int64`` id), its positive votes, a
  negative-vote counter and an "ejected" flag.  When
  ``negative / positive`` exceeds the eviction ratio ``λ`` (8 in the
  original paper), the candidate is evicted to the light part and replaced.
* **Light part** — a single-array CM sketch of 8-bit counters.

Memory is split ``1 : light_ratio`` between heavy and light parts
(``light_ratio = 3`` as recommended by the original authors and used in
§6.1.4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hashing import EncodedKeyBatch, HashFamily
from repro.kernels import resolve_backend
from repro.kernels.interning import KeyInterner
from repro.kernels.scalar import EMPTY_ID, elastic_apply
from repro.metrics.memory import ELASTIC_HEAVY_BUCKET, FieldSpec, MemoryModel
from repro.sketches.base import Sketch

_LIGHT_COUNTER = MemoryModel((FieldSpec("counter", 8),))
_LIGHT_COUNTER_MAX = 255


class ElasticSketch(Sketch):
    """Elastic sketch sized from a memory budget.

    The batch datapath vectorizes the heavy-part hash (evaluated
    unconditionally, once per item) through the murmur batch kernel and
    applies the order-dependent bucket state machine through a
    conflict-free update kernel (:mod:`repro.kernels`) over the interned
    key-id arrays.  Light-part traffic falls out of that replay: items the
    kernel routes to the light part are hashed in one vectorized sub-batch
    call, evicted incumbents one by one (exactly as many light-hash
    evaluations as the scalar loop performs), and since the light part's
    saturating addition is order-independent the accumulated sums apply in
    a single scatter.  ``insert_batch``/``query_batch`` therefore stay
    bit-identical to the scalar loop — including hash-call accounting.
    """

    name = "Elastic"

    def __init__(
        self,
        memory_bytes: float,
        light_ratio: float = 3.0,
        eviction_ratio: int = 8,
        seed: int = 0,
        max_interned_keys: int | None = None,
    ) -> None:
        if light_ratio <= 0:
            raise ValueError("light_ratio must be positive")
        if eviction_ratio <= 0:
            raise ValueError("eviction_ratio must be positive")
        heavy_bytes = memory_bytes / (1.0 + light_ratio)
        light_bytes = memory_bytes - heavy_bytes
        self.eviction_ratio = eviction_ratio
        self.heavy_width = max(1, ELASTIC_HEAVY_BUCKET.entries_for(heavy_bytes))
        self.light_width = max(1, _LIGHT_COUNTER.entries_for(light_bytes))
        self._family = HashFamily(seed)
        self._heavy_hash = self._family.draw(self.heavy_width)
        self._light_hash = self._family.draw(self.light_width)
        # Heavy part, struct-of-arrays: interned key ids (the only record of
        # each bucket's candidate key) and the vote counters.
        self._heavy_ids = np.full(self.heavy_width, EMPTY_ID, dtype=np.int64)
        self._heavy_positive = np.zeros(self.heavy_width, dtype=np.int64)
        self._heavy_negative = np.zeros(self.heavy_width, dtype=np.int64)
        self._heavy_flags = np.zeros(self.heavy_width, dtype=bool)
        self._light = np.zeros(self.light_width, dtype=np.int64)
        self._kernel = resolve_backend()
        self._interner = KeyInterner(max_keys=max_interned_keys)

    # ------------------------------------------------------------- inserts
    def _light_insert(self, key: object, value: int) -> None:
        index = self._light_hash(key)
        self._light[index] = min(_LIGHT_COUNTER_MAX, int(self._light[index]) + value)

    def _light_query(self, key: object) -> int:
        return int(self._light[self._light_hash(key)])

    def insert(self, key: object, value: int = 1) -> None:
        self._check_insert(value)
        self._insert_at(key, value, self._heavy_hash(key))

    def _insert_at(self, key: object, value: int, heavy_index: int) -> None:
        """Bucket state machine at a pre-computed heavy-part index.

        The transition itself (:func:`repro.kernels.scalar.elastic_apply`)
        is shared with the update kernels, so the scalar and batch paths
        cannot drift apart; this wrapper adds interning and the light-part
        side effects.
        """
        item_id = self._interner.intern(key)
        light_self, evicted = elastic_apply(
            self._heavy_ids, self._heavy_positive, self._heavy_negative,
            self._heavy_flags, heavy_index, item_id, value, self.eviction_ratio,
        )
        if evicted is not None:
            # Evict the incumbent to the light part.
            self._light_insert(self._interner.key_of(evicted[0]), evicted[1])
        if light_self:
            self._light_insert(key, value)

    def insert_batch(self, keys: Sequence[object], values: Sequence[int] | int | None = None) -> None:
        batch = EncodedKeyBatch(keys)
        value_array = self._batch_values(values, len(batch))
        if not len(batch):
            return
        item_ids = self._interner.intern_batch(batch.keys, batch.int_key_array)
        heavy_indexes = self._heavy_hash.index_batch(batch)
        light_positions, evicted_ids, evicted_values = self._kernel.elastic_update(
            self._heavy_ids, self._heavy_positive, self._heavy_negative,
            self._heavy_flags, self.eviction_ratio,
            heavy_indexes, item_ids, value_array,
        )
        if light_positions.size:
            # One vectorized light-hash call for the items the replay routed
            # to the light part (one scalar call each on the scalar path);
            # saturating addition commutes, so accumulate-then-clip is the
            # per-event result.
            light_indexes = self._light_hash.index_batch(batch.take(light_positions))
            np.add.at(self._light, light_indexes, value_array[light_positions])
        key_of = self._interner.key_of
        for evicted_id, evicted_value in zip(evicted_ids.tolist(), evicted_values.tolist()):
            index = self._light_hash(key_of(evicted_id))
            self._light[index] += evicted_value
        if light_positions.size or evicted_ids.size:
            np.minimum(self._light, _LIGHT_COUNTER_MAX, out=self._light)

    # ------------------------------------------------------------- queries
    def query(self, key: object) -> int:
        return self._query_at(key, self._heavy_hash(key))

    def _query_at(self, key: object, heavy_index: int) -> int:
        if self._heavy_ids.item(heavy_index) == self._interner.lookup(key):
            estimate = int(self._heavy_positive[heavy_index])
            if self._heavy_flags[heavy_index]:
                estimate += self._light_query(key)
            return estimate
        return self._light_query(key)

    def query_batch(self, keys: Sequence[object]) -> np.ndarray:
        batch = EncodedKeyBatch(keys)
        heavy_indexes = self._heavy_hash.index_batch(batch)
        item_ids = self._interner.lookup_batch(batch.keys, batch.int_key_array)
        matches = self._heavy_ids[heavy_indexes] == item_ids
        flags = self._heavy_flags[heavy_indexes]
        estimates = np.where(matches, self._heavy_positive[heavy_indexes], 0)
        # The light part is read exactly where the scalar path reads it: on
        # every miss and on ejected-flag hits (hash-call counts match).
        need_light = ~matches | flags
        light_positions = np.flatnonzero(need_light)
        if light_positions.size:
            light_indexes = self._light_hash.index_batch(batch.take(light_positions))
            readings = self._light[light_indexes]
            estimates[light_positions] = np.where(
                matches[light_positions],
                estimates[light_positions] + readings,
                readings,
            )
        return estimates

    def memory_bytes(self) -> float:
        return ELASTIC_HEAVY_BUCKET.bytes_for(self.heavy_width) + _LIGHT_COUNTER.bytes_for(
            self.light_width
        )

    def hash_calls(self) -> int:
        return self._family.total_calls()

    def reset_hash_calls(self) -> None:
        self._family.reset_counters()

    def parameters(self) -> dict:
        return {
            "heavy_width": self.heavy_width,
            "light_width": self.light_width,
            "eviction_ratio": self.eviction_ratio,
        }
