"""Key interning: dense integer ids for the kernel and batch-query paths.

The conflict-free update kernels compare candidate keys as ``int64``
arrays, so every key a sketch touches is assigned a dense id on first
contact.  ``dict`` lookup defines identity (``==``/``hash`` — exactly the
equality the object-holding buckets used), and a NumPy side table
accelerates the common case: batches of small non-negative ints (the
paper's flow IDs) intern through one vectorized gather instead of one
dict probe per item.

The side table is a pure cache of the dict (the dict stays the source of
truth, so scalar inserts and batch inserts interleave consistently) and
is only grown for keys below :data:`_TABLE_KEY_LIMIT` — an ``int64``
entry per key caps it at 32 MiB, transiently up to twice that while a
doubling re-allocation is in flight; everything else takes the dict path.
Like the dict, it grows with the distinct keys ingested — the deliberate
speed-for-memory trade of the batch datapath.

Int batches intern in bulk on both sides of that limit: known keys
resolve through one table gather or one C-level dict probe, and new keys
take their first-contact ids through one ``dict.update``.  Restores use
:meth:`KeyInterner.intern_many`, which never allocates the table, so a
replica rebuilt from a snapshot carries only the dict; a replica copied
from a live sketch takes :meth:`KeyInterner.compact`, a dict of just its
candidate keys.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

import numpy as np

from repro.kernels.scalar import EMPTY_ID, UNKNOWN_ID

#: Int keys below this may enter the vectorized id table (32 MiB of int64
#: ids at most, excluding the transient doubling copy).
_TABLE_KEY_LIMIT = 1 << 22


class KeyInternerOverflowError(RuntimeError):
    """A bounded :class:`KeyInterner` ran out of ids (``max_keys`` reached).

    Raised *before* any state changes, so the interner (and the sketch that
    owns it) stays consistent: every id handed out so far remains valid and
    queries keep answering.  Catch it to fail a hostile ingest loudly instead
    of letting an adversarial key space grow the id maps without bound.
    """


class KeyInterner:
    """Assigns dense ids to keys on first contact, in stream order.

    ``max_keys`` bounds the number of distinct keys that may ever be
    interned; the default ``None`` keeps the historical unbounded behaviour
    (the deliberate speed-for-memory trade of the batch datapath).  With a
    bound set, interning the ``max_keys + 1``-th distinct key raises
    :class:`KeyInternerOverflowError` — a clear failure mode for adversarial
    key spaces instead of silent unbounded dict growth.

    ``evict="lru"`` (requires ``max_keys``) recycles ids instead of
    raising: interning a new key while full reassigns the id of the
    least-recently-interned key, whose dict/table entries are dropped.
    Recency advances on interning, not on queries, and batch interns touch
    at batch granularity (every id in the batch gets the same clock tick).
    Eviction is a *bounded-memory* mode, not a free lunch: a bucket may
    still hold the recycled id, so the sketch's batch paths (which compare
    ids) then report the new owner key for that bucket while its scalar
    paths (which compare the bucket's key object) do not — acceptable for
    the heavy-hitter sketches, whose buckets track recently-frequent keys
    anyway.  A single batch
    containing more distinct keys than ``max_keys`` will alias ids within
    the batch; size the bound well above the expected working set.

    ``on_assign`` (an optional ``(key, item_id)`` callable) fires whenever
    an id is (re)assigned — sketches use it to maintain per-id caches.
    """

    __slots__ = (
        "_ids",
        "id_to_key",
        "_table",
        "max_keys",
        "evict",
        "on_assign",
        "_last_touch",
        "_touch_clock",
        "_int_only",
    )

    def __init__(
        self, max_keys: int | None = None, evict: str | None = None
    ) -> None:
        if max_keys is not None and max_keys <= 0:
            raise ValueError("max_keys must be positive (or None for unbounded)")
        if evict not in (None, "lru"):
            raise ValueError(f"unknown eviction policy {evict!r}; expected 'lru'")
        if evict == "lru" and max_keys is None:
            raise ValueError("evict='lru' requires max_keys")
        self._ids: dict = {}
        #: Inverse map; ``id_to_key[i]`` is the key that owns id ``i``.
        self.id_to_key: list = []
        self._table: np.ndarray | None = None
        self.max_keys = max_keys
        self.evict = evict
        #: Optional ``(key, item_id)`` hook fired on every id assignment.
        self.on_assign = None
        self._last_touch = (
            np.zeros(max_keys, dtype=np.int64) if evict == "lru" else None
        )
        self._touch_clock = 0
        #: True while every interned key is a plain ``int`` — the invariant
        #: that lets batch misses skip the per-key dict probe (no ``==``-equal
        #: non-int alias can exist, and every covered int key is mirrored in
        #: the table by ``_assign`` / ``_ensure_table`` back-fill).
        self._int_only = True

    def __len__(self) -> int:
        return len(self.id_to_key)

    def intern(self, key: object) -> int:
        """The id of ``key``, assigning the next dense id on first contact."""
        item_id = self._ids.get(key)
        if item_id is None:
            item_id = self._assign(key)
        elif self._last_touch is not None:
            self._touch_clock += 1
            self._last_touch[item_id] = self._touch_clock
        return item_id

    def _assign(self, key: object) -> int:
        if type(key) is not int:
            self._int_only = False
        item_id = len(self.id_to_key)
        if self.max_keys is not None and item_id >= self.max_keys:
            if self.evict != "lru":
                raise KeyInternerOverflowError(
                    f"key interner is full: {self.max_keys} distinct keys "
                    f"already interned, cannot intern {key!r} (raise max_keys, "
                    "leave it unbounded, or enable evict='lru')"
                )
            item_id = self._evict_one()
            self._ids[key] = item_id
            self.id_to_key[item_id] = key
        else:
            self._ids[key] = item_id
            self.id_to_key.append(key)
        if self._last_touch is not None:
            self._touch_clock += 1
            self._last_touch[item_id] = self._touch_clock
        table = self._table
        if table is not None and type(key) is int and 0 <= key < len(table):
            table[key] = item_id
        if self.on_assign is not None:
            self.on_assign(key, item_id)
        return item_id

    def _evict_one(self) -> int:
        """Drop the least-recently-interned key and return its freed id."""
        victim = int(np.argmin(self._last_touch))
        old_key = self.id_to_key[victim]
        del self._ids[old_key]
        table = self._table
        if table is not None and type(old_key) is int and 0 <= old_key < len(table):
            table[old_key] = UNKNOWN_ID
        return victim

    # ------------------------------------------------------------- batches
    def intern_batch(
        self, keys: Sequence[object], int_keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Ids for a whole batch as ``int64``, assigning new ids in order.

        ``int_keys`` is the batch's vectorized int-key array when the
        encoding fast path applies (``EncodedKeyBatch.int_key_array``:
        every key a plain ``int`` in ``[0, 2^31)``); with it, known keys
        resolve through one table gather, or, above the table's key limit,
        one dict probe, and new keys assign in bulk.
        """
        if int_keys is not None and int_keys.size and int(int_keys.max()) < _TABLE_KEY_LIMIT:
            table = self._ensure_table(int(int_keys.max()))
            ids = table[int_keys]
            missing = np.flatnonzero(ids < 0)
            if missing.size:
                if self.max_keys is None and self.on_assign is None:
                    self._assign_batch(keys, int_keys, ids, missing)
                else:
                    # Bounded / hooked interners take the scalar path so
                    # eviction, overflow and assignment hooks fire per key.
                    get = self._ids.get
                    for position in missing.tolist():
                        key = int(int_keys[position])
                        item_id = get(key)
                        if item_id is None:
                            item_id = self._assign(key)
                        table[key] = item_id
                        ids[position] = item_id
            self._touch_batch(ids)
            return ids
        if int_keys is not None and self._bulk_assigns():
            return self._intern_ints(keys, int_keys)
        ids = list(map(self._ids.get, keys))
        if None in ids:
            get = self._ids.get
            for position, item_id in enumerate(ids):
                if item_id is None:
                    key = keys[position]
                    item_id = get(key)
                    if item_id is None:
                        item_id = self._assign(key)
                    ids[position] = item_id
        id_array = np.asarray(ids, dtype=np.int64)
        self._touch_batch(id_array)
        return id_array

    def intern_many(self, keys: Sequence[object]) -> np.ndarray:
        """Ids of ``keys`` exactly as one :meth:`intern` call per key assigns them.

        Same ids, same overflow point and the same LRU touch clock as that
        loop, and like it this never allocates the id table — a restored
        replica must not pay for one.  An unbounded, unhooked interner
        resolves a batch of plain ``int`` keys through the bulk path.
        """
        if self._bulk_assigns() and set(map(type, keys)) == {int}:
            try:
                int_keys = np.fromiter(keys, dtype=np.int64, count=len(keys))
            except OverflowError:
                pass
            else:
                return self._intern_ints(keys, int_keys)
        return np.fromiter(map(self.intern, keys), dtype=np.int64, count=len(keys))

    def compact(
        self, slot_ids: np.ndarray, max_keys: int | None = None
    ) -> tuple["KeyInterner", np.ndarray]:
        """A fresh interner of only the keys ``slot_ids`` names, and the slots renumbered.

        ``slot_ids`` holds this interner's ids (``EMPTY_ID`` for empty
        slots); its ``m`` distinct ids become ``0..m-1``, in id order, each
        mapped to its key here.  Like one filled by :meth:`intern_many`, the
        new interner is unhooked, has no id table and never evicts.  Only
        meaningful while ids are never recycled (``evict is None``).  Raises
        :class:`KeyInternerOverflowError`, before building anything, when
        ``m`` exceeds ``max_keys``.
        """
        occupied = np.flatnonzero(slot_ids != EMPTY_ID)
        distinct, renumbered = np.unique(slot_ids[occupied], return_inverse=True)
        if max_keys is not None and len(distinct) > max_keys:
            raise KeyInternerOverflowError(
                f"cannot compact {len(distinct)} distinct keys into an "
                f"interner bounded at {max_keys}"
            )
        keys = list(map(self.id_to_key.__getitem__, distinct.tolist()))
        interner = KeyInterner(max_keys=max_keys)
        interner._ids = dict(zip(keys, range(len(keys))))
        interner.id_to_key = keys
        interner._int_only = self._int_only or all(type(key) is int for key in keys)
        compact_ids = np.full(len(slot_ids), EMPTY_ID, dtype=np.int64)
        compact_ids[occupied] = renumbered
        return interner, compact_ids

    def _bulk_assigns(self) -> bool:
        """Whether new keys may take :meth:`_assign_new`.

        Only for the unhooked, unbounded interner (no ``max_keys``, hence no
        LRU clock, no ``on_assign``) that has only ever seen plain ``int``
        keys: ids are then dense stream-order integers with no per-key side
        effect, and no ``==``-equal non-int alias can hide a key from the
        id table.
        """
        return self.max_keys is None and self.on_assign is None and self._int_only

    def _intern_ints(self, keys: Sequence[object], int_keys: np.ndarray) -> np.ndarray:
        """Bulk interning of plain ``int`` keys through one C-level dict probe."""
        ids = np.fromiter(
            map(self._ids.get, keys, repeat(UNKNOWN_ID)), dtype=np.int64, count=len(keys)
        )
        missing = np.flatnonzero(ids < 0)
        if missing.size:
            ids[missing] = self._assign_new(keys, int_keys, missing)
        return ids

    def _assign_new(
        self, keys: Sequence[object], int_keys: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Assign ids to the brand-new plain-int keys at ``positions``; return them.

        Each distinct key takes the next dense id at its first occurrence —
        the ids a loop of :meth:`intern` calls hands out.  The dict and
        ``id_to_key`` store the caller's own key objects, so other holders
        of the batch (a service's key directory, say) share one object per
        key instead of each keeping a copy.  The id table is written where
        it already covers a key and never allocated here: it must stay a
        faithful cache of the dict, because the table path treats a miss as
        a brand-new key.
        """
        new_keys = list(map(keys.__getitem__, positions.tolist()))
        fresh = list(dict.fromkeys(new_keys))
        start = len(self.id_to_key)
        self._ids.update(zip(fresh, range(start, start + len(fresh))))
        self.id_to_key.extend(fresh)
        ids = np.fromiter(map(self._ids.__getitem__, new_keys), dtype=np.int64, count=len(new_keys))
        table = self._table
        if table is not None:
            new_ints = int_keys[positions]
            covered = (new_ints >= 0) & (new_ints < len(table))
            table[new_ints[covered]] = ids[covered]
        return ids

    def _assign_batch(
        self,
        keys: Sequence[object],
        int_keys: np.ndarray,
        ids: np.ndarray,
        missing: np.ndarray,
    ) -> None:
        """Assign the batch's table misses in first-contact order.

        For the unhooked, unbounded interner.  While it has only ever seen
        plain ``int`` keys (``_int_only``), a table miss is provably a
        brand-new key, so the misses take the bulk :meth:`_assign_new`;
        otherwise the dict is consulted per distinct key — a miss may be a
        key interned under an ``==``-equal non-int object.
        """
        if self._int_only:
            ids[missing] = self._assign_new(keys, int_keys, missing)
            return
        table = self._table
        miss_keys = int_keys[missing]
        uniq, first_seen = np.unique(miss_keys, return_index=True)
        get = self._ids.get
        ids_map = self._ids
        id_to_key = self.id_to_key
        for key in uniq[np.argsort(first_seen, kind="stable")].tolist():
            item_id = get(key)
            if item_id is None:
                item_id = len(id_to_key)
                ids_map[key] = item_id
                id_to_key.append(key)
            table[key] = item_id
        ids[missing] = table[miss_keys]

    def _touch_batch(self, ids: np.ndarray) -> None:
        """LRU touch at batch granularity: one clock tick for the whole batch."""
        if self._last_touch is not None and ids.size:
            self._touch_clock += 1
            self._last_touch[np.unique(ids)] = self._touch_clock

    def lookup_batch(
        self, keys: Sequence[object], int_keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Ids for a query batch; unknown keys map to ``UNKNOWN_ID``.

        Queries must never grow the interner: an unknown key cannot match
        any bucket (every incumbent is interned by construction).
        """
        if (
            int_keys is not None
            and int_keys.size
            and self._table is not None
            and int(int_keys.max()) < len(self._table)
        ):
            ids = self._table[int_keys]
            missing = np.flatnonzero(ids < 0)
            if missing.size:
                # A key may be known to the dict but not yet cached (it was
                # interned before the table grew past it, or via an object
                # that is == an int); resolve the leftovers through the dict.
                get = self._ids.get
                for position in missing.tolist():
                    ids[position] = get(int(int_keys[position]), UNKNOWN_ID)
            return ids
        return np.asarray(
            list(map(self._ids.get, keys, repeat(UNKNOWN_ID))), dtype=np.int64
        )

    def _ensure_table(self, top_key: int) -> np.ndarray:
        """Grow the id table to cover ``top_key``, back-filling known ints."""
        table = self._table
        needed = top_key + 1
        if table is None or len(table) < needed:
            size = max(needed, 1024, 0 if table is None else 2 * len(table))
            grown = np.full(size, UNKNOWN_ID, dtype=np.int64)
            if table is not None:
                grown[: len(table)] = table
                start = len(table)
            else:
                start = 0
            # Back-fill ids assigned before the table covered their keys.
            for key, item_id in self._ids.items():
                if type(key) is int and start <= key < size:
                    grown[key] = item_id
            self._table = table = grown
        return table
