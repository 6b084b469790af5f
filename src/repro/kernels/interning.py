"""Key interning: dense integer ids, the only record of a bucket's key.

Key-storing sketches hold each bucket's candidate key as an ``int64`` id,
so the update kernels and both query paths compare keys as integers, and
every key a sketch touches is assigned a dense id on first contact.
``dict`` lookup defines identity (``==``/``hash``), and a NumPy side table
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
take their first-contact ids through one ``dict.update``.

Ids are never recycled, so ``id_to_key`` names every bucket's key for
the interner's whole life.  Snapshots encode the keys the occupied slots
name (:meth:`KeyInterner.slot_key_arrays`) and restores intern them into a
fresh interner (:meth:`KeyInterner.from_slot_arrays`, through
:meth:`KeyInterner.intern_many`, which never allocates the table), so a
replica rebuilt from a snapshot carries only the dict; a replica copied
from a live sketch takes :meth:`KeyInterner.compact`, a dict of just its
candidate keys.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Sequence

import numpy as np

from repro.hashing.families import (
    KEY_TAG_INT,
    KEY_TAG_NONE,
    encode_int_keys,
    keys_from_arrays,
    keys_to_arrays,
    pack_int_keys,
)
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

    An id, once assigned, names its key for the interner's whole life: a
    bucket that holds id ``i`` holds ``id_to_key[i]``.
    """

    __slots__ = ("_ids", "id_to_key", "_table", "max_keys", "_int_only")

    def __init__(self, max_keys: int | None = None) -> None:
        if max_keys is not None and max_keys <= 0:
            raise ValueError("max_keys must be positive (or None for unbounded)")
        self._ids: dict = {}
        #: Inverse map; ``id_to_key[i]`` is the key that owns id ``i``.
        self.id_to_key: list = []
        self._table: np.ndarray | None = None
        self.max_keys = max_keys
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
        return item_id

    def lookup(self, key: object) -> int:
        """The id of ``key``, or ``UNKNOWN_ID`` when it was never interned."""
        return self._ids.get(key, UNKNOWN_ID)

    def _assign(self, key: object) -> int:
        item_id = len(self.id_to_key)
        if self.max_keys is not None and item_id >= self.max_keys:
            raise KeyInternerOverflowError(
                f"key interner is full: {self.max_keys} distinct keys "
                f"already interned, cannot intern {key!r} (raise max_keys "
                "or leave it unbounded)"
            )
        if type(key) is not int:
            self._int_only = False
        self._ids[key] = item_id
        self.id_to_key.append(key)
        table = self._table
        if table is not None and type(key) is int and 0 <= key < len(table):
            table[key] = item_id
        return item_id

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
                if self.max_keys is None:
                    self._assign_batch(keys, int_keys, ids, missing)
                else:
                    # A bounded interner assigns key by key, so the overflow
                    # fires at the first key past the bound.
                    get = self._ids.get
                    for position in missing.tolist():
                        key = int(int_keys[position])
                        item_id = get(key)
                        if item_id is None:
                            item_id = self._assign(key)
                        table[key] = item_id
                        ids[position] = item_id
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
        return np.asarray(ids, dtype=np.int64)

    def intern_many(self, keys: Sequence[object]) -> np.ndarray:
        """Ids of ``keys`` exactly as one :meth:`intern` call per key assigns them.

        Same ids and the same overflow point as that loop, and like it this
        never allocates the id table — a restored replica must not pay for
        one.  An unbounded interner resolves a batch of plain ``int`` keys
        through the bulk path.
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
        new interner has no id table.  Raises
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

    def slot_key_arrays(self, slot_ids: np.ndarray) -> dict[str, np.ndarray]:
        """:func:`~repro.hashing.families.keys_to_arrays` of the keys ``slot_ids`` name.

        ``slot_ids`` holds this interner's ids, ``EMPTY_ID`` for empty
        slots (which encode as ``None``).  Only the occupied slots' keys are
        gathered and encoded; the result is byte for byte the encoding of
        the full slot list, because empty slots contribute no blob bytes.
        While every interned key is a plain ``int``, the keys go straight to
        the whole-array int codec, skipping the codec's per-key type screen.
        """
        occupied = np.flatnonzero(slot_ids != EMPTY_ID)
        keys = list(map(self.id_to_key.__getitem__, slot_ids[occupied].tolist()))
        tags = np.full(len(slot_ids), KEY_TAG_NONE, dtype=np.uint8)
        lengths = np.zeros(len(slot_ids), dtype=np.uint32)
        if self._int_only:
            try:
                int_lengths, rows = encode_int_keys(
                    np.fromiter(keys, dtype=np.int64, count=len(keys))
                )
            except OverflowError:  # beyond int64, or -2^63: the per-key codec
                pass
            else:
                tags[occupied] = KEY_TAG_INT
                lengths[occupied] = int_lengths
                blob = pack_int_keys(int_lengths, rows)
                return {"tags": tags, "lengths": lengths, "blob": blob}
        arrays = keys_to_arrays(keys)
        tags[occupied] = arrays["tags"]
        lengths[occupied] = arrays["lengths"]
        return {"tags": tags, "lengths": lengths, "blob": arrays["blob"]}

    @classmethod
    def from_slot_arrays(
        cls, encoded: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        max_keys: int | None = None,
    ) -> tuple["KeyInterner", np.ndarray]:
        """A fresh interner of encoded slot keys, and every slot's id.

        ``encoded`` lists ``(tags, lengths, blob)`` slot encodings (one per
        table, say), each decoded and validated on its own by
        :func:`~repro.hashing.families.keys_from_arrays`; their slots are
        concatenated in order.  The occupied slots' keys intern with one
        :meth:`intern_many` call — the ids one :meth:`intern` per occupied
        slot would assign — and empty slots get ``EMPTY_ID``.  Malformed
        input raises ``ValueError``, and more distinct keys than
        ``max_keys`` raise :class:`KeyInternerOverflowError`.
        """
        keys: list = []
        occupied_parts = []
        for tags, lengths, blob in encoded:
            keys += keys_from_arrays(tags, lengths, blob)
            occupied_parts.append(np.asarray(tags) != KEY_TAG_NONE)
        occupied = np.concatenate(occupied_parts)
        interner = cls(max_keys=max_keys)
        slot_ids = np.full(len(occupied), EMPTY_ID, dtype=np.int64)
        slot_ids[occupied] = interner.intern_many(list(compress(keys, occupied.tolist())))
        return interner, slot_ids

    def _bulk_assigns(self) -> bool:
        """Whether new keys may take :meth:`_assign_new`.

        Only for the unbounded interner that has only ever seen plain
        ``int`` keys: ids are then dense stream-order integers, and no
        ``==``-equal non-int alias can hide a key from the id table.
        """
        return self.max_keys is None and self._int_only

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
        ``id_to_key`` store the caller's own key objects, not copies.  The
        id table is written where it already covers a key and never
        allocated here: it must stay a faithful cache of the dict, because
        the table path treats a miss as a brand-new key.
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

        For the unbounded interner.  While it has only ever seen
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
