"""Key interning: dense integer ids, the only record of a bucket's key.

Key-storing sketches hold each bucket's candidate key as an ``int64`` id,
so the update kernels compare keys as integers, and every key a sketch
touches is assigned a dense id on first contact.  ``dict`` lookup defines
identity (``==``/``hash``), and a NumPy side table accelerates the common
case: batches of small non-negative ints (the paper's flow IDs) intern
through one vectorized gather instead of one dict probe per item.

Ids are never recycled, so the id → key map names every bucket's key for
the interner's whole life.  It has two forms.  While every interned key is
a plain ``int`` in ``(-2^63, 2^63)`` it is one append-only ``int64``
column (:attr:`KeyInterner.column`): reads then compare each touched
slot's *key*, gathered from the column, with the query key, and never look
a query key up.  The first other key (``str``, ``bytes``, ``bool``, or an
int outside that range) converts the column to a list of key objects, once.
Callers read keys through :meth:`KeyInterner.key_of`,
:meth:`KeyInterner.keys` and :meth:`KeyInterner.gather`, never the storage.

The side table is a pure cache of the dict (the dict stays the source of
truth, so scalar inserts and batch inserts interleave consistently) and
is only grown for keys below :data:`_TABLE_KEY_LIMIT` — an ``int64``
entry per key caps it at 32 MiB, transiently up to twice that while a
doubling re-allocation is in flight; everything else takes the dict path.
Like the dict, it grows with the distinct keys ingested — the deliberate
speed-for-memory trade of the batch datapath.  Int batches intern in bulk
on both sides of that limit: known keys resolve through one table gather
or one C-level dict probe, and new keys take their first-contact ids
through one ``dict.update``.

Snapshots encode the keys the occupied slots name
(:meth:`KeyInterner.slot_key_arrays`, one gather from the column) and
restores intern them into a fresh interner
(:meth:`KeyInterner.from_slot_arrays`, through
:meth:`KeyInterner.intern_many`, which never allocates the table); a
replica copied from a live sketch takes :meth:`KeyInterner.compact`, the
gathered keys of just its candidates, and builds its dict only if it later
interns or looks up a key.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Sequence

import numpy as np

from repro.hashing.families import (
    KEY_TAG_INT,
    KEY_TAG_NONE,
    as_int64_keys,
    encode_int_keys,
    keys_from_arrays,
    keys_to_arrays,
    pack_int_keys,
)
from repro.kernels.scalar import EMPTY_ID, UNKNOWN_ID

#: Int keys below this may enter the vectorized id table (32 MiB of int64
#: ids at most, excluding the transient doubling copy).
_TABLE_KEY_LIMIT = 1 << 22

#: What :meth:`KeyInterner.gather` reads for an ``EMPTY_ID`` slot.  No
#: column key takes it (the int codec has no code for -2^63, so the column
#: never holds it), and no int64 query batch contains it.
NO_KEY = -(2**63)
_INT64_MAX = 2**63 - 1


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
    bucket that holds id ``i`` holds ``key_of(i)``.
    """

    __slots__ = ("_ids", "_buffer", "_column", "_keys", "_table", "max_keys")

    def __init__(self, max_keys: int | None = None) -> None:
        if max_keys is not None and max_keys <= 0:
            raise ValueError("max_keys must be positive (or None for unbounded)")
        #: key -> id; ``None`` until first needed in an interner built from
        #: keys alone (:meth:`compact`).
        self._ids: dict | None = {}
        # Column form: ``_column`` is the read-only prefix of ``_buffer``
        # holding id -> key, replaced (never written) on every append, so a
        # concurrent reader of ``_column`` sees one consistent state.  The
        # buffer always has room past the column, filled with NO_KEY, so its
        # last entry — what ``EMPTY_ID`` (-1) indexes — is NO_KEY.
        self._buffer: np.ndarray | None = np.full(1, NO_KEY, dtype=np.int64)
        self._column: np.ndarray | None = self._buffer[:0]
        #: List form: id -> key objects; ``None`` while the column holds them.
        self._keys: list | None = None
        self._table: np.ndarray | None = None
        self.max_keys = max_keys

    def __len__(self) -> int:
        column = self._column
        return len(self._keys) if column is None else len(column)

    # ------------------------------------------------------------ key reads
    @property
    def column(self) -> np.ndarray | None:
        """Every key in id order as one read-only ``int64`` array, or ``None``.

        ``None`` once a key outside ``(-2^63, 2^63)`` or a non-``int`` key
        has been interned (the list form).
        """
        return self._column

    def key_of(self, item_id: int) -> object:
        """The key that owns ``item_id``; a Python ``int`` in column form."""
        column = self._column
        return self._keys[item_id] if column is None else column.item(item_id)

    def keys(self, start: int = 0) -> list:
        """The keys of ids ``start`` onwards, in id order, as a new list of Python objects."""
        column = self._column
        return self._keys[start:] if column is None else column[start:].tolist()

    def gather(self, slot_ids: np.ndarray) -> np.ndarray:
        """The ``int64`` keys ``slot_ids`` name; column form only.

        ``slot_ids`` holds ids of this interner and ``EMPTY_ID``; an empty
        slot reads :data:`NO_KEY`, which equals no key of an int64 batch,
        also when the column is empty.
        """
        return self._buffer[slot_ids]

    def _id_map(self) -> dict:
        """The key -> id dict, built from the keys on first use if absent."""
        ids = self._ids
        if ids is None:
            keys = self.keys()
            ids = self._ids = dict(zip(keys, range(len(keys))))
        return ids

    def _append(self, new_keys: np.ndarray | list) -> None:
        """Append int64-range keys to the column, keeping NO_KEY past its end."""
        size = len(self._column)
        end = size + len(new_keys)
        buffer = self._buffer
        if end >= len(buffer):
            grown = np.full(max(2 * len(buffer), end + 1), NO_KEY, dtype=np.int64)
            grown[:size] = buffer[:size]
            self._buffer = buffer = grown
        buffer[size:end] = new_keys
        column = buffer[:end]
        column.flags.writeable = False
        self._column = column

    # ------------------------------------------------------------- scalars
    def intern(self, key: object) -> int:
        """The id of ``key``, assigning the next dense id on first contact."""
        item_id = self._id_map().get(key)
        if item_id is None:
            item_id = self._assign(key)
        return item_id

    def lookup(self, key: object) -> int:
        """The id of ``key``, or ``UNKNOWN_ID`` when it was never interned."""
        return self._id_map().get(key, UNKNOWN_ID)

    def _assign(self, key: object) -> int:
        item_id = len(self)
        if self.max_keys is not None and item_id >= self.max_keys:
            raise KeyInternerOverflowError(
                f"key interner is full: {self.max_keys} distinct keys "
                f"already interned, cannot intern {key!r} (raise max_keys "
                "or leave it unbounded)"
            )
        column = self._column
        if column is not None and type(key) is int and NO_KEY < key <= _INT64_MAX:
            self._append([key])
        else:
            if column is not None:  # the first key the column cannot hold
                self._keys = column.tolist()
                self._column = self._buffer = None
            self._keys.append(key)
        self._ids[key] = item_id
        table = self._table
        if table is not None and type(key) is int and 0 <= key < len(table):
            table[key] = item_id
        return item_id

    def check_room(self, keys: Sequence[object], int_keys: np.ndarray | None = None) -> None:
        """Raise :class:`KeyInternerOverflowError` if interning ``keys`` would pass ``max_keys``.

        Counts the batch's distinct keys this interner does not know — the
        ids one :meth:`intern_batch` call would assign — and assigns none.
        Lets a caller refuse a batch before acting on it (a durable service
        journals first).  A no-op on an unbounded interner.
        """
        if self.max_keys is None:
            return
        unknown = np.flatnonzero(self.lookup_batch(keys, int_keys) == UNKNOWN_ID)
        new = len(dict.fromkeys(map(keys.__getitem__, unknown.tolist())))
        if len(self) + new > self.max_keys:
            raise KeyInternerOverflowError(
                f"key interner is full: {len(self)} of {self.max_keys} distinct "
                f"keys interned, cannot intern a batch with {new} new keys "
                "(raise max_keys or leave it unbounded)"
            )

    # ------------------------------------------------------------- batches
    def intern_batch(
        self, keys: Sequence[object], int_keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Ids for a whole batch as ``int64``, assigning new ids in order.

        ``int_keys`` is the batch's vectorized int-key array when the
        encoding fast path applies (``EncodedKeyBatch.int_key_array``:
        every key a plain ``int`` in ``[0, 2^31)``); with it, known keys
        resolve through one table gather, or, above the table's key limit,
        one dict probe, and new keys assign in bulk.  A bounded interner
        refuses a batch that does not fit (:meth:`check_room`) before it
        assigns any id.
        """
        self.check_room(keys, int_keys)
        self._id_map()
        if (
            int_keys is not None
            and int_keys.size
            and int(int_keys.min()) >= 0
            and int(int_keys.max()) < _TABLE_KEY_LIMIT
        ):
            table = self._ensure_table(int(int_keys.max()))
            ids = table[int_keys]
            missing = np.flatnonzero(ids < 0)
            if missing.size:
                self._assign_batch(keys, int_keys, ids, missing)
            return ids
        if int_keys is not None and self._column is not None:
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

        Same ids as that loop, and like it this never allocates the id
        table — a restored replica must not pay for one.  A bounded
        interner refuses keys that do not fit (:meth:`check_room`) before
        it assigns any id.  In column form a batch of plain ``int`` keys in
        ``(-2^63, 2^63)`` resolves through the bulk path.
        """
        self.check_room(keys)
        self._id_map()
        if self._column is not None:
            int_keys = as_int64_keys(keys)
            if int_keys is not None:
                return self._intern_ints(keys, int_keys)
        return np.fromiter(map(self.intern, keys), dtype=np.int64, count=len(keys))

    def compact(
        self, slot_ids: np.ndarray, max_keys: int | None = None
    ) -> tuple["KeyInterner", np.ndarray]:
        """A fresh interner of only the keys ``slot_ids`` names, and the slots renumbered.

        ``slot_ids`` holds this interner's ids (``EMPTY_ID`` for empty
        slots); its ``m`` distinct ids become ``0..m-1``, in id order, each
        mapped to its key here.  The new interner holds just those keys, in
        this interner's form, with no id table, and builds its dict only if
        it later interns or looks up a key.  Raises
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
        interner = KeyInterner(max_keys=max_keys)
        interner._ids = None
        if self._column is not None:
            interner._append(self._column[distinct])
        else:
            interner._column = interner._buffer = None
            interner._keys = list(map(self._keys.__getitem__, distinct.tolist()))
        compact_ids = np.full(len(slot_ids), EMPTY_ID, dtype=np.int64)
        compact_ids[occupied] = renumbered
        return interner, compact_ids

    def slot_key_arrays(self, slot_ids: np.ndarray) -> dict[str, np.ndarray]:
        """:func:`~repro.hashing.families.keys_to_arrays` of the keys ``slot_ids`` name.

        ``slot_ids`` holds this interner's ids, ``EMPTY_ID`` for empty
        slots (which encode as ``None``).  Only the occupied slots' keys are
        gathered and encoded; the result is byte for byte the encoding of
        the full slot list, because empty slots contribute no blob bytes.
        In column form the keys are one gather from the column, straight
        into the whole-array int codec.
        """
        occupied = np.flatnonzero(slot_ids != EMPTY_ID)
        tags = np.full(len(slot_ids), KEY_TAG_NONE, dtype=np.uint8)
        lengths = np.zeros(len(slot_ids), dtype=np.uint32)
        column = self._column
        if column is not None:
            int_lengths, rows = encode_int_keys(column[slot_ids[occupied]])
            tags[occupied] = KEY_TAG_INT
            lengths[occupied] = int_lengths
            return {"tags": tags, "lengths": lengths, "blob": pack_int_keys(int_lengths, rows)}
        arrays = keys_to_arrays(list(map(self._keys.__getitem__, slot_ids[occupied].tolist())))
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
        the ids a loop of :meth:`intern` calls hands out — and is appended
        to the column.  The id table is written where it already covers a
        key and never allocated here: it must stay a faithful cache of the
        dict, because the table path treats a miss as a brand-new key.
        """
        new_keys = list(map(keys.__getitem__, positions.tolist()))
        fresh = list(dict.fromkeys(new_keys))
        start = len(self)
        self._ids.update(zip(fresh, range(start, start + len(fresh))))
        self._append(fresh)
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

        The caller has checked that they fit.  In column form a table miss
        is provably a brand-new key (every key is a plain ``int``, so no
        ``==``-equal non-int alias can hide one from the table), and the
        misses take the bulk :meth:`_assign_new`; in list form the dict is
        consulted per distinct key — a miss may be a key interned under an
        ``==``-equal non-int object.
        """
        if self._column is not None:
            ids[missing] = self._assign_new(keys, int_keys, missing)
            return
        table = self._table
        miss_keys = int_keys[missing]
        uniq, first_seen = np.unique(miss_keys, return_index=True)
        get = self._ids.get
        ids_map = self._ids
        key_list = self._keys
        for key in uniq[np.argsort(first_seen, kind="stable")].tolist():
            item_id = get(key)
            if item_id is None:
                item_id = len(key_list)
                ids_map[key] = item_id
                key_list.append(key)
            table[key] = item_id
        ids[missing] = table[miss_keys]

    def lookup_batch(
        self, keys: Sequence[object], int_keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Ids for a query batch; unknown keys map to ``UNKNOWN_ID``.

        Queries must never grow the interner: an unknown key cannot match
        any bucket (every incumbent is interned by construction).
        """
        table = self._table
        if (
            int_keys is not None
            and int_keys.size
            and table is not None
            and int(int_keys.min()) >= 0
            and int(int_keys.max()) < len(table)
        ):
            ids = table[int_keys]
            missing = np.flatnonzero(ids < 0)
            if missing.size:
                # A key may be known to the dict but not yet cached (it was
                # interned before the table grew past it, or via an object
                # that is == an int); resolve the leftovers through the dict.
                get = self._id_map().get
                for position in missing.tolist():
                    ids[position] = get(int(int_keys[position]), UNKNOWN_ID)
            return ids
        return np.asarray(
            list(map(self._id_map().get, keys, repeat(UNKNOWN_ID))), dtype=np.int64
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
