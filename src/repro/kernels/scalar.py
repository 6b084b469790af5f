"""Shared single-item state transitions of the order-dependent sketches.

Every conflict-free update kernel in this package — the pure-Python replay
backend and the NumPy grouped backend — must be bit-identical to inserting
the same items one by one.  The functions here *are* that per-item
semantics, expressed over the numeric struct-of-arrays state the sketches
now carry (``int64`` counter arrays plus interned key-id arrays):

* :func:`cu_apply` — one conservative update (CU sketch);
* :func:`saturating_apply` — one capped conservative update (mice filter);
* :func:`bucket_apply` — one Error-Sensible bucket arrival with the layer
  lock of Algorithm 1 (ReliableSketch);
* :func:`elastic_apply` — one Elastic heavy-part arrival (vote / evict);
* :func:`coco_apply` — one CocoSketch arrival (probabilistic replacement);
* :func:`precision_apply` — one PRECISION arrival (probabilistic
  recirculation);
* :func:`hashpipe_apply` — one HashPipe arrival (d-stage eviction walk),
  composed from :func:`hashpipe_stage1_apply` and
  :func:`hashpipe_token_apply`.

Randomized transitions (Coco, PRECISION) draw from :func:`counter_rand`, a
counter-based generator keyed on ``(seed, stream position)``: the draw of
an item depends only on its position, never on how many earlier draws were
actually evaluated, so a vectorized backend can compute a whole round's
draws in one shot and still match the scalar replay bit for bit.  Their
acceptance thresholds are computed as ``float64(value) / float64(count)``
— both operands converted to float64 *before* the division — which is the
one form that is bit-identical across Python scalars and NumPy arrays
(Python's exact-rational int/int division differs once counters pass
2^53).

The sketches' scalar ``insert`` paths call these directly and the
``python-replay`` backend loops over them, so the scalar loop and the
slowest kernel backend cannot drift apart; the vectorized backend is
pinned to them by the kernel-parity test matrix.

Key identity is integer-encoded: each sketch interns keys into dense ids
(``dict`` lookups use ``==``/``hash``), and a bucket's id is the only
record of its candidate key — the interner's ``key_of`` names it, so
the transitions return only what the caller must act on (excess value,
light-part traffic, carried tokens), never which buckets changed.  The
sentinels below mark the two "no id" cases.  ``EMPTY_ID`` and
``UNKNOWN_ID`` are distinct so that a query for a never-inserted key can
never match an empty bucket.

Integer thresholds
------------------

ReliableSketch's lock threshold λ is a float, but every comparison the
scalar path makes reduces exactly to ``int64`` arithmetic against
``lam_floor = int(λ)``: for integers ``a`` and ``λ ≥ 0``, ``a > λ`` iff
``a > floor(λ)`` (for integral λ trivially; for fractional λ because an
integer exceeds λ iff it exceeds the next integer down), the absorbed value
``int(λ - no)`` equals ``floor(λ) - no`` whenever it is positive, and the
``no = λ`` lock write truncates to ``floor(λ)`` inside an ``int64`` array.
Working in ``int64`` keeps both backends exact (no float rounding at
counters beyond 2^53) and lets the NumPy backend stay in integer arrays.
"""

from __future__ import annotations

import numpy as np

#: ``key_ids`` value of a bucket that holds no key.
EMPTY_ID = -1
#: Batch id of a query key that was never interned (matches no bucket).
UNKNOWN_ID = -2

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: splitmix64 increment — the same constant ``derive_seed`` uses, so the
#: per-position draw stream is a splitmix64 output sequence.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def counter_rand(seed: int, position: int) -> float:
    """Uniform draw in [0, 1) keyed on ``(seed, stream position)``.

    One splitmix64 output: the counter ``position + 1`` is multiplied by
    the golden-gamma increment and finalized, and the top 53 bits become
    the mantissa.  All arithmetic wraps mod 2^64, so the identical bit
    pattern falls out of Python ints (masked) and NumPy ``uint64`` arrays
    (silent wraparound); ``z >> 11 < 2^53`` makes the float conversion
    exact in both.
    """
    z = (seed + (position + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return (z >> 11) * (2.0**-53)


def cu_apply(tables: np.ndarray, indexes, value: int) -> None:
    """One conservative update at pre-computed per-row indexes.

    Raises every counter only up to the new lower bound (min + value);
    counters already above it are left untouched.
    """
    depth = tables.shape[0]
    target = int(tables[0, indexes[0]])
    for row in range(1, depth):
        reading = int(tables[row, indexes[row]])
        if reading < target:
            target = reading
    target += value
    for row in range(depth):
        if tables[row, indexes[row]] < target:
            tables[row, indexes[row]] = target


def saturating_apply(tables: np.ndarray, indexes, value: int, cap: int) -> int:
    """One capped conservative update; returns the leftover value.

    Absorbs up to ``cap - min`` units towards ``min + taken`` (the mice
    filter's saturating CU, §3.3) and leaves the rest to the caller.
    """
    depth = tables.shape[0]
    current = int(tables[0, indexes[0]])
    for row in range(1, depth):
        reading = int(tables[row, indexes[row]])
        if reading < current:
            current = reading
    taken = min(value, cap - current)
    if taken > 0:
        target = current + taken
        for row in range(depth):
            if tables[row, indexes[row]] < target:
                tables[row, indexes[row]] = target
    return value - taken


def bucket_apply(
    key_ids: np.ndarray,
    yes: np.ndarray,
    no: np.ndarray,
    index: int,
    item_id: int,
    value: int,
    lam_floor: int,
) -> int | None:
    """One ``<key, value>`` arrival at one Error-Sensible bucket (Algorithm 1).

    Returns ``None`` when the value settled in this layer, or the positive
    excess to push to the next layer when the bucket's lock triggered.
    """
    bucket_id = int(key_ids[index])
    if bucket_id == EMPTY_ID:
        # Empty bucket: adopt the key outright (first arrival).
        key_ids[index] = item_id
        yes[index] = value
        no[index] = 0
        return None
    if bucket_id == item_id:
        yes[index] += value
        return None
    no_votes = int(no[index])
    if no_votes + value > lam_floor and yes[index] > lam_floor:
        # Lock triggered: absorb only what keeps NO at the threshold,
        # and push the excess to the next layer.
        absorbed = lam_floor - no_votes
        if absorbed > 0:
            no[index] = lam_floor
            value -= absorbed
        return value
    # Normal negative vote, possibly followed by a replacement.
    no_votes += value
    if no_votes >= yes[index]:
        key_ids[index] = item_id
        no[index] = yes[index]
        yes[index] = no_votes
        return None
    no[index] = no_votes
    return None


def elastic_apply(
    key_ids: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    flags: np.ndarray,
    index: int,
    item_id: int,
    value: int,
    eviction_ratio: int,
) -> tuple[bool, tuple[int, int] | None]:
    """One Elastic heavy-part arrival at a pre-computed bucket index.

    Returns ``(light_self, evicted)``: ``light_self`` is True when the
    item's own ``<key, value>`` must go to the light part, and ``evicted``
    carries ``(incumbent_id, incumbent_votes)`` when the arrival evicted the
    incumbent (the caller light-inserts it).
    """
    bucket_id = int(key_ids[index])
    if bucket_id == EMPTY_ID:
        key_ids[index] = item_id
        positive[index] = value
        negative[index] = 0
        flags[index] = False
        return False, None
    if bucket_id == item_id:
        positive[index] += value
        return False, None
    negative[index] += value
    if negative[index] >= eviction_ratio * positive[index]:
        # Evict the incumbent to the light part and install the newcomer.
        evicted = (bucket_id, int(positive[index]))
        key_ids[index] = item_id
        positive[index] = value
        negative[index] = 1  # Elastic resets the vote-all counter.
        flags[index] = True
        return False, evicted
    return True, None


def coco_apply(
    key_ids: np.ndarray,
    counts: np.ndarray,
    cells,
    item_id: int,
    value: int,
    seed: int,
    position: int,
) -> None:
    """One CocoSketch arrival at pre-computed per-row cells.

    Scan the rows in order: a matching cell absorbs the value outright;
    otherwise the first strictly-smallest cell among all rows takes it —
    installed when empty, or counted with a ``value / new_count``
    probabilistic key replacement (unbiased per-cell sum, as in CocoSketch).
    """
    depth = key_ids.shape[0]
    min_row = 0
    min_count = -1
    for row in range(depth):
        cell = cells[row]
        if key_ids[row, cell] == item_id:
            counts[row, cell] += value
            return
        reading = int(counts[row, cell])
        if min_count < 0 or reading < min_count:
            min_row = row
            min_count = reading
    cell = cells[min_row]
    if key_ids[min_row, cell] == EMPTY_ID:
        key_ids[min_row, cell] = item_id
        counts[min_row, cell] = value
        return
    new_count = min_count + value
    counts[min_row, cell] = new_count
    if counter_rand(seed, position) < float(value) / float(new_count):
        key_ids[min_row, cell] = item_id


def precision_apply(
    key_ids: np.ndarray,
    counts: np.ndarray,
    cells,
    item_id: int,
    value: int,
    seed: int,
    position: int,
) -> bool:
    """One PRECISION arrival at pre-computed per-row cells.

    The first row that matches absorbs the value; the first empty row
    adopts the key.  When every row holds a foreign key, the entry with
    the strictly-smallest count recirculates the packet with probability
    ``value / (min + value)`` — on success the key is replaced and the
    counter jumps to ``min + value``; on failure nothing changes.
    Returns whether the packet recirculated (replaced an entry).
    """
    depth = key_ids.shape[0]
    min_row = 0
    min_count = -1
    for row in range(depth):
        cell = cells[row]
        held = int(key_ids[row, cell])
        if held == item_id:
            counts[row, cell] += value
            return False
        if held == EMPTY_ID:
            key_ids[row, cell] = item_id
            counts[row, cell] = value
            return False
        reading = int(counts[row, cell])
        if min_count < 0 or reading < min_count:
            min_row = row
            min_count = reading
    if counter_rand(seed, position) < float(value) / float(min_count + value):
        cell = cells[min_row]
        key_ids[min_row, cell] = item_id
        counts[min_row, cell] = min_count + value
        return True
    return False


def hashpipe_stage1_apply(
    key_ids_row: np.ndarray,
    counts_row: np.ndarray,
    cell: int,
    item_id: int,
    value: int,
) -> tuple[int, int] | None:
    """HashPipe's always-install first stage at one cell.

    A match adds in place; otherwise the arriving key is installed
    unconditionally and the previous occupant (if any) is carried into the
    eviction walk.  Returns the carried ``(id, count)`` or ``None``.
    """
    held = int(key_ids_row[cell])
    if held == item_id:
        counts_row[cell] += value
        return None
    carried = None if held == EMPTY_ID else (held, int(counts_row[cell]))
    key_ids_row[cell] = item_id
    counts_row[cell] = value
    return carried


def hashpipe_token_apply(
    key_ids_row: np.ndarray,
    counts_row: np.ndarray,
    cell: int,
    token_id: int,
    token_count: int,
) -> tuple[int, int] | None:
    """One carried key visiting one walk-stage cell (HashPipe stages 2..d).

    A match merges the carried count; an empty cell settles it; a smaller
    incumbent is swapped out and carried onward; a larger-or-equal
    incumbent passes the token through unchanged.  Returns the onward
    carry ``(id, count)`` or ``None``.
    """
    held = int(key_ids_row[cell])
    if held == token_id:
        counts_row[cell] += token_count
        return None
    if held == EMPTY_ID:
        key_ids_row[cell] = token_id
        counts_row[cell] = token_count
        return None
    incumbent_count = int(counts_row[cell])
    if incumbent_count < token_count:
        key_ids_row[cell] = token_id
        counts_row[cell] = token_count
        return held, incumbent_count
    return token_id, token_count


def hashpipe_apply(
    key_ids: np.ndarray,
    counts: np.ndarray,
    stage_cells: np.ndarray,
    item_id: int,
    value: int,
) -> int:
    """One full HashPipe arrival: stage 1 plus the eviction walk.

    ``stage_cells[row, id]`` is the pre-computed cell of every interned key
    at every stage.  Returns the number of stages 2..d the carried key
    actually entered (the walk stages are contiguous, so the caller can
    charge one hash call to each).
    """
    carried = hashpipe_stage1_apply(
        key_ids[0], counts[0], int(stage_cells[0, item_id]), item_id, value
    )
    walk_stages = 0
    if carried is not None:
        token_id, token_count = carried
        depth = key_ids.shape[0]
        for row in range(1, depth):
            walk_stages += 1
            carry = hashpipe_token_apply(
                key_ids[row], counts[row], int(stage_cells[row, token_id]),
                token_id, token_count,
            )
            if carry is None:
                break
            token_id, token_count = carry
    return walk_stages
