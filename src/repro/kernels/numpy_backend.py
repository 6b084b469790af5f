"""The ``numpy-grouped`` kernel backend: conflict-free grouping engine.

Order-dependent sketches (CU, the mice filter, ReliableSketch's bucket
layers, Elastic's heavy part) cannot blindly vectorize a batch: each item's
update depends on the counters its predecessors left behind.  But that
dependency only exists *between items that touch the same counter cell*,
and this backend removes the per-item Python loop with two exact
strategies, one per update algebra:

* **Conservative updates (CU, mice filter)** are pure ``max`` writes, so
  the whole batch reduces to a monotone *fixpoint relaxation* over the
  per-item write targets — a few segmented-scan passes, no sequencing at
  all (see :func:`_grouped_conservative`).

* **Bucket state machines (ReliableSketch layers, Elastic's heavy part)**
  are grouped by key (same key implies same bucket) and *scheduled into
  conflict-free rounds*: along every bucket's toucher sequence, round
  numbers never decrease and strictly increase whenever the key changes.
  Each round's touchers of any bucket therefore form one contiguous
  same-key block — every foreign toucher lands in an earlier or later
  round, blocks apply in stream order, and a block's whole run collapses
  into a closed form (segmented cumulative sums locate the lock /
  replacement / eviction crossing).  The minimal schedule is one segmented
  scan (``round[i] = max(round[i-1] + key_changed, 1)`` along each
  bucket's sequence), so a hot key costs one closed-form update per round
  it straddles, not one update per occurrence.

Correctness rests on two facts, both pinned by the kernel-parity tests:
items that share no cell commute (their updates read and write disjoint
state), so reordering the stream by round number is a sequence of legal
swaps; and a key's consecutive arrivals at one bucket reduce to the closed
forms derived in the function docstrings.  All arithmetic is ``int64``
(see :mod:`repro.kernels.scalar` for why the float lock threshold reduces
exactly to its floor).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.scalar import _MASK64, _SPLITMIX_GAMMA, EMPTY_ID


def _cell_argsort(cells: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative cell/round indexes.

    Values below 2¹⁶ take NumPy's radix path (an order of magnitude faster
    than the comparison sort); anything larger falls back to the general
    stable sort.
    """
    if cells.size and int(cells.max()) < 65536:
        return cells.astype(np.uint16).argsort(kind="stable")
    return cells.argsort(kind="stable")


#: Shared ramp for position comparisons; grown on demand, sliced read-only
#: (every consumer compares against it without writing).
_IOTA = np.arange(65536)


def _iota(count: int) -> np.ndarray:
    """``np.arange(count)`` without the per-call allocation."""
    global _IOTA
    if count > _IOTA.size:
        _IOTA = np.arange(max(count, 2 * _IOTA.size))
    return _IOTA[:count]


def _tuple_groups(indexes: np.ndarray) -> np.ndarray:
    """Group ids by full per-row index tuple (same tuple, same update).

    An LSD sort — one stable per-row pass, least-significant row first —
    keeps every pass on the radix path for ordinary table widths.
    """
    count = indexes.shape[1]
    order = _cell_argsort(indexes[-1])
    for row in indexes[-2::-1]:
        order = order[_cell_argsort(row[order])]
    cols = indexes[:, order]
    distinct = (cols[:, 1:] != cols[:, :-1]).any(axis=0)
    sorted_ids = np.empty(count, dtype=np.int64)
    sorted_ids[0] = 0
    sorted_ids[1:] = np.cumsum(distinct)
    groups = np.empty(count, dtype=np.int64)
    groups[order] = sorted_ids
    return groups


def _schedule(buckets: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Round number of every item of a single-row (bucket) kernel.

    Along each bucket's toucher sequence (stable cell sort keeps stream
    order), the round is the index of the item's *run* of consecutive
    same-group arrivals: ``round[i] = round[i-1] + (group changed)``,
    i.e. one plus the number of group boundaries before the item within
    its bucket's sequence — a segmented prefix count.
    """
    count = len(buckets)
    rounds = np.ones(count, dtype=np.int64)
    if count < 2:
        return rounds
    order = _cell_argsort(buckets)
    sorted_cells = buckets[order]
    new_cell = np.empty(count, dtype=bool)
    new_cell[0] = True
    np.not_equal(sorted_cells[1:], sorted_cells[:-1], out=new_cell[1:])
    sorted_groups = groups[order]
    boundary = np.zeros(count, dtype=np.int64)
    boundary[1:] = ~new_cell[1:] & (sorted_groups[1:] != sorted_groups[:-1])
    boundary_count = np.cumsum(boundary)
    segment = np.cumsum(new_cell) - 1
    segment_base = boundary_count[np.flatnonzero(new_cell)][segment]
    rounds[order] = 1 + boundary_count - segment_base
    return rounds


#: Round sizes below this replay per item instead of paying the fixed cost
#: of a closed-form round (a few dozen small array operations).
_SCALAR_TAIL = 24

#: Per-family frontier tuning: (internal sub-chunk length, replay-tail
#: threshold).  The frontier round count tracks the longest key-alternation
#: chain per cell, which grows with the batch length, so an unbounded batch
#: pays quadratically in rounds; stream-order sub-chunks are bit-invisible
#: (the table mutates in place and RNG positions are absolute).  Deeper
#: tables (stricter frontiers, smaller rounds) prefer shorter chunks and
#: earlier replay bails; both pairs sit on the measured 1M-item Zipf
#: throughput plateau.
_COCO_CHUNK, _COCO_TAIL = 8192, 64
_PRECISION_CHUNK, _PRECISION_TAIL = 4096, 128

#: HashPipe's eviction-walk tail threshold.  The pass-only filter already
#: prunes the walk down to contended cells, so closed-form rounds stay
#: densely populated and replay only pays off for the very last stragglers.
_HASHPIPE_TAIL = 8


def _round_slices(rounds: np.ndarray, buckets: np.ndarray):
    """Items ordered by (round, bucket, stream position), sliced per round.

    Within a round every bucket is touched by exactly one group, so the
    bucket index doubles as the segment key — it is small enough for the
    radix sort path, unlike the interned key ids.

    Yields ``(positions, is_tail)`` pairs.  Once a round shrinks below
    :data:`_SCALAR_TAIL` items, all still-pending items are emitted as one
    final tail (``is_tail=True``, in stream order) for per-item replay:
    the schedule guarantees no pending item shares a bucket with an
    already-applied item that follows it in the stream (that would force
    the pending item into an earlier round), so replaying the pending
    suffix item by item is exactly the scalar semantics — and far cheaper
    than running dozens of near-empty closed-form rounds.
    """
    order = _cell_argsort(buckets)
    order = order[_cell_argsort((rounds - 1)[order])]
    sorted_rounds = rounds[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_rounds[1:] != sorted_rounds[:-1]))
    )
    ends = np.append(starts[1:], len(order))
    for start, end in zip(starts, ends):
        if end - start < _SCALAR_TAIL:
            yield np.sort(order[start:]), True
            return
        yield order[start:end], False


def _segments(sorted_groups: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment boundaries of a group-sorted selection.

    Returns ``(seg_starts, seg_ends, seg_id)``: the first and last sorted
    position of each segment and, per item, the segment it belongs to.
    """
    count = len(sorted_groups)
    starts = np.empty(count, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=starts[1:])
    seg_starts = np.flatnonzero(starts)
    seg_ends = np.append(seg_starts[1:], count) - 1
    seg_id = np.cumsum(starts) - 1
    return seg_starts, seg_ends, seg_id


#: Relaxation passes before the conservative fixpoint falls back to the
#: per-item replay (only reachable on adversarial cross-row chains).
_MAX_FIXPOINT_PASSES = 60

#: Block size of the conservative fixpoint.  Interference chains cannot
#: span blocks (each block commits its counters before the next starts),
#: so the pass count — the depth of the longest cross-group raise chain —
#: stays small and roughly constant instead of growing with the batch.
_FIXPOINT_BLOCK = 8192


def _grouped_conservative(
    tables: np.ndarray, indexes: np.ndarray, values: np.ndarray, cap: int | None
) -> np.ndarray | None:
    """Blocked driver of :func:`_conservative_block` (see its docstring)."""
    count = values.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.int64) if cap is not None else None
    if count <= _FIXPOINT_BLOCK:
        return _conservative_block(tables, indexes, values, cap)
    leftovers = np.empty(count, dtype=np.int64) if cap is not None else None
    for start in range(0, count, _FIXPOINT_BLOCK):
        stop = min(start + _FIXPOINT_BLOCK, count)
        block = _conservative_block(tables, indexes[:, start:stop], values[start:stop], cap)
        if leftovers is not None:
            leftovers[start:stop] = block
    return leftovers


def _conservative_block(
    tables: np.ndarray, indexes: np.ndarray, values: np.ndarray, cap: int | None
) -> np.ndarray | None:
    """Shared CU / mice-filter engine: monotone fixpoint relaxation.

    Replaying conservative updates in stream order computes, for item
    ``i``, the write target ``t_i = min(cap, v_i + m_i)`` where ``m_i`` is
    the minimum over the item's cells of ``max(T₀[c], max{t_j : j < i
    touching c})`` — each counter's value at time ``i`` is its initial
    value raised by every earlier target written there, because the update
    is a pure ``max``.  Those equations have a unique solution (induction
    over stream position), and the operator behind them is monotone, so
    iterating it from below converges to exactly the sequential result —
    no round scheduling needed:

    * per row, the inner ``max{t_j : j < i at the same cell}`` is one
      *exclusive segmented running maximum* over the items sorted by
      (cell, stream position) — a whole cell chain propagates in a single
      pass, which is why a handful of passes suffice (each extra pass only
      resolves dependencies that hop between rows);
    * the final counters are ``max(T₀[c], max over t at c)``, one
      segmented maximum per row;
    * per-item leftovers (the mice filter's output) are ``v_i − (t_i −
      m_i)``, read off the converged fixpoint.

    The running maxima are segmented by adding ``segment · (max t + 1)``
    before one global ``np.maximum.accumulate``; if the needed offset would
    overflow ``int64`` (counters beyond ~2⁴⁶ in a 64Ki batch), or the
    passes fail to converge, the call falls back to the bit-identical
    per-item replay.
    """
    count = values.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.int64) if cap is not None else None
    depth = indexes.shape[0]
    int_min = np.int64(np.iinfo(np.int64).min)

    # Per-row, one-off: items sorted by (cell, stream position), segment
    # structure, and the initial counter reading of every touched cell.
    metas = []
    for row in range(depth):
        cells = indexes[row]
        order = _cell_argsort(cells)
        sorted_cells = cells[order]
        new_cell = np.empty(count, dtype=bool)
        new_cell[0] = True
        np.not_equal(sorted_cells[1:], sorted_cells[:-1], out=new_cell[1:])
        segment = np.cumsum(new_cell) - 1
        seg_starts = np.flatnonzero(new_cell)
        initial = tables[row, sorted_cells]
        metas.append((order, sorted_cells, new_cell, segment, seg_starts, initial))

    # Start the iteration from each tuple group's *own* closed form —
    # ``min(cap, low + S_i)`` with ``low`` the group's entry minimum and
    # ``S`` its value prefix sums.  This is exact absent cross-group
    # interference and always a lower bound on the true targets, so the
    # whole chain of a hot key is resolved before the first pass; the
    # passes only need to propagate the (rare) cross-group raises.
    # A tightly capped table (the 2-bit mice filter) can skip the grouping
    # work: every chain saturates within ``cap`` hops, so the plain
    # per-item lower bound converges just as surely in a handful of passes.
    if cap is not None and cap <= 16:
        low = tables[0, indexes[0]]
        for row in range(1, depth):
            np.minimum(low, tables[row, indexes[row]], out=low)
        targets = np.minimum(low + values, cap)
    else:
        groups = _tuple_groups(indexes)
        group_order = _cell_argsort(groups)
        grouped_values = values[group_order]
        seg_starts_g, _, seg_id_g = _segments(groups[group_order])
        cumulative = np.cumsum(grouped_values)
        base = (cumulative[seg_starts_g] - grouped_values[seg_starts_g])[seg_id_g]
        prefix = cumulative - base
        rep_items = group_order[seg_starts_g]
        rep_cells = indexes[:, rep_items]
        low_rep = tables[np.arange(depth)[:, None], rep_cells].min(axis=0)
        targets = np.empty(count, dtype=np.int64)
        targets[group_order] = low_rep[seg_id_g] + prefix
        if cap is not None:
            np.minimum(targets, cap, out=targets)

    floors = None
    candidate = np.empty((depth, count), dtype=np.int64)
    for _ in range(_MAX_FIXPOINT_PASSES):
        for row, (order, _, new_cell, segment, _, initial) in enumerate(metas):
            sorted_targets = targets[order]
            top = int(sorted_targets.max())
            offset_step = top + 1
            if offset_step > 0 and int(segment[-1]) + 1 > np.iinfo(np.int64).max // offset_step:
                return _replay_conservative(tables, indexes, values, cap)
            scan = sorted_targets + segment * offset_step
            np.maximum.accumulate(scan, out=scan)
            before = np.empty(count, dtype=np.int64)
            before[0] = int_min
            before[1:] = scan[:-1] - segment[1:] * offset_step
            before[new_cell] = int_min  # first toucher of a cell sees no prior target
            candidate[row][order] = np.maximum(initial, before)
        floors = candidate.min(axis=0)
        new_targets = floors + values
        if cap is not None:
            np.minimum(new_targets, cap, out=new_targets)
        if np.array_equal(new_targets, targets):
            break
        targets = new_targets
    else:
        return _replay_conservative(tables, indexes, values, cap)

    # Commit: every touched counter rises to the largest target written to
    # it (max is order-independent, so one segmented maximum per row).
    for row, (order, sorted_cells, _, _, seg_starts, initial) in enumerate(metas):
        sorted_targets = targets[order]
        peaks = np.maximum.reduceat(sorted_targets, seg_starts)
        touched = sorted_cells[seg_starts]
        tables[row, touched] = np.maximum(tables[row, touched], peaks)
    if cap is None:
        return None
    return values - (targets - floors)


def _replay_conservative(
    tables: np.ndarray, indexes: np.ndarray, values: np.ndarray, cap: int | None
) -> np.ndarray | None:
    """Per-item fallback, shared with the python-replay backend."""
    from repro.kernels import python_backend

    if cap is None:
        python_backend.cu_update(tables, indexes, values)
        return None
    return python_backend.saturating_update(tables, indexes, values, cap)


def cu_update(tables: np.ndarray, indexes: np.ndarray, values: np.ndarray) -> None:
    """Conservative updates for a whole batch via fixpoint relaxation."""
    _grouped_conservative(tables, indexes, values, cap=None)


def saturating_update(
    tables: np.ndarray, indexes: np.ndarray, values: np.ndarray, cap: int
) -> np.ndarray:
    """Capped conservative updates; returns per-item leftovers.

    Saturation fast path: an item whose every counter already sits at the
    cap absorbs nothing and leaves no trace — its target is exactly the
    cap, which cannot raise anything, and capped cells can never grow, so
    excluding such items from the fixpoint is exact.  Once a mice filter
    has warmed up this covers most of the stream.
    """
    count = values.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    saturated = tables[0, indexes[0]] >= cap
    for row in range(1, indexes.shape[0]):
        saturated &= tables[row, indexes[row]] >= cap
    if not saturated.any():
        return _grouped_conservative(tables, indexes, values, cap=cap)
    leftovers = np.empty(count, dtype=np.int64)
    leftovers[saturated] = values[saturated]
    live = np.flatnonzero(~saturated)
    if live.size:
        leftovers[live] = _grouped_conservative(
            tables, indexes[:, live], values[live], cap=cap
        )
    return leftovers


def _first_crossing(
    flags: np.ndarray, seg_starts: np.ndarray, sentinel: int
) -> np.ndarray:
    """Per segment, the first sorted position where ``flags`` holds."""
    candidates = np.where(flags, _iota(len(flags)), sentinel)
    return np.minimum.reduceat(candidates, seg_starts)


def reliable_layer_update(
    key_ids: np.ndarray,
    yes: np.ndarray,
    no: np.ndarray,
    lam_floor: int,
    indexes: np.ndarray,
    item_ids: np.ndarray,
    remaining: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One ReliableSketch layer via conflict-free rounds.

    Groups are keys (same key, same bucket).  A block of ``m`` same-key
    arrivals at one bucket (entry state ``K/Y/N``, prefix sums ``S_i``)
    collapses into one of four closed forms:

    * **empty bucket** — adopt: ``Y = S_m``, ``N = 0``; all settle.
    * **matching key** — ``Y += S_m``; all settle.
    * **foreign key, Y > λ** (lock-eligible; votes can never reach ``Y``
      because they stop at λ < Y): votes accumulate until the first ``i``
      with ``N + S_i > λ``.  No crossing: ``N += S_m``, all settle.
      Crossing at ``i``: the lock absorbs ``max(0, λ - (N + S_{i-1}))``
      from item ``i`` and pins ``N`` at λ; item ``i`` survives with the
      rest and every later item passes through whole (once NO sits at or
      above the floor, nothing more fits under λ).
    * **foreign key, Y ≤ λ** (the lock cannot trigger): votes accumulate
      until the first ``i`` with ``N + S_i ≥ Y`` replaces the incumbent;
      the remaining items then vote YES, leaving ``Y = N + S_m``,
      ``N = Y_old``.  No crossing: ``N += S_m``.  All settle either way.
    """
    count = remaining.shape[0]
    survive = np.zeros(count, dtype=bool)
    excess_out = np.zeros(count, dtype=np.int64)
    if count == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)

    # Saturation fast path.  A bucket that is already *hard-locked* — NO at
    # or above the threshold floor with YES strictly above it — can never
    # change again within the batch: every foreign arrival takes the lock
    # branch with nothing left to absorb (state untouched, value passes
    # through whole) and every matching arrival only grows YES, which keeps
    # the lock condition true.  Both effects commute, so items landing on
    # such buckets skip the round machinery entirely; this is what keeps
    # steady-state ingest fast once a layer has locked up.
    touched = indexes
    locked_buckets = (no[touched] >= lam_floor) & (yes[touched] > lam_floor)
    if locked_buckets.any():
        on_locked = np.flatnonzero(locked_buckets)
        matching = key_ids[touched[on_locked]] == item_ids[on_locked]
        passing = on_locked[~matching]
        survive[passing] = True
        excess_out[passing] = remaining[passing]
        growing = on_locked[matching]
        if growing.size:
            grow_buckets = indexes[growing]
            order = _cell_argsort(grow_buckets)
            sorted_buckets = grow_buckets[order]
            starts = np.flatnonzero(
                np.concatenate(([True], sorted_buckets[1:] != sorted_buckets[:-1]))
            )
            yes[sorted_buckets[starts]] += np.add.reduceat(
                remaining[growing][order], starts
            )
        live = np.flatnonzero(~locked_buckets)
        if not live.size:
            survivors_out = np.flatnonzero(survive)
            return survivors_out, excess_out[survivors_out]
        indexes = indexes[live]
        item_ids = item_ids[live]
        live_remaining = remaining[live]
    else:
        live = None
        live_remaining = remaining

    rounds = _schedule(indexes, item_ids)
    for pos, is_tail in _round_slices(rounds, indexes):
        out_pos = pos if live is None else live[pos]
        if is_tail:
            from repro.kernels import python_backend

            tail_survivors, tail_excess = python_backend.reliable_layer_update(
                key_ids, yes, no, lam_floor,
                indexes[pos], item_ids[pos], live_remaining[pos],
            )
            survive[out_pos[tail_survivors]] = True
            excess_out[out_pos[tail_survivors]] = tail_excess
            break
        values = live_remaining[pos]
        seg_starts, seg_ends, seg_id = _segments(indexes[pos])
        cumulative = np.cumsum(values)
        base = (cumulative[seg_starts] - values[seg_starts])[seg_id]
        prefix = cumulative - base
        totals = prefix[seg_ends]
        buckets = indexes[pos[seg_starts]]
        group_ids = item_ids[pos[seg_starts]]
        held = key_ids[buckets]
        pos_votes = yes[buckets]
        neg_votes = no[buckets]

        empty = held == EMPTY_ID
        match = held == group_ids
        foreign = ~(empty | match)
        if empty.any():
            adopted = buckets[empty]
            key_ids[adopted] = group_ids[empty]
            yes[adopted] = totals[empty]
            no[adopted] = 0
        if match.any():
            yes[buckets[match]] += totals[match]
        if foreign.any():
            sentinel = len(pos)
            item_index = _iota(sentinel)
            lock_eligible = foreign & (pos_votes > lam_floor)
            # --- lock-eligible segments -------------------------------
            crossed = (neg_votes[seg_id] + prefix) > lam_floor
            first = _first_crossing(crossed, seg_starts, sentinel)
            locked = lock_eligible & (first < sentinel)
            vote_only = lock_eligible & ~locked
            if vote_only.any():
                no[buckets[vote_only]] += totals[vote_only]
            if locked.any():
                safe_first = np.minimum(first, sentinel - 1)
                pre_votes = neg_votes + prefix[safe_first] - values[safe_first]
                absorbed = lam_floor - pre_votes
                no[buckets[locked]] = np.where(
                    absorbed[locked] > 0, lam_floor, pre_votes[locked]
                )
                item_locked = locked[seg_id]
                item_first = first[seg_id]
                survivors = item_locked & (item_index >= item_first)
                item_excess = np.where(
                    item_index == item_first,
                    values - np.maximum(absorbed[seg_id], 0),
                    values,
                )
                survive[out_pos[survivors]] = True
                excess_out[out_pos[survivors]] = item_excess[survivors]
            # --- replacement-eligible segments ------------------------
            vote_eligible = foreign & ~lock_eligible
            reached = (neg_votes[seg_id] + prefix) >= pos_votes[seg_id]
            first_reach = _first_crossing(reached, seg_starts, sentinel)
            replaced = vote_eligible & (first_reach < sentinel)
            outvoted = vote_eligible & ~replaced
            if outvoted.any():
                no[buckets[outvoted]] += totals[outvoted]
            if replaced.any():
                swapped = buckets[replaced]
                key_ids[swapped] = group_ids[replaced]
                no[swapped] = pos_votes[replaced]
                yes[swapped] = (neg_votes + totals)[replaced]
    survivors_out = np.flatnonzero(survive)
    return survivors_out, excess_out[survivors_out]


def elastic_update(
    key_ids: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    flags: np.ndarray,
    eviction_ratio: int,
    indexes: np.ndarray,
    item_ids: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elastic heavy-part replay via conflict-free rounds.

    Same-key blocks at one bucket collapse like ReliableSketch's, with the
    eviction test ``N + S_i ≥ ratio · P`` in place of the lock: no crossing
    means every item of the block light-inserts itself (``N += S_m``); a
    crossing at ``i`` light-inserts items before ``i``, evicts the
    incumbent (one light insert of ``(K, P)`` for the caller), installs the
    key with ``P = v_i + (S_m - S_i)``, ``N = 1`` and the ejected flag set.
    """
    count = values.shape[0]
    light = np.zeros(count, dtype=bool)
    evicted_ids: list[np.ndarray] = []
    evicted_values: list[np.ndarray] = []
    if count == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.intp), empty, empty.copy()
    rounds = _schedule(indexes, item_ids)
    for pos, is_tail in _round_slices(rounds, indexes):
        if is_tail:
            from repro.kernels import python_backend

            tail_light, tail_ids, tail_values = python_backend.elastic_update(
                key_ids, positive, negative, flags, eviction_ratio,
                indexes[pos], item_ids[pos], values[pos],
            )
            light[pos[tail_light]] = True
            if tail_ids.size:
                evicted_ids.append(tail_ids)
                evicted_values.append(tail_values)
            break
        item_values = values[pos]
        seg_starts, seg_ends, seg_id = _segments(indexes[pos])
        cumulative = np.cumsum(item_values)
        base = (cumulative[seg_starts] - item_values[seg_starts])[seg_id]
        prefix = cumulative - base
        totals = prefix[seg_ends]
        buckets = indexes[pos[seg_starts]]
        group_ids = item_ids[pos[seg_starts]]
        held = key_ids[buckets]
        incumbency = positive[buckets]
        neg_votes = negative[buckets]

        empty = held == EMPTY_ID
        match = held == group_ids
        foreign = ~(empty | match)
        if empty.any():
            adopted = buckets[empty]
            key_ids[adopted] = group_ids[empty]
            positive[adopted] = totals[empty]
            negative[adopted] = 0
            flags[adopted] = False
        if match.any():
            positive[buckets[match]] += totals[match]
        if foreign.any():
            sentinel = len(pos)
            item_index = _iota(sentinel)
            crossed = (neg_votes[seg_id] + prefix) >= (eviction_ratio * incumbency)[seg_id]
            first = _first_crossing(crossed, seg_starts, sentinel)
            evicting = foreign & (first < sentinel)
            voting = foreign & ~evicting
            if voting.any():
                negative[buckets[voting]] += totals[voting]
            item_foreign = foreign[seg_id]
            item_first = first[seg_id]
            light_here = item_foreign & (item_index < item_first)
            light[pos[light_here]] = True
            if evicting.any():
                swapped = buckets[evicting]
                evicted_ids.append(held[evicting])
                evicted_values.append(incumbency[evicting])
                safe_first = np.minimum(first, sentinel - 1)
                tail = item_values[safe_first] + totals - prefix[safe_first]
                key_ids[swapped] = group_ids[evicting]
                positive[swapped] = tail[evicting]
                negative[swapped] = 1
                flags[swapped] = True
    return (
        np.flatnonzero(light),
        np.concatenate(evicted_ids) if evicted_ids else np.empty(0, dtype=np.int64),
        np.concatenate(evicted_values) if evicted_values else np.empty(0, dtype=np.int64),
    )


def counter_rand_batch(seed: int, positions: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.kernels.scalar.counter_rand`.

    ``uint64`` wraparound is NumPy's native modular arithmetic, so every
    intermediate matches the masked Python-int computation bit for bit, and
    ``z >> 11 < 2^53`` makes the float conversion exact.
    """
    one = np.uint64(1)
    z = np.uint64(seed & _MASK64) + (positions.astype(np.uint64) + one) * np.uint64(
        _SPLITMIX_GAMMA
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def _frontier(
    indexes: np.ndarray,
    item_ids: np.ndarray,
    row_orders: list[np.ndarray],
    eligible: np.ndarray,
) -> np.ndarray:
    """Clear ``eligible`` down to a multi-row frontier round (Coco / PRECISION).

    An item is *eligible* when, in every row, it sits inside the leading
    same-key run of its cell's pending queue (sorted by cell, ties in
    stream order).  Eligible items of one key form a prefix of that key's
    pending arrivals, and no two eligible keys share a cell (a shared
    cell's leading run holds one key), so all eligible groups commute and
    each collapses with its closed form; the earliest pending item heads
    every queue it is in, so at least one item is always eligible.

    ``row_orders[row]`` lists the pending items sorted by (cell, stream
    position); ``eligible`` arrives as the pending mask.  The orders are
    computed once per chunk and *filtered* as rounds retire items — a
    sorted array stays sorted under filtering — so no round re-sorts.
    """
    for row, order in enumerate(row_orders):
        seg_starts, _, seg_id = _segments(indexes[row][order])
        sorted_ids = item_ids[order]
        foreign = sorted_ids != sorted_ids[seg_starts][seg_id]
        first = _first_crossing(foreign, seg_starts, order.size)
        eligible[order[_iota(order.size) >= first[seg_id]]] = False
    return eligible


def _row_min(stack: np.ndarray, offset: np.ndarray | int = 0) -> np.ndarray:
    """Per column of ``(d, n) + offset/k`` forms: ``min_k max(s_k, ...)``.

    The water-filling level of Coco's contended runs: with ``stack`` the
    ascending per-column entry counts ``s`` and their prefix sums ``P``,
    the minimum counter after ``w`` unit pours is
    ``min_{k=1..d} max(s_k, (P_k + w) // k)`` (pours fill the lowest
    counters first; the k-th term is the level assuming the k smallest
    counters share the pours).
    """
    s, prefix = stack
    level = None
    for k in range(s.shape[0]):
        candidate = np.maximum(s[k], (prefix[k] + offset) // (k + 1))
        level = candidate if level is None else np.minimum(level, candidate)
    return level


def coco_update(
    key_ids: np.ndarray,
    counts: np.ndarray,
    indexes: np.ndarray,
    item_ids: np.ndarray,
    values: np.ndarray,
    positions: np.ndarray,
    seed: int,
) -> None:
    """CocoSketch batch update via conflict-free frontier rounds.

    Each round takes the :func:`_frontier` of the pending items and
    collapses every eligible same-key run with a closed form against the
    run's d entry cells:

    * **some row matches** — the first matching row absorbs the whole run.
    * **no match, some row empty** — the first empty row is the first
      strict minimum (empties read 0, occupied cells are ≥ 1), so it
      adopts the key with the run total.
    * **all rows foreign, unit values** — the run is a sequence of unit
      pours into the current first-minimum cell, each followed by the
      ``1 / (min + 1)`` replacement draw.  Water-filling gives the minimum
      after ``w`` pours in closed form (:func:`_row_min`), the per-item
      draws come from :func:`counter_rand_batch`, and the final counters
      are the entry counts leveled up to the failure level plus the
      leftover pours in table order; the first successful draw installs
      the key at the then-minimum cell and the rest of the run merges
      there.
    * **all rows foreign, weighted values** — a weighted pour moves the
      minimum in value-dependent jumps that have no closed level formula,
      so these (rare) groups replay per item.

    Rounds whose pending or eligible set drops below the family's replay
    tail replay the whole pending suffix in stream order instead (legal
    for the same reason as :func:`_round_slices`'s tail).

    Batches longer than :data:`_COCO_CHUNK` run as stream-order
    sub-chunks: the round count tracks the longest key-alternation chain
    per cell, which grows with the batch, so bounding the chunk bounds the
    rounds.  Sequential sub-batches compose (the table mutates in place)
    and ``positions`` carries absolute RNG indexes, so the split is
    bit-invisible.
    """
    count = item_ids.shape[0]
    if count == 0:
        return
    if count > _COCO_CHUNK:
        for lo in range(0, count, _COCO_CHUNK):
            hi = min(lo + _COCO_CHUNK, count)
            coco_update(
                key_ids, counts, indexes[:, lo:hi], item_ids[lo:hi],
                values[lo:hi], positions[lo:hi], seed,
            )
        return
    depth = indexes.shape[0]
    row_index = np.arange(depth)

    def replay(items: np.ndarray) -> None:
        from repro.kernels import python_backend

        python_backend.coco_update(
            key_ids, counts, indexes[:, items], item_ids[items],
            values[items], positions[items], seed,
        )

    # Sorted orders (per-row by cell, global by key id; ties in stream
    # order) are computed once and filtered as rounds retire items.
    row_orders = [_cell_argsort(row_cells) for row_cells in indexes]
    key_order = _cell_argsort(item_ids)
    alive = np.ones(count, dtype=bool)
    pending = count
    while pending:
        if pending < _COCO_TAIL:
            replay(np.flatnonzero(alive))
            break
        eligible = _frontier(indexes, item_ids, row_orders, alive.copy())
        sel = key_order[eligible[key_order]]
        if sel.size < _COCO_TAIL:
            replay(np.flatnonzero(alive))
            break
        ids = item_ids[sel]
        vals = values[sel]
        seg_starts, seg_ends, seg_id = _segments(ids)
        cumulative = np.cumsum(vals)
        base = (cumulative[seg_starts] - vals[seg_starts])[seg_id]
        prefix = cumulative - base
        totals = prefix[seg_ends]
        reps = sel[seg_starts]
        group_count = reps.size
        g_index = _iota(group_count)
        gcells = indexes[:, reps]
        gids = ids[seg_starts]
        held = key_ids[row_index[:, None], gcells]

        match_row = np.full(group_count, depth, dtype=np.int64)
        empty_row = np.full(group_count, depth, dtype=np.int64)
        for row in range(depth - 1, -1, -1):
            match_row = np.where(held[row] == gids, row, match_row)
            empty_row = np.where(held[row] == EMPTY_ID, row, empty_row)

        matched = match_row < depth
        if matched.any():
            rows_m = match_row[matched]
            cells_m = gcells[rows_m, g_index[matched]]
            counts[rows_m, cells_m] += totals[matched]
        fresh = ~matched & (empty_row < depth)
        if fresh.any():
            rows_f = empty_row[fresh]
            cells_f = gcells[rows_f, g_index[fresh]]
            key_ids[rows_f, cells_f] = gids[fresh]
            counts[rows_f, cells_f] = totals[fresh]
        contended = ~matched & (empty_row == depth)
        if contended.any():
            all_unit = np.maximum.reduceat(vals, seg_starts) == 1
            hard = contended & ~all_unit
            if hard.any():
                replay(np.sort(sel[hard[seg_id]]))
            easy = contended & all_unit
            if easy.any():
                idx = np.flatnonzero(easy)
                bins = counts[row_index[:, None], gcells[:, idx]]
                stack = np.sort(bins, axis=0)
                stack = (stack, np.cumsum(stack, axis=0))
                run_len = (seg_ends - seg_starts + 1)[idx]
                # Per-item replacement draws against the closed-form minimum.
                e_items = np.flatnonzero(easy[seg_id])
                e_local = np.full(group_count, -1, dtype=np.int64)
                e_local[idx] = np.arange(idx.size)
                pours = (np.arange(len(sel)) - seg_starts[seg_id])[e_items]
                gl = e_local[seg_id[e_items]]
                minima = _row_min((stack[0][:, gl], stack[1][:, gl]), pours)
                draws = counter_rand_batch(seed, positions[sel[e_items]])
                flags = np.zeros(len(sel), dtype=bool)
                flags[e_items] = draws < 1.0 / (minima + 1).astype(np.float64)
                first = _first_crossing(flags, seg_starts, len(sel))[idx]
                succeeded = first <= seg_ends[idx]
                poured = np.where(succeeded, first - seg_starts[idx], run_len)
                # Entry counts after the failed pours: level up to L, then
                # the leftover pours raise the first eligible bins +1 each
                # in table order.
                level = _row_min(stack, poured)
                cost = np.maximum(level[None, :] - bins, 0).sum(axis=0)
                leftover = poured - cost
                eligible_bins = bins <= level[None, :]
                filled = np.maximum(bins, level[None, :])
                rank = np.cumsum(eligible_bins, axis=0)
                filled += eligible_bins & (rank <= leftover[None, :])
                minimum_row = np.argmin(filled, axis=0)
                filled[minimum_row, np.arange(idx.size)] += run_len - poured
                cells_e = gcells[:, idx]
                for row in range(depth):
                    counts[row, cells_e[row]] = filled[row]
                if succeeded.any():
                    sc = np.flatnonzero(succeeded)
                    rows_s = minimum_row[sc]
                    key_ids[rows_s, cells_e[rows_s, sc]] = gids[idx[sc]]
        alive &= ~eligible
        pending -= sel.size
        key_order = key_order[~eligible[key_order]]
        row_orders = [order[~eligible[order]] for order in row_orders]


def precision_update(
    key_ids: np.ndarray,
    counts: np.ndarray,
    indexes: np.ndarray,
    item_ids: np.ndarray,
    values: np.ndarray,
    positions: np.ndarray,
    seed: int,
) -> int:
    """PRECISION batch update via conflict-free frontier rounds.

    Same frontier machinery as :func:`coco_update`; the closed forms are
    simpler because a failed recirculation draw leaves the table untouched:

    * the winner row (first match or first empty, whichever is earlier)
      absorbs or adopts the whole run;
    * an all-foreign run sees a *constant* minimum entry ``C`` until a draw
      succeeds — items draw against ``value / (C + value)`` independently,
      the first success replaces the minimum entry (``count = C + value``)
      and the rest of the run merges there.  Closed for arbitrary values,
      so there is no weighted replay path.

    Long batches split into stream-order sub-chunks of
    :data:`_PRECISION_CHUNK` items, exactly as in :func:`coco_update`.
    Returns the number of recirculations (entry replacements).
    """
    count = item_ids.shape[0]
    recirculations = 0
    if count == 0:
        return 0
    if count > _PRECISION_CHUNK:
        for lo in range(0, count, _PRECISION_CHUNK):
            hi = min(lo + _PRECISION_CHUNK, count)
            recirculations += precision_update(
                key_ids, counts, indexes[:, lo:hi], item_ids[lo:hi],
                values[lo:hi], positions[lo:hi], seed,
            )
        return recirculations
    depth = indexes.shape[0]
    row_index = np.arange(depth)

    def replay(items: np.ndarray) -> int:
        from repro.kernels import python_backend

        return python_backend.precision_update(
            key_ids, counts, indexes[:, items], item_ids[items],
            values[items], positions[items], seed,
        )

    row_orders = [_cell_argsort(row_cells) for row_cells in indexes]
    key_order = _cell_argsort(item_ids)
    alive = np.ones(count, dtype=bool)
    pending = count
    while pending:
        if pending < _PRECISION_TAIL:
            recirculations += replay(np.flatnonzero(alive))
            break
        eligible = _frontier(indexes, item_ids, row_orders, alive.copy())
        sel = key_order[eligible[key_order]]
        if sel.size < _PRECISION_TAIL:
            recirculations += replay(np.flatnonzero(alive))
            break
        ids = item_ids[sel]
        vals = values[sel]
        seg_starts, seg_ends, seg_id = _segments(ids)
        cumulative = np.cumsum(vals)
        base = (cumulative[seg_starts] - vals[seg_starts])[seg_id]
        prefix = cumulative - base
        totals = prefix[seg_ends]
        reps = sel[seg_starts]
        group_count = reps.size
        g_index = _iota(group_count)
        gcells = indexes[:, reps]
        gids = ids[seg_starts]
        held = key_ids[row_index[:, None], gcells]

        match_row = np.full(group_count, depth, dtype=np.int64)
        empty_row = np.full(group_count, depth, dtype=np.int64)
        for row in range(depth - 1, -1, -1):
            match_row = np.where(held[row] == gids, row, match_row)
            empty_row = np.where(held[row] == EMPTY_ID, row, empty_row)

        matched = match_row < empty_row
        if matched.any():
            rows_m = match_row[matched]
            cells_m = gcells[rows_m, g_index[matched]]
            counts[rows_m, cells_m] += totals[matched]
        fresh = empty_row < match_row
        if fresh.any():
            rows_f = empty_row[fresh]
            cells_f = gcells[rows_f, g_index[fresh]]
            key_ids[rows_f, cells_f] = gids[fresh]
            counts[rows_f, cells_f] = totals[fresh]
        contended = np.minimum(match_row, empty_row) == depth
        if contended.any():
            idx = np.flatnonzero(contended)
            sub = counts[row_index[:, None], gcells[:, idx]]
            minimum_row = np.argmin(sub, axis=0)
            entry_min = sub[minimum_row, np.arange(idx.size)]
            c_local = np.full(group_count, -1, dtype=np.int64)
            c_local[idx] = np.arange(idx.size)
            c_items = np.flatnonzero(contended[seg_id])
            gl = c_local[seg_id[c_items]]
            item_vals = vals[c_items]
            draws = counter_rand_batch(seed, positions[sel[c_items]])
            denominator = (entry_min[gl] + item_vals).astype(np.float64)
            flags = np.zeros(len(sel), dtype=bool)
            flags[c_items] = draws < item_vals.astype(np.float64) / denominator
            first = _first_crossing(flags, seg_starts, len(sel))[idx]
            succeeded = first <= seg_ends[idx]
            if succeeded.any():
                sc = np.flatnonzero(succeeded)
                f = first[sc]
                rows_s = minimum_row[sc]
                cells_s = gcells[rows_s, idx[sc]]
                counts[rows_s, cells_s] = (
                    entry_min[sc] + vals[f] + totals[idx[sc]] - prefix[f]
                )
                key_ids[rows_s, cells_s] = gids[idx[sc]]
                recirculations += int(sc.size)
        alive &= ~eligible
        pending -= sel.size
        key_order = key_order[~eligible[key_order]]
        row_orders = [order[~eligible[order]] for order in row_orders]
    return recirculations


def hashpipe_update(
    key_ids: np.ndarray,
    counts: np.ndarray,
    stage_cells: np.ndarray,
    item_ids: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """HashPipe batch update: stage-1 rounds, then a per-stage token pipeline.

    The pipeline stages touch disjoint arrays, so the batch separates into
    phases without changing any outcome: first *all* stage-1 transitions
    (closed per-cell form — stage 1 installs unconditionally, so each
    same-key run installs its total, evicting the previous holder as a
    *token* stamped with the evicting item's stream position, and only the
    last run of a cell survives), then the walk stages in order, each
    processing its tokens in stream-position order with the conflict-free
    round machinery.  A token group at one cell either merges
    (match), settles (empty), or passes tokens through until the first one
    that beats the incumbent — that token swaps in (absorbing the rest of
    the group: they now match) and the incumbent is emitted at its
    position.  Tokens cannot overtake (each stage emits in position
    order), so per-stage position order is exactly the scalar interleaving.

    Returns ``stage_entries``, where ``stage_entries[row]`` counts tokens
    entering walk stage ``row`` (the scalar per-stage hash-call
    accounting).
    """
    depth = key_ids.shape[0]
    count = item_ids.shape[0]
    stage_entries = np.zeros(depth, dtype=np.int64)
    if count == 0:
        return stage_entries

    from repro.kernels.scalar import hashpipe_token_apply

    token_pos_parts: list[np.ndarray] = []
    token_id_parts: list[np.ndarray] = []
    token_count_parts: list[np.ndarray] = []

    # --- Phase A: stage 1 -------------------------------------------------
    # Stage 1 always installs, so a cell's batch outcome is a pure function
    # of its run sequence (consecutive same-key arrivals, stream order kept
    # by the stable cell sort): each run installs its key with its total,
    # evicting the previous holder as a token at the run's first (evicting)
    # item; only the last run survives, and a first run whose key matches
    # the pre-batch incumbent merges instead of evicting.  One sorted pass,
    # no rounds.
    cells0 = stage_cells[0, item_ids]
    order = _cell_argsort(cells0)
    sc = cells0[order]
    sids = item_ids[order]
    svals = values[order]
    new_cell = np.empty(count, dtype=bool)
    new_cell[0] = True
    np.not_equal(sc[1:], sc[:-1], out=new_cell[1:])
    new_run = new_cell.copy()
    new_run[1:] |= sids[1:] != sids[:-1]
    run_starts = np.flatnonzero(new_run)
    run_count = run_starts.size
    run_ends = np.empty(run_count, dtype=np.int64)
    run_ends[:-1] = run_starts[1:] - 1
    run_ends[-1] = count - 1
    cumulative = np.cumsum(svals)
    run_totals = cumulative[run_ends] - cumulative[run_starts] + svals[run_starts]
    run_cells = sc[run_starts]
    run_keys = sids[run_starts]
    run_pos = order[run_starts]
    first_run = new_cell[run_starts]
    held = key_ids[0, run_cells]
    incumbent = counts[0, run_cells]
    merged = first_run & (held == run_keys)
    eff_totals = run_totals + np.where(merged, incumbent, 0)
    evicts_incumbent = first_run & ~merged & (held != EMPTY_ID)
    if evicts_incumbent.any():
        token_pos_parts.append(run_pos[evicts_incumbent])
        token_id_parts.append(held[evicts_incumbent])
        token_count_parts.append(incumbent[evicts_incumbent])
    later = np.flatnonzero(~first_run)
    if later.size:
        token_pos_parts.append(run_pos[later])
        token_id_parts.append(run_keys[later - 1])
        token_count_parts.append(eff_totals[later - 1])
    last_run = np.empty(run_count, dtype=bool)
    last_run[:-1] = first_run[1:]
    last_run[-1] = True
    survivors = np.flatnonzero(last_run)
    key_ids[0, run_cells[survivors]] = run_keys[survivors]
    counts[0, run_cells[survivors]] = eff_totals[survivors]

    token_pos = np.concatenate(token_pos_parts) if token_pos_parts else np.empty(0, dtype=np.int64)
    token_ids = np.concatenate(token_id_parts) if token_id_parts else np.empty(0, dtype=np.int64)
    token_counts = np.concatenate(token_count_parts) if token_count_parts else np.empty(0, dtype=np.int64)
    order = _cell_argsort(token_pos)
    token_pos, token_ids, token_counts = token_pos[order], token_ids[order], token_counts[order]

    # --- Phase B: the eviction walk, one stage at a time ------------------
    for stage in range(1, depth):
        if not token_ids.size:
            break
        stage_entries[stage] = token_ids.size
        next_pos_parts: list[np.ndarray] = []
        next_id_parts: list[np.ndarray] = []
        next_count_parts: list[np.ndarray] = []
        cells_r = stage_cells[stage, token_ids]
        # Pass-only short-circuit.  Within one stage a cell's counter only
        # ever grows (merges and installs add, a swap installs a strictly
        # larger total), so a cell whose incumbent is non-empty, matches no
        # token key and outranks every token count provably never changes:
        # all of its tokens pass straight through.  Under a skewed stream
        # most cells hold heavy keys while the walking tokens are mice, so
        # the round machinery below typically sees only a small remnant.
        order = _cell_argsort(cells_r)
        sc = cells_r[order]
        seg_starts, _, seg_id = _segments(sc)
        held_c = key_ids[stage, sc[seg_starts]]
        incumbent_c = counts[stage, sc[seg_starts]]
        token_max = np.maximum.reduceat(token_counts[order], seg_starts)
        match_any = np.logical_or.reduceat(
            token_ids[order] == held_c[seg_id], seg_starts
        )
        inactive = (held_c != EMPTY_ID) & ~match_any & (token_max <= incumbent_c)
        active_tokens = ~inactive[seg_id]
        if not active_tokens.any():
            continue  # every token passes; arrays stay position-sorted
        if not active_tokens.all():
            pass_sel = order[~active_tokens]
            next_pos_parts.append(token_pos[pass_sel])
            next_id_parts.append(token_ids[pass_sel])
            next_count_parts.append(token_counts[pass_sel])
        s_sel = order[active_tokens]
        s_cells = sc[active_tokens]
        s_pos = token_pos[s_sel]
        s_ids = token_ids[s_sel]
        s_counts = token_counts[s_sel]
        # Rounds, computed in the (cell, position)-sorted domain the filter
        # already built instead of re-sorting through ``_schedule`` /
        # ``_round_slices``: an item's round is the index of its run of
        # consecutive same-key arrivals within its cell's sequence, and one
        # stable radix pass on the round numbers yields the
        # (round, cell, position) processing order.
        remnant = s_sel.size
        new_cell = np.empty(remnant, dtype=bool)
        new_cell[0] = True
        np.not_equal(s_cells[1:], s_cells[:-1], out=new_cell[1:])
        boundary = np.zeros(remnant, dtype=np.int64)
        boundary[1:] = ~new_cell[1:] & (s_ids[1:] != s_ids[:-1])
        boundary_count = np.cumsum(boundary)
        segment = np.cumsum(new_cell) - 1
        rounds = boundary_count - boundary_count[np.flatnonzero(new_cell)][segment]
        by_round = _cell_argsort(rounds)
        sorted_rounds = rounds[by_round]
        g_cells = s_cells[by_round]
        g_counts = s_counts[by_round]
        g_ids = s_ids[by_round]
        # (round, cell) segment structure and in-segment prefix sums for
        # *all* rounds in one pass; every round's slice below reuses these
        # instead of re-deriving its own segments and cumulative sums.
        new_seg = np.empty(remnant, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = (sorted_rounds[1:] != sorted_rounds[:-1]) | (
            g_cells[1:] != g_cells[:-1]
        )
        g_seg_starts = np.flatnonzero(new_seg)
        g_seg_id = np.cumsum(new_seg) - 1
        g_seg_ends = np.append(g_seg_starts[1:], remnant) - 1
        g_cum = np.cumsum(g_counts)
        g_base = g_cum[g_seg_starts] - g_counts[g_seg_starts]
        g_prefix = g_cum - g_base[g_seg_id]
        g_totals = g_prefix[g_seg_ends]
        slice_starts = np.flatnonzero(
            np.concatenate(([True], sorted_rounds[1:] != sorted_rounds[:-1]))
        )
        slice_ends = np.append(slice_starts[1:], remnant)
        for start, end in zip(slice_starts.tolist(), slice_ends.tolist()):
            if end - start < _HASHPIPE_TAIL:
                pending = by_round[start:]
                pos = pending[_cell_argsort(s_pos[pending])]
                tail_pos = []
                tail_ids = []
                tail_counts = []
                cell_list = s_cells[pos].tolist()
                id_list = s_ids[pos].tolist()
                count_list = s_counts[pos].tolist()
                stream_list = s_pos[pos].tolist()
                for offset in range(len(cell_list)):
                    carry = hashpipe_token_apply(
                        key_ids[stage], counts[stage], cell_list[offset],
                        id_list[offset], count_list[offset],
                    )
                    if carry is not None:
                        tail_pos.append(stream_list[offset])
                        tail_ids.append(carry[0])
                        tail_counts.append(carry[1])
                next_pos_parts.append(np.asarray(tail_pos, dtype=np.int64))
                next_id_parts.append(np.asarray(tail_ids, dtype=np.int64))
                next_count_parts.append(np.asarray(tail_counts, dtype=np.int64))
                break
            pos = by_round[start:end]
            seg_lo = g_seg_id[start]
            seg_hi = g_seg_id[end - 1] + 1
            seg_starts = g_seg_starts[seg_lo:seg_hi] - start
            seg_ends = g_seg_ends[seg_lo:seg_hi] - start
            seg_id = g_seg_id[start:end] - seg_lo
            group_counts = g_counts[start:end]
            prefix = g_prefix[start:end]
            totals = g_totals[seg_lo:seg_hi]
            gcells = g_cells[g_seg_starts[seg_lo:seg_hi]]
            gids = g_ids[g_seg_starts[seg_lo:seg_hi]]
            held = key_ids[stage, gcells]
            incumbent = counts[stage, gcells]
            match = held == gids
            empty = held == EMPTY_ID
            foreign = ~(match | empty)
            if match.any():
                counts[stage, gcells[match]] += totals[match]
            if empty.any():
                cells_i = gcells[empty]
                key_ids[stage, cells_i] = gids[empty]
                counts[stage, cells_i] = totals[empty]
            if foreign.any():
                sentinel = len(pos)
                crossed = foreign[seg_id] & (group_counts > incumbent[seg_id])
                first = _first_crossing(crossed, seg_starts, sentinel)
                item_index = _iota(sentinel)
                passing = foreign[seg_id] & (item_index < first[seg_id])
                if passing.any():
                    through = pos[passing]
                    next_pos_parts.append(s_pos[through])
                    next_id_parts.append(s_ids[through])
                    next_count_parts.append(s_counts[through])
                swapped = foreign & (first <= seg_ends)
                if swapped.any():
                    si = np.flatnonzero(swapped)
                    f = first[si]
                    cells_s = gcells[si]
                    next_pos_parts.append(s_pos[pos[f]])
                    next_id_parts.append(held[si])
                    next_count_parts.append(incumbent[si])
                    key_ids[stage, cells_s] = gids[si]
                    counts[stage, cells_s] = (
                        group_counts[f] + totals[si] - prefix[f]
                    )
        token_pos = np.concatenate(next_pos_parts) if next_pos_parts else np.empty(0, dtype=np.int64)
        token_ids = np.concatenate(next_id_parts) if next_id_parts else np.empty(0, dtype=np.int64)
        token_counts = np.concatenate(next_count_parts) if next_count_parts else np.empty(0, dtype=np.int64)
        order = _cell_argsort(token_pos)
        token_pos, token_ids, token_counts = (
            token_pos[order], token_ids[order], token_counts[order]
        )
    return stage_entries
