"""The ``python-replay`` kernel backend: per-item loops over the shared
scalar transitions.

This is the reference implementation of the kernel contract (see
:mod:`repro.kernels.dispatch`): it replays the batch item by item in stream
order through the exact transition functions the sketches' scalar ``insert``
paths use, so it is bit-identical to scalar inserts *by construction*.  The
vectorized backend is pinned to it (and to the scalar path) by the
kernel-parity tests.

It runs only when chosen (``use_backend("python-replay")``): it needs
nothing beyond NumPy and is roughly as fast as the pre-kernel per-item
batch loops.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.scalar import (
    bucket_apply,
    coco_apply,
    cu_apply,
    elastic_apply,
    hashpipe_apply,
    precision_apply,
    saturating_apply,
)


def cu_update(tables: np.ndarray, indexes: np.ndarray, values: np.ndarray) -> None:
    """Conservative updates for a whole batch, replayed in stream order."""
    index_rows = [row.tolist() for row in indexes]
    for position, value in enumerate(values.tolist()):
        cu_apply(tables, [row[position] for row in index_rows], value)


def saturating_update(
    tables: np.ndarray, indexes: np.ndarray, values: np.ndarray, cap: int
) -> np.ndarray:
    """Capped conservative updates in stream order; returns the leftovers."""
    index_rows = [row.tolist() for row in indexes]
    leftovers = np.empty(len(values), dtype=np.int64)
    for position, value in enumerate(values.tolist()):
        leftovers[position] = saturating_apply(
            tables, [row[position] for row in index_rows], value, cap
        )
    return leftovers


def reliable_layer_update(
    key_ids: np.ndarray,
    yes: np.ndarray,
    no: np.ndarray,
    lam_floor: int,
    indexes: np.ndarray,
    item_ids: np.ndarray,
    remaining: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One ReliableSketch layer's bucket replay for a batch of survivors.

    Returns ``(survivors, excess)``: the positions (ascending, i.e. stream
    order) of the items whose value did not settle in this layer, and the
    excess value each pushes to the next layer.
    """
    survivors: list[int] = []
    excess: list[int] = []
    index_list = indexes.tolist()
    id_list = item_ids.tolist()
    for position, value in enumerate(remaining.tolist()):
        leftover = bucket_apply(
            key_ids, yes, no, index_list[position], id_list[position], value, lam_floor
        )
        if leftover is not None:
            survivors.append(position)
            excess.append(leftover)
    return np.asarray(survivors, dtype=np.intp), np.asarray(excess, dtype=np.int64)


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
    """Elastic heavy-part replay for a whole batch.

    Returns ``(light_positions, evicted_ids, evicted_values)``: the
    positions whose own ``<key, value>`` goes to the light part
    (ascending), and the interned ids and vote counts of evicted incumbents
    (one light insert each, in eviction order).
    """
    light_positions: list[int] = []
    evicted_ids: list[int] = []
    evicted_values: list[int] = []
    index_list = indexes.tolist()
    id_list = item_ids.tolist()
    for position, value in enumerate(values.tolist()):
        light_self, evicted = elastic_apply(
            key_ids, positive, negative, flags, index_list[position],
            id_list[position], value, eviction_ratio,
        )
        if light_self:
            light_positions.append(position)
        if evicted is not None:
            evicted_ids.append(evicted[0])
            evicted_values.append(evicted[1])
    return (
        np.asarray(light_positions, dtype=np.intp),
        np.asarray(evicted_ids, dtype=np.int64),
        np.asarray(evicted_values, dtype=np.int64),
    )


def coco_update(
    key_ids: np.ndarray,
    counts: np.ndarray,
    indexes: np.ndarray,
    item_ids: np.ndarray,
    values: np.ndarray,
    positions: np.ndarray,
    seed: int,
) -> None:
    """CocoSketch replay for a whole batch, in stream order.

    ``positions`` carries each item's absolute RNG position (the sketch's
    running draw counter), so replaying any sub-slice of a stream draws the
    same numbers the full scalar run would.
    """
    index_rows = [row.tolist() for row in indexes]
    position_list = positions.tolist()
    id_list = item_ids.tolist()
    for item, value in enumerate(values.tolist()):
        coco_apply(
            key_ids, counts, [row[item] for row in index_rows], id_list[item],
            value, seed, position_list[item],
        )


def precision_update(
    key_ids: np.ndarray,
    counts: np.ndarray,
    indexes: np.ndarray,
    item_ids: np.ndarray,
    values: np.ndarray,
    positions: np.ndarray,
    seed: int,
) -> int:
    """PRECISION replay for a whole batch, in stream order.

    Returns the number of recirculations (entry replacements).
    """
    recirculations = 0
    index_rows = [row.tolist() for row in indexes]
    position_list = positions.tolist()
    id_list = item_ids.tolist()
    for item, value in enumerate(values.tolist()):
        recirculations += precision_apply(
            key_ids, counts, [row[item] for row in index_rows], id_list[item],
            value, seed, position_list[item],
        )
    return recirculations


def hashpipe_update(
    key_ids: np.ndarray,
    counts: np.ndarray,
    stage_cells: np.ndarray,
    item_ids: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """HashPipe replay for a whole batch, in stream order.

    ``stage_cells[row, id]`` pre-computes every interned key's cell at
    every stage (the walk needs the *evicted* key's cells, which a plain
    per-item index batch cannot supply).  Returns ``stage_entries``, where
    ``stage_entries[row]`` counts the carried keys that entered walk stage
    ``row`` — the per-stage hash-call accounting of the scalar loop.
    """
    stage_entries = np.zeros(key_ids.shape[0], dtype=np.int64)
    id_list = item_ids.tolist()
    for item, value in enumerate(values.tolist()):
        walk_stages = hashpipe_apply(key_ids, counts, stage_cells, id_list[item], value)
        if walk_stages:
            stage_entries[1 : 1 + walk_stages] += 1
    return stage_entries
