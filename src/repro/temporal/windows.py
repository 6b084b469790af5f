"""Sliding-window estimates from epoch-snapshot deltas.

For sketches whose state is a *linear* function of the inserted multiset
(``subtractable = True`` — CM and Count, whose merge is element-wise table
addition), subtraction is the exact inverse of merging: the tables of a
later epoch minus the tables of an earlier epoch of the same stream are
bit-identical to a fresh sketch fed only the items between the two
publishes.  :func:`delta_sketch` materialises that difference, so a
last-``N``-epochs window query carries the same per-key error bounds as a
sketch that only ever saw the window — no rescaling, no approximation on
top of the approximation.

CU is deliberately excluded (its merge is an upper bound, so a difference
of CU tables has no windowed meaning): asking for a window on an
unsubtractable family raises
:class:`~repro.sketches.base.UnmergeableSketchError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sketches.base import Sketch, UnmergeableSketchError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.serve.snapshots import EpochSnapshot


def delta_sketch(
    later: "EpochSnapshot",
    earlier: "EpochSnapshot",
    factory: Callable[[], Sketch] | None = None,
) -> Sketch:
    """The sketch of the items published between two epochs.

    ``later`` and ``earlier`` must be snapshots of the *same* stream (the
    same writer), later-minus-earlier.  The result is a fresh replica —
    neither snapshot is mutated, so both stay valid for other pinned
    readers — and, for subtractable families, answers exactly as a sketch
    fed only the items ingested in ``(earlier, later]``.

    ``factory`` builds a structurally identical empty peer and enables the
    cheap copy-into-peer replication path (same contract as epoch
    publication).
    """
    if later.epoch_id <= earlier.epoch_id:
        raise ValueError(
            f"window must run forward: later epoch {later.epoch_id} "
            f"is not after earlier epoch {earlier.epoch_id}"
        )
    if not getattr(later.sketch, "subtractable", False):
        raise UnmergeableSketchError(
            f"{later.sketch.name} does not support windowed reads: its state "
            "is not linear in the stream, so epoch deltas are meaningless "
            "(subtractable sketches only)"
        )
    # Imported here, not at module scope: repro.serve.service imports this
    # package at module level, so a top-level import would be circular.
    from repro.serve.snapshots import replicate_sketch

    window = replicate_sketch(later.sketch, factory)
    window.subtract(earlier.sketch)
    return window
