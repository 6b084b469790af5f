"""Epoch-based snapshot rotation: the write side of the serving layer.

One writer owns the live sketch and ingests batches through the normal
``insert_batch`` datapath.  Every ``publish_every_items`` absorbed items (or
``publish_every_seconds``, whichever fires first — both checked at batch
boundaries) it *publishes* an epoch: an immutable
:class:`EpochSnapshot` holding a frozen replica of the sketch.  Readers
only ever touch published replicas, never the live sketch, which gives the
serving layer its two core properties:

* **Snapshot isolation** — an answer served at epoch ``E`` is bit-identical
  to querying a frozen copy of the sketch as it stood when ``E`` was
  published, no matter how much ingest has happened since (pinned by
  ``tests/serve/``).  There are no torn reads by construction: a replica is
  fully materialised *before* the epoch pointer moves.
* **No read/write contention** — queries read the replica's arrays; inserts
  mutate the live sketch's arrays.  The only shared mutation is the epoch
  pointer swap, a single attribute assignment.

Replication copies a snapshotable sketch's state into a factory-built
empty peer (``Sketch.copy_state_into``: snapshot + restore by default,
plain array and list copies for ``ReliableSketch``) and falls back to
``copy.deepcopy`` otherwise, so *any* sketch can be served; snapshotable
ones are just cheaper to rotate.

The trade is staleness: readers lag the live sketch by at most one publish
interval.  :attr:`EpochWriter.staleness_items` exposes the current lag and
the publish-interval aggregates feed ``BENCH_serving.json``.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sketches.base import Sketch

#: Default epoch length, in absorbed items.
DEFAULT_PUBLISH_EVERY_ITEMS = 8192


def replicate_sketch(sketch: Sketch, factory: Callable[[], Sketch] | None = None) -> Sketch:
    """A frozen replica of ``sketch``: equal answers, disjoint state.

    With a ``factory`` building a structurally identical empty peer (same
    registry configuration and seed) and a snapshotable sketch, the replica
    is ``factory()`` with ``sketch.copy_state_into`` applied: snapshot +
    restore by default, array and key-list copies for ``ReliableSketch``
    (whose replica interns only its own candidate keys).  Otherwise
    ``copy.deepcopy``.  Either way the replica answers every query
    bit-identically to the donor at the moment of replication and shares
    no mutable state with it.
    """
    if factory is not None and getattr(sketch, "snapshotable", False):
        replica = factory()
        sketch.copy_state_into(replica)
        return replica
    return copy.deepcopy(sketch)


@dataclass(frozen=True)
class EpochSnapshot:
    """One published epoch: an immutable, consistent point-in-time replica.

    ``sketch`` is frozen by contract — readers must treat it as read-only
    (the service layer only ever calls its query methods).  ``items`` is the
    number of items the writer had absorbed when the epoch was published.
    """

    epoch_id: int
    items: int
    sketch: Sketch
    published_at: float

    def query_batch(self, keys: Sequence[object]):
        """Convenience passthrough to the frozen replica."""
        return self.sketch.query_batch(keys)


class EpochWriter:
    """Single-writer ingest front end publishing immutable epoch snapshots.

    Parameters
    ----------
    sketch:
        The live sketch; the writer takes ownership of its mutation.
    factory:
        Optional zero-argument builder of structurally identical empty peers
        (same registry config/seed); enables the cheap copy-into-peer
        replication path (``Sketch.copy_state_into``) for snapshotable
        sketches.
    publish_every_items:
        Publish a new epoch once at least this many items accumulated since
        the last publish (checked at batch boundaries, so an epoch can run
        longer by at most one batch).
    publish_every_seconds:
        Optional wall-clock bound: publish at the first batch boundary after
        this much time elapsed since the last publish, even if the item
        budget has not filled (for trickling streams).
    on_publish:
        Optional callback receiving every published :class:`EpochSnapshot`,
        invoked just *before* the epoch becomes visible to readers — so
        subscribers maintaining derived state (the epoch ring, window
        deltas, the durable store's snapshot, metrics) are never behind a
        reader that already sees the new epoch.

    start_epoch / start_items:
        Warm-restart seeding: the first published epoch takes id
        ``start_epoch`` and the item counter starts at ``start_items``.
        The durable store's recovery path hands a restarted writer the
        recovered sketch plus these, so the epoch/item sequence resumes
        where the dead process left off instead of restarting at zero.

    Epoch ``start_epoch`` (0 by default — the empty sketch) is published at
    construction, so readers always have a consistent epoch to query — a
    service is never "not yet ready", it is simply at its first epoch.
    """

    def __init__(
        self,
        sketch: Sketch,
        factory: Callable[[], Sketch] | None = None,
        publish_every_items: int = DEFAULT_PUBLISH_EVERY_ITEMS,
        publish_every_seconds: float | None = None,
        on_publish: Callable[[EpochSnapshot], None] | None = None,
        start_epoch: int = 0,
        start_items: int = 0,
    ) -> None:
        if publish_every_items <= 0:
            raise ValueError("publish_every_items must be positive")
        if publish_every_seconds is not None and publish_every_seconds <= 0:
            raise ValueError("publish_every_seconds must be positive")
        if start_epoch < 0:
            raise ValueError("start_epoch must be non-negative")
        if start_items < 0:
            raise ValueError("start_items must be non-negative")
        self._sketch = sketch
        self._factory = factory
        self.publish_every_items = publish_every_items
        self.publish_every_seconds = publish_every_seconds
        self._on_publish = on_publish
        self._start_epoch = start_epoch
        self._lock = threading.Lock()
        self.items_ingested = start_items
        #: Publish-interval accounting (items between consecutive publishes);
        #: the staleness series of ``BENCH_serving.json``.
        self.publish_count = 0
        self.total_interval_items = 0
        self.max_interval_items = 0
        self._current: EpochSnapshot | None = None
        with self._lock:
            self._publish_locked()

    # ---------------------------------------------------------------- reads
    @property
    def current(self) -> EpochSnapshot:
        """The latest published epoch (atomic reference read, never blocks)."""
        return self._current

    @property
    def live_sketch(self) -> Sketch:
        """The writer-owned live sketch (introspection; not for readers)."""
        return self._sketch

    @property
    def staleness_items(self) -> int:
        """Items absorbed since the current epoch was published.

        Lock-free monitoring read: a publish can land between the two loads,
        which would make the raw difference transiently negative — clamp to
        zero (the true staleness at that instant) instead of taking the
        writer lock and stalling stats behind an in-flight batch insert.
        """
        return max(0, self.items_ingested - self._current.items)

    # --------------------------------------------------------------- writes
    def ingest(self, keys: Sequence[object], values: Sequence[int] | int | None = None) -> None:
        """Absorb one batch into the live sketch, rotating epochs as due."""
        with self._lock:
            self._sketch.insert_batch(keys, values)
            self.items_ingested += len(keys)
            due = self.items_ingested - self._current.items >= self.publish_every_items
            if not due and self.publish_every_seconds is not None:
                due = time.perf_counter() - self._current.published_at >= self.publish_every_seconds
            if due:
                self._publish_locked()

    def publish(self) -> EpochSnapshot:
        """Force-publish a new epoch now (the flush/drain operation)."""
        with self._lock:
            return self._publish_locked()

    def _publish_locked(self) -> EpochSnapshot:
        previous = self._current
        epoch = EpochSnapshot(
            epoch_id=self._start_epoch if previous is None else previous.epoch_id + 1,
            items=self.items_ingested,
            sketch=replicate_sketch(self._sketch, self._factory),
            published_at=time.perf_counter(),
        )
        if previous is not None:
            interval = epoch.items - previous.items
            self.publish_count += 1
            self.total_interval_items += interval
            self.max_interval_items = max(self.max_interval_items, interval)
        # The hook runs BEFORE the epoch becomes visible, so a subscriber
        # maintaining derived state (the epoch ring, window deltas, the
        # store's snapshot) is never behind a reader that already sees the
        # new epoch.
        if self._on_publish is not None:
            self._on_publish(epoch)
        # The replica is complete before this assignment, so a reader that
        # grabbed `current` a nanosecond earlier keeps a fully consistent
        # older epoch and one that reads after sees the new one — never a
        # mixture.  Attribute assignment is atomic under the GIL.
        self._current = epoch
        return epoch
