"""The query front end of the serving layer.

:class:`SketchService` bolts the read API onto an
:class:`~repro.serve.snapshots.EpochWriter`:

* ``query(key)`` / ``query_batch(keys)`` — point estimates answered from
  the latest published epoch (never from the live sketch), so every answer
  is bit-identical to querying a frozen copy of the sketch at that epoch;
* ``top_k(k)`` — the heaviest keys of the key directory (every key the
  service has ingested), ranked by their epoch estimates (ties broken by
  first-contact order, so the ranking is deterministic);
* ``stats()`` — epoch id, items absorbed, memory, staleness and directory
  counters (the ``repro-cli query --stats`` payload);
* ``ingest(keys, values)`` / ``flush()`` — the write side, delegated to the
  epoch writer.

Reads are computed per call against the epoch they are stamped with, so a
``top_k`` ranks the directory as it stands at the call; only the
sliding-window delta sketches are memoised, and only within one epoch.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from repro.kernels.interning import KeyInterner
from repro.serve.errors import EpochGoneError
from repro.serve.snapshots import (
    DEFAULT_PUBLISH_EVERY_ITEMS,
    EpochSnapshot,
    EpochWriter,
)
from repro.sketches.base import Sketch
from repro.temporal import (
    DEFAULT_RING_EPOCHS,
    ChangeReport,
    EpochRing,
    delta_sketch,
    diff_rankings,
)


class SketchService:
    """Snapshot-isolated online query service over one live sketch.

    Parameters
    ----------
    sketch:
        The live sketch (any :class:`~repro.sketches.base.Sketch`, including
        a :class:`~repro.sketches.sharded.ShardedSketch`).
    factory:
        Optional builder of structurally identical empty peers — enables the
        cheap copy-into-peer epoch replication (see
        :func:`~repro.serve.snapshots.replicate_sketch`).
    publish_every_items / publish_every_seconds:
        Epoch rotation cadence, forwarded to the writer.
    max_tracked_keys:
        Bounds a directory the service owns (:attr:`key_directory`) into a
        heavy-hitter candidate set: past the bound (plus a small slack so
        pruning is amortized), it is rebuilt from the ``max_tracked_keys``
        keys with the highest current-epoch estimates (ties kept in
        first-contact order).  ``top_k`` then ranks *candidates*: a key
        pruned while light is invisible to ``top_k`` until it is ingested
        again — see ``docs/api.md``.  No effect on a family that stores
        keys, whose interner holds every key anyway.
    store:
        Optional :class:`~repro.store.SketchStore` making the epoch stream
        durable: every ingest batch is journaled **before** the in-memory
        insert and every published epoch is persisted from the publish
        hook, so a restarted service recovers bit-identical to one that
        never died.  The store must already be recovered (its journal
        rotates on the construction-time publish).  After a warm restart
        the directory of a family that stores keys holds the restored
        candidates plus the replayed journal; one the service owns starts
        empty (``docs/api.md``).
    start_epoch / start_items:
        Warm-restart seeding forwarded to the epoch writer (see
        :class:`~repro.serve.snapshots.EpochWriter`).
    ring_epochs / ring_bytes:
        Budgets of the temporal :class:`~repro.temporal.EpochRing`: retain
        at most ``ring_epochs`` recent published epochs (and, optionally,
        at most ``ring_bytes`` of summed replica memory) for pinned-epoch
        reads, sliding windows and change detection.  Reads pinning an
        evicted epoch raise the typed
        :class:`~repro.serve.errors.EpochGoneError`.
    ring_seed:
        Snapshots to pre-populate the ring with, oldest first — the warm
        restart path hands back the on-disk epochs here so time-travel
        reads survive a process death.  Their epoch ids must precede
        ``start_epoch``.
    """

    def __init__(
        self,
        sketch: Sketch,
        factory: Callable[[], Sketch] | None = None,
        publish_every_items: int = DEFAULT_PUBLISH_EVERY_ITEMS,
        publish_every_seconds: float | None = None,
        max_tracked_keys: int | None = None,
        store=None,
        start_epoch: int = 0,
        start_items: int = 0,
        ring_epochs: int = DEFAULT_RING_EPOCHS,
        ring_bytes: float | None = None,
        ring_seed: Sequence[EpochSnapshot] = (),
    ) -> None:
        if max_tracked_keys is not None and max_tracked_keys <= 0:
            raise ValueError("max_tracked_keys must be positive (or None)")
        self.max_tracked_keys = max_tracked_keys
        #: Number of times the bounded directory was pruned.
        self.directory_prunes = 0
        # Owned only where the sketch has no interner to serve as directory.
        self._directory = KeyInterner() if sketch.key_interner is None else None
        self._factory = factory
        # Temporal state — built before the writer exists: the construction
        # publish fires _on_publish, which offers the first epoch to the ring.
        self.ring = EpochRing(max_epochs=ring_epochs, max_bytes=ring_bytes)
        for snapshot in ring_seed:
            self.ring.offer(snapshot)
        # Delta sketches memoised per (later epoch, window); cleared on
        # publish so the memo cannot outgrow one epoch's query mix.
        self._window_cache: dict[tuple[int, int], Sketch] = {}
        self._window_lock = threading.Lock()
        #: Pinned/windowed reads rejected because their epoch was evicted.
        self.epoch_gone_rejections = 0
        self._change_listeners: list[tuple[Callable[[ChangeReport], None], int, int]] = []
        #: Change-listener callbacks that raised (swallowed, counted:
        #: a misbehaving alert sink must not kill the ingest path).
        self.change_alert_errors = 0
        # Set before the writer exists: the construction-time publish fires
        # _on_publish, which must already see the store to persist epoch 0
        # (or the warm-restart epoch) and rotate its journal.
        self._store = store
        self._writer = EpochWriter(
            sketch,
            factory=factory,
            publish_every_items=publish_every_items,
            publish_every_seconds=publish_every_seconds,
            on_publish=self._on_publish,
            start_epoch=start_epoch,
            start_items=start_items,
        )

    # ------------------------------------------------------------ write side
    def ingest(self, keys: Sequence[object], values: Sequence[int] | int | None = None) -> None:
        """Absorb one batch (single-writer contract, see the epoch writer).

        A batch the sketch would refuse — a non-positive value, or more new
        keys than a bounded interner has room for — raises before anything
        is journaled or ingested.
        """
        # Validated before journaling: a journaled batch the sketch rejects
        # would fail every later recovery.
        Sketch._batch_values(values, len(keys))
        self._writer.live_sketch.check_room(keys)
        if self._store is not None:
            # Journal first: a batch is either durably in the WAL before it
            # can affect an answer, or (post-crash) absent from both the
            # journal and the sketch — never in one without the other in a
            # direction that loses acknowledged state.
            self._store.append_batch(keys, values)
        directory = self._directory
        if directory is not None:
            # Before the insert: listeners fired by its publish see the keys.
            directory.intern_many(Sketch._native_keys(keys))
            cap = self.max_tracked_keys
            if cap is not None and len(directory) > cap + max(64, cap // 8):
                self._prune_directory()
        self._writer.ingest(keys, values)

    def _prune_directory(self) -> None:
        """Rebuild the owned directory from its ``max_tracked_keys`` heaviest keys.

        Ranked by current-epoch estimate (items absorbed since the last
        publish are not yet visible — a freshly ingested heavy key can be
        pruned once, and re-enters the directory on its next ingest), ties
        kept in first-contact order.
        """
        candidates = self._directory.keys()
        estimates = self._writer.current.sketch.query_batch(candidates)
        order = np.argsort(-estimates, kind="stable")[: self.max_tracked_keys]
        # Re-sort the survivors by position to preserve first-contact order.
        self._directory = KeyInterner()
        self._directory.intern_many([candidates[i] for i in sorted(order.tolist())])
        self.directory_prunes += 1

    def flush(self) -> EpochSnapshot:
        """Force an epoch publish so reads catch up with all absorbed items."""
        return self._writer.publish()

    def _on_publish(self, epoch: EpochSnapshot) -> None:
        # Window deltas are per-epoch facts: the next window read recomputes
        # against the new replica.
        with self._window_lock:
            self._window_cache.clear()
        # The previous newest ring epoch is the "before" side of per-publish
        # change alerts; captured before the offer (which may also evict).
        previous = self.ring.newest
        self.ring.offer(epoch)
        if self._store is not None:
            # Persist the frozen replica (not the live sketch): the hook
            # runs inside the writer lock, but the replica is immutable so
            # the store reads a consistent state no matter how long the
            # disk takes.  Degradation is handled inside the store.
            self._store.publish_epoch(epoch.epoch_id, epoch.items, epoch.sketch)
        if previous is not None:
            for callback, k, min_delta in self._change_listeners:
                try:
                    report = self._diff_snapshots(previous, epoch, k, min_delta)
                    if report.has_changes:
                        callback(report)
                except Exception:
                    # The hook runs inside the writer lock, on the ingest
                    # path: an alert sink's bug must degrade alerting, not
                    # availability.
                    self.change_alert_errors += 1

    # ------------------------------------------------------------- read side
    @property
    def key_directory(self) -> KeyInterner:
        """The keys :meth:`top_k` ranks: the live sketch's interner, else the service's own."""
        directory = self._directory
        return self._writer.live_sketch.key_interner if directory is None else directory

    @property
    def current_epoch(self) -> EpochSnapshot:
        """The epoch reads are currently served from."""
        return self._writer.current

    def resolve_epoch(self, epoch_id: int) -> EpochSnapshot:
        """The snapshot of ``epoch_id``, from the ring or the current epoch.

        Raises :class:`~repro.serve.errors.EpochGoneError` (counted in
        ``epoch_gone_rejections``) when the epoch is not ring-resident —
        evicted, never published, or not yet published.
        """
        current = self._writer.current
        if epoch_id == current.epoch_id:
            return current
        try:
            return self.ring.get(epoch_id)
        except EpochGoneError:
            self.epoch_gone_rejections += 1
            raise

    def window_sketch(self, window: int) -> tuple[Sketch, int]:
        """The delta sketch of the last ``window`` epochs, plus the later id.

        Subtracts the snapshot published ``window`` epochs ago from the
        current one — exact for subtractable families (CM/Count): the
        result answers as a sketch fed only the items of those epochs.
        Raises :class:`~repro.serve.errors.EpochGoneError` when the ring no
        longer holds the delimiting epoch, and
        :class:`~repro.sketches.base.UnmergeableSketchError` for families
        without the delta contract.  Delta tables are memoised per (current
        epoch, window) — repeated window queries within one epoch pay one
        subtraction.
        """
        if window <= 0:
            raise ValueError("window must be a positive epoch count")
        current = self._writer.current
        memo_key = (current.epoch_id, window)
        with self._window_lock:
            cached = self._window_cache.get(memo_key)
        if cached is not None:
            return cached, current.epoch_id
        earlier_id = current.epoch_id - window
        if earlier_id < 0:
            # The window reaches past the first possible epoch: by the
            # ring's own vocabulary, that epoch is (and always was) gone.
            self.epoch_gone_rejections += 1
            raise EpochGoneError(earlier_id)
        earlier = self.resolve_epoch(earlier_id)
        sketch = delta_sketch(current, earlier, self._factory)
        with self._window_lock:
            self._window_cache[memo_key] = sketch
        return sketch, current.epoch_id

    def serve_batch(
        self,
        keys: Sequence[object],
        epoch: int | None = None,
        window: int | None = None,
    ) -> tuple[np.ndarray, int]:
        """Estimates for ``keys`` plus the id of the epoch that answered.

        The epoch is captured once, so all estimates of one call come from
        the same frozen replica even if a publish lands mid-call — the
        wire-level ``QueryResponse`` carries this epoch id.  ``epoch`` pins
        the answer to a ring-resident epoch (time travel); ``window``
        answers from the last-``window``-epochs delta instead of the
        cumulative sketch.  At most one of the two may be set.
        """
        if epoch is not None and window is not None:
            raise ValueError("serve_batch takes an epoch pin or a window, not both")
        if window is not None:
            sketch, epoch_id = self.window_sketch(window)
            return sketch.query_batch(keys), epoch_id
        snapshot = self._writer.current if epoch is None else self.resolve_epoch(epoch)
        return snapshot.sketch.query_batch(keys), snapshot.epoch_id

    def query_batch(
        self,
        keys: Sequence[object],
        epoch: int | None = None,
        window: int | None = None,
    ) -> np.ndarray:
        """Point estimates from the latest (or pinned/windowed) epoch."""
        return self.serve_batch(keys, epoch=epoch, window=window)[0]

    def query(self, key: object) -> int:
        """Point estimate of one key from the latest published epoch."""
        return int(self._writer.current.sketch.query(key))

    def top_k(self, k: int, epoch: int | None = None) -> list[tuple[object, int]]:
        """The ``k`` heaviest directory keys by current-epoch estimate.

        Candidates are the keys the service has ingested (the directory);
        ranking is by estimate descending, ties by first-contact order —
        deterministic, so remote and local top-k agree exactly.  ``epoch``
        ranks against a pinned ring epoch instead of the latest one.
        """
        return self.serve_top_k(k, epoch=epoch)[0]

    def serve_top_k(
        self, k: int, epoch: int | None = None
    ) -> tuple[list[tuple[object, int]], int]:
        """:meth:`top_k` plus the id of the epoch that ranked it.

        Like :meth:`serve_batch`, the epoch is captured once so the ranking
        and the stamp cannot straddle a publish.  Every ranking, latest or
        pinned, ranks *today's* candidate directory against that epoch's
        estimates (the directory itself is not versioned — documented
        caveat), so keys ingested since the publish rank with their epoch
        estimate, usually 0.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        snapshot = self._writer.current if epoch is None else self.resolve_epoch(epoch)
        return self._rank_epoch(snapshot, self.key_directory.keys(), k), snapshot.epoch_id

    @staticmethod
    def _rank_epoch(
        snapshot: EpochSnapshot, candidates: list, k: int
    ) -> list[tuple[object, int]]:
        """Rank ``candidates`` by one epoch's estimates (deterministic)."""
        if not candidates:
            return []
        estimates = snapshot.sketch.query_batch(candidates)
        # stable sort on -estimate keeps first-contact order within ties
        order = np.argsort(-estimates, kind="stable")[:k]
        return [(candidates[i], int(estimates[i])) for i in order.tolist()]

    # ------------------------------------------------------ change detection
    def diff_epochs(
        self,
        earlier: int,
        later: int | None = None,
        k: int = 10,
        min_delta: int = 1,
    ) -> ChangeReport:
        """Heavy-hitter changes between two ring epochs.

        Ranks the directory's candidates against both snapshots (``later``
        defaults to the current epoch) and diffs the two top-``k``
        rankings: surges and drops of at least ``min_delta``, keys that
        entered or left the ranking, and the membership churn fraction.
        Deltas are sketch-exact — both snapshots are queried for the union
        of the two rankings.  Raises
        :class:`~repro.serve.errors.EpochGoneError` when either epoch is
        not ring-resident.
        """
        earlier_snapshot = self.resolve_epoch(earlier)
        later_snapshot = (
            self._writer.current if later is None else self.resolve_epoch(later)
        )
        if later_snapshot.epoch_id <= earlier_snapshot.epoch_id:
            raise ValueError(
                f"diff must run forward: later epoch {later_snapshot.epoch_id} "
                f"is not after earlier epoch {earlier_snapshot.epoch_id}"
            )
        return self._diff_snapshots(earlier_snapshot, later_snapshot, k, min_delta)

    def _diff_snapshots(
        self, earlier: EpochSnapshot, later: EpochSnapshot, k: int, min_delta: int
    ) -> ChangeReport:
        candidates = self.key_directory.keys()
        before = self._rank_epoch(earlier, candidates, k)
        after = self._rank_epoch(later, candidates, k)
        # Exact cross-estimates for keys ranked on only one side, so every
        # reported delta is the true sketch delta, not a truncation artefact.
        union = list(dict.fromkeys([key for key, _ in after] + [key for key, _ in before]))
        before_estimates: dict = {}
        after_estimates: dict = {}
        if union:
            before_estimates = dict(
                zip(union, earlier.sketch.query_batch(union).tolist())
            )
            after_estimates = dict(zip(union, later.sketch.query_batch(union).tolist()))
        return diff_rankings(
            before,
            after,
            earlier_epoch=earlier.epoch_id,
            later_epoch=later.epoch_id,
            min_delta=min_delta,
            before_estimates=before_estimates,
            after_estimates=after_estimates,
        )

    def add_change_listener(
        self,
        callback: Callable[[ChangeReport], None],
        k: int = 10,
        min_delta: int = 1,
    ) -> None:
        """Alert ``callback`` with a :class:`ChangeReport` on every publish.

        Fired from the publish hook (inside the writer lock, before the new
        epoch becomes visible) whenever the top-``k`` diff against the
        previous epoch shows any change of at least ``min_delta``.
        Callbacks must be fast; one that raises is swallowed and counted in
        ``change_alert_errors`` so a buggy alert sink cannot take down the
        ingest path.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if min_delta < 1:
            raise ValueError("min_delta must be at least 1")
        self._change_listeners.append((callback, k, min_delta))

    # ------------------------------------------------------------ accounting
    def stats(self) -> dict:
        """Service counters (JSON-serializable; the STATS wire payload)."""
        epoch = self._writer.current
        writer = self._writer
        intervals = writer.publish_count
        stats = {
            "epoch_id": epoch.epoch_id,
            "epoch_items": epoch.items,
            "items_ingested": writer.items_ingested,
            "staleness_items": writer.staleness_items,
            "publish_every_items": writer.publish_every_items,
            "publishes": intervals,
            "mean_interval_items": (
                writer.total_interval_items / intervals if intervals else 0.0
            ),
            "max_interval_items": writer.max_interval_items,
            "memory_bytes": float(writer.live_sketch.memory_bytes()),
            "distinct_keys_tracked": len(self.key_directory),
            "max_tracked_keys": self.max_tracked_keys,
            "directory_prunes": self.directory_prunes,
            "algorithm": writer.live_sketch.name,
            "temporal": {
                **self.ring.stats(),
                "epoch_gone_rejections": self.epoch_gone_rejections,
                "change_listeners": len(self._change_listeners),
                "change_alert_errors": self.change_alert_errors,
                "subtractable": bool(getattr(writer.live_sketch, "subtractable", False)),
            },
        }
        if self._store is not None:
            stats["store"] = self._store.stats()
        return stats

    # --------------------------------------------------------------- teardown
    def close(self) -> None:
        """Release the durable store's journal handle (no-op without one)."""
        if self._store is not None:
            self._store.close()
