"""ReliableSketch (§3.2): multi-layer error-controlled stream summary.

The sketch stacks ``d`` layers of Error-Sensible buckets whose widths and
lock thresholds both shrink geometrically (Double Exponential Control).  An
item is inserted layer by layer; a bucket whose ``NO`` counter would exceed
its layer threshold is *locked* and passes only the excess value to the next
layer, so no bucket's Maximum Possible Error ever exceeds its threshold and
therefore no key's total error can exceed ``Σ λ_i ≤ Λ`` — unless the item
escapes all ``d`` layers, which the analysis (§4) shows happens with
probability at most Δ.

Optional components (both from §3.3):

* a **mice filter** in front of layer 1 (enabled by default, as in §6.1.1);
* an **emergency store** behind layer ``d`` (disabled by default to match the
  paper's accuracy evaluation, which counts failures instead).

Batch-first datapath
--------------------

Layers are stored struct-of-arrays (:class:`repro.core.bucket.BucketArrayLayer`:
interned ``int64`` key ids and NumPy ``int64`` ``YES``/``NO`` arrays), and
the sketch exposes ``insert_batch`` / ``query_batch`` alongside the scalar
API.  Because lock/replace decisions are order-dependent *within a layer*,
the batch insert mirrors the hardware pipeline: all survivors of layer
``i`` (in stream order) are hashed for layer ``i+1`` in one vectorized
call — keeping hash-call accounting identical to the scalar path — and the
order-dependent bucket transitions of each layer are applied by a
conflict-free update kernel (:mod:`repro.kernels`), bit-identical to
replaying the survivors one by one.  Keys are *interned* into dense
integer ids on first contact, and a bucket's id is the only record of its
candidate key: the kernels compare ids; reads compare the touched
buckets' keys with the query keys (int batches gather them from the
interner's ``int64`` column) and fall back to ids for other key types;
snapshots encode the keys the interner maps the occupied buckets' ids to.
``query_batch`` retires keys as soon as their stopping condition
(Algorithm 2) fires, exactly like the scalar :meth:`query_with_error`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.bucket import BucketArrayLayer
from repro.core.config import (
    DEFAULT_DEPTH,
    DEFAULT_R_LAMBDA,
    DEFAULT_R_W,
    ReliableConfig,
)
from repro.core.emergency import EmergencyStore, ExactEmergencyStore
from repro.core.mice_filter import MiceFilter
from repro.hashing import EncodedKeyBatch, HashFamily
from repro.kernels import resolve_backend
from repro.kernels.interning import KeyInterner
from repro.kernels.scalar import EMPTY_ID, bucket_apply
from repro.sketches.base import Sketch, UnmergeableSketchError


@dataclass(frozen=True)
class QueryResult:
    """Full query answer: estimate, error bound and the layer reached."""

    estimate: int
    mpe: int
    layers_visited: int

    @property
    def lower_bound(self) -> int:
        """Guaranteed lower bound on the true value sum."""
        return max(0, self.estimate - self.mpe)

    @property
    def upper_bound(self) -> int:
        """Guaranteed upper bound on the true value sum."""
        return self.estimate

    def contains(self, truth: int) -> bool:
        """Whether the sensed interval covers ``truth`` (Figure 17)."""
        return self.lower_bound <= truth <= self.upper_bound


class ReliableSketch(Sketch):
    """The ReliableSketch stream summary.

    Construct either from an explicit :class:`ReliableConfig`, from stream
    statistics (:meth:`from_stream`), or from a memory budget
    (:meth:`from_memory`) the way the paper's experiments do.
    """

    name = "Ours"
    #: Layer tables, candidate keys (via the reversible key codec of
    #: ``repro.hashing.families``), filter counters and failure statistics
    #: all round-trip through named arrays — see :meth:`state_snapshot`.
    #: ``merge`` stays unsupported: lock/replace decisions are
    #: order-dependent, so two independently-fed sketches have no lossless
    #: combination.  Snapshots alone are what remote ingest (each key's whole
    #: history reaches one worker) and the serving layer need.
    snapshotable = True

    def __init__(
        self,
        config: ReliableConfig,
        seed: int = 0,
        emergency: EmergencyStore | None = None,
        use_emergency: bool = False,
        max_interned_keys: int | None = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self._family = HashFamily(seed)
        self._hashes = [self._family.draw(layer.width) for layer in config.layers]
        self._layers = [BucketArrayLayer(layer.width) for layer in config.layers]
        self._thresholds = [layer.threshold for layer in config.layers]
        # Lock comparisons reduce exactly to int64 arithmetic against the
        # threshold floors (see repro.kernels.scalar), which is what both
        # the scalar path and every kernel backend use.
        self._lam_floors = [int(threshold) for threshold in self._thresholds]
        self._kernel = resolve_backend()
        # Key interning: dense integer ids shared by all layers, assigned on
        # first contact; a bucket's id is its only key record.
        # ``max_interned_keys`` bounds it against adversarial key spaces
        # (KeyInternerOverflowError past the bound).
        self._interner = KeyInterner(max_keys=max_interned_keys)
        self.max_interned_keys = max_interned_keys
        self._filter: MiceFilter | None = None
        if config.use_mice_filter:
            self._filter = MiceFilter(
                config.mice_filter_bytes,
                counter_bits=config.mice_filter_bits,
                arrays=config.mice_filter_arrays,
                seed=seed + 1,
            )
        self.use_emergency = use_emergency or emergency is not None
        self._emergency: EmergencyStore | None = emergency
        if self.use_emergency and self._emergency is None:
            self._emergency = ExactEmergencyStore()
        # --- statistics -------------------------------------------------
        #: Number of insert operations whose value was not fully absorbed.
        self.insert_failures = 0
        #: Total value that escaped all layers (dropped or sent to emergency).
        self.failed_value = 0
        #: items_settled_at[i] counts inserts that terminated in layer i+1
        #: (index depth means "filter only"); used by Figure 19a.
        self.inserts_settled_per_layer = [0] * (config.depth + 1)
        self._insert_count = 0

    # ------------------------------------------------------------ factories
    @classmethod
    def from_stream(
        cls,
        total_value: float,
        tolerance: float,
        depth: int = DEFAULT_DEPTH,
        r_w: float = DEFAULT_R_W,
        r_lambda: float = DEFAULT_R_LAMBDA,
        use_mice_filter: bool = True,
        seed: int = 0,
        use_emergency: bool = False,
        max_interned_keys: int | None = None,
    ) -> "ReliableSketch":
        """Size the sketch from the stream's total value ``N`` and Λ."""
        config = ReliableConfig.from_stream_statistics(
            total_value=total_value,
            tolerance=tolerance,
            depth=depth,
            r_w=r_w,
            r_lambda=r_lambda,
            use_mice_filter=use_mice_filter,
        )
        return cls(config, seed=seed, use_emergency=use_emergency,
                   max_interned_keys=max_interned_keys)

    @classmethod
    def from_memory(
        cls,
        memory_bytes: float,
        tolerance: float | None = None,
        total_value: float | None = None,
        depth: int = DEFAULT_DEPTH,
        r_w: float = DEFAULT_R_W,
        r_lambda: float = DEFAULT_R_LAMBDA,
        use_mice_filter: bool = True,
        seed: int = 0,
        use_emergency: bool = False,
        max_interned_keys: int | None = None,
    ) -> "ReliableSketch":
        """Size the sketch from a memory budget (the experiments' usual mode).

        When ``tolerance`` is omitted, the paper's default Λ = 25 is used
        unless ``total_value`` is supplied, in which case Λ is derived from
        the sizing formula of §3.2.
        """
        if tolerance is None and total_value is None:
            tolerance = 25.0  # Paper default (§6.1.1).
        config = ReliableConfig.from_memory(
            memory_bytes=memory_bytes,
            tolerance=tolerance,
            total_value=total_value,
            depth=depth,
            r_w=r_w,
            r_lambda=r_lambda,
            use_mice_filter=use_mice_filter,
        )
        return cls(config, seed=seed, use_emergency=use_emergency,
                   max_interned_keys=max_interned_keys)

    # ------------------------------------------------------------ insertion
    def insert(self, key: object, value: int = 1) -> None:
        """Insert ``<key, value>`` (Algorithm 1, plus filter and emergency)."""
        self._check_insert(value)
        self._insert_count += 1
        remaining = value
        if self._filter is not None:
            remaining = self._filter.absorb(key, remaining)
            if remaining == 0:
                self.inserts_settled_per_layer[self.config.depth] += 1
                return

        for layer_index, (layer, hash_fn, lam_floor) in enumerate(
            zip(self._layers, self._hashes, self._lam_floors)
        ):
            index = hash_fn(key)
            remaining = self._apply_to_bucket(layer, index, key, remaining, lam_floor)
            if remaining is None:
                self.inserts_settled_per_layer[layer_index] += 1
                return

        # Value survived every layer: insertion failure (§3.2).
        self.insert_failures += 1
        self.failed_value += remaining
        if self._emergency is not None:
            self._emergency.insert(key, remaining)

    def _apply_to_bucket(
        self, layer: BucketArrayLayer, index: int, key: object, remaining: int,
        lam_floor: int,
    ) -> int | None:
        """Apply one ``<key, remaining>`` arrival to one bucket (Algorithm 1).

        Returns ``None`` when the value settled in this layer, or the excess
        value to push to the next layer when the bucket's lock triggered.
        The transition itself (:func:`repro.kernels.scalar.bucket_apply`) is
        shared with the update kernels, so the scalar and batch paths cannot
        drift apart; this wrapper adds the interning.
        """
        return bucket_apply(
            layer.key_ids, layer.yes, layer.no, index, self._interner.intern(key),
            remaining, lam_floor,
        )

    def insert_batch(self, keys: Sequence[object], values: Sequence[int] | int | None = None) -> None:
        """Batch insert, bit-identical to scalar inserts in stream order.

        Vectorized: key encoding and interning (once per item) and the
        per-layer hash evaluations — layer ``i`` hashes exactly the items
        that reach layer ``i``, in one call, so hash-call accounting matches
        the scalar path.  The order-dependent mice-filter updates and
        bucket vote/lock/replace transitions run through the dispatched
        conflict-free update kernel (see module docstring).
        """
        batch = EncodedKeyBatch(keys)
        count = len(batch)
        value_array = self._batch_values(values, count)
        if not count:
            return
        # Interned first: a batch a bounded interner refuses changes nothing.
        item_ids = self._interner.intern_batch(batch.keys, batch.int_key_array)
        self._insert_count += count
        if self._filter is not None:
            remaining = self._filter.absorb_batch(batch, value_array)
            active = np.flatnonzero(remaining > 0)
            self.inserts_settled_per_layer[self.config.depth] += count - len(active)
        else:
            remaining = value_array.copy()
            active = np.arange(count, dtype=np.intp)

        kernel = self._kernel
        for layer_index, (layer, hash_fn, lam_floor) in enumerate(
            zip(self._layers, self._hashes, self._lam_floors)
        ):
            if not active.size:
                return
            sub = batch if len(active) == count else batch.take(active)
            indexes = hash_fn.index_batch(sub)
            survivors, excess = kernel.reliable_layer_update(
                layer.key_ids, layer.yes, layer.no, lam_floor,
                indexes, item_ids[active], remaining[active],
            )
            self.inserts_settled_per_layer[layer_index] += len(active) - len(survivors)
            active = active[survivors]
            remaining[active] = excess

        if active.size:
            # Values that survived every layer: insertion failures (§3.2).
            self.insert_failures += len(active)
            self.failed_value += int(remaining[active].sum())
            if self._emergency is not None:
                key_list = batch.keys
                for item in active.tolist():
                    self._emergency.insert(key_list[item], int(remaining[item]))

    # -------------------------------------------------------------- queries
    def query_with_error(self, key: object) -> QueryResult:
        """Estimate ``f(key)`` together with its Maximum Possible Error.

        Implements Algorithm 2: accumulate layer readings until a stopping
        condition shows the key cannot have reached deeper layers.  A
        bucket matches when it holds ``key`` itself (its id's key equals
        ``key``), so the query resolves no key to an id.
        """
        estimate = 0
        mpe = 0
        if self._filter is not None:
            filtered = self._filter.query(key)
            estimate += filtered
            mpe += filtered

        key_of = self._interner.key_of
        layers_visited = 0
        for layer, hash_fn, threshold in zip(self._layers, self._hashes, self._thresholds):
            index = hash_fn(key)
            layers_visited += 1
            slot_id = layer.key_ids.item(index)
            matches = slot_id != EMPTY_ID and key_of(slot_id) == key
            yes = layer.yes.item(index)
            no = layer.no.item(index)
            estimate += yes if matches else no
            mpe += no
            if no < threshold or yes == no or matches:
                break
        if self._emergency is not None:
            estimate += self._emergency.query(key)
        return QueryResult(estimate=estimate, mpe=mpe, layers_visited=layers_visited)

    def query(self, key: object) -> int:
        """Estimated value sum of ``key`` (the point estimate only)."""
        return self.query_with_error(key).estimate

    def query_batch(self, keys: Sequence[object]) -> np.ndarray:
        """Batch point estimates, bit-identical to scalar :meth:`query` calls.

        Processes the batch layer by layer with vectorized hashing,
        whole-array counter reads and whole-array key matching (no per-key
        Python comparisons); a key retires from the batch as soon as its
        stopping condition (Algorithm 2) fires, so per-layer hash-call
        counts match the scalar path exactly.  An int64 batch over a column
        interner compares the touched slots' keys with the query keys and
        resolves no key to an id; other batches compare interned ids.
        """
        batch = EncodedKeyBatch(keys)
        count = len(batch)
        estimates = np.zeros(count, dtype=np.int64)
        if self._filter is not None:
            estimates += self._filter.query_batch(batch)

        interner = self._interner
        # Int keys over a column interner compare keys: each touched slot's
        # key, gathered from the column, against the query key.  Any other
        # batch compares each slot's id against the query key's id.
        compare_keys = interner.column is not None and batch.int64_keys is not None
        if compare_keys:
            wanted = batch.int64_keys
        else:
            wanted = interner.lookup_batch(batch.keys, batch.int_key_array)
        active = np.arange(count, dtype=np.intp)
        for layer, hash_fn, threshold in zip(self._layers, self._hashes, self._thresholds):
            if not active.size:
                break
            sub = batch if len(active) == count else batch.take(active)
            indexes = hash_fn.index_batch(sub)
            yes_readings = layer.yes[indexes]
            no_readings = layer.no[indexes]
            slot_ids = layer.key_ids[indexes]
            held = interner.gather(slot_ids) if compare_keys else slot_ids
            matches = held == wanted[active]
            estimates[active] += np.where(matches, yes_readings, no_readings)
            stopped = (no_readings < threshold) | (yes_readings == no_readings) | matches
            active = active[~stopped]

        if self._emergency is not None:
            for position, key in enumerate(batch.keys):
                estimates[position] += self._emergency.query(key)
        return estimates

    def sensed_error(self, key: object) -> int:
        """The Maximum Possible Error the sketch reports for ``key``."""
        return self.query_with_error(key).mpe

    # ------------------------------------------------------------- snapshots
    def _check_no_emergency(self, operation: str) -> None:
        if self._emergency is not None:
            raise UnmergeableSketchError(
                f"ReliableSketch with an emergency store does not support "
                f"{operation}: the store holds an exact per-key dict that has "
                "no array form (disable use_emergency to snapshot)"
            )

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """Whole mutable state as named arrays — layers, filter, statistics.

        Per layer: the ``YES``/``NO`` counter arrays plus the candidate keys
        the interner maps the occupied buckets' ids to, serialized through
        the reversible key codec (:meth:`KeyInterner.slot_key_arrays` — type
        tags, encoded lengths and one byte blob), so arbitrary
        ``int``/``str``/``bytes`` keys survive the array-only snapshot
        contract and the distributed wire format unchanged.
        ``filter_tables`` carries the mice-filter counters,
        ``settled``/``stats`` the failure and operation accounting.
        Hash-call counters are measurement state, not sketch state, and are
        deliberately excluded (exactly as for CM/CU/Count).

        A replica built with the same configuration and seed restores into a
        sketch that answers every query — estimates *and* sensed error
        bounds — bit-identically to the donor, and that continues ingesting
        identically (interned ids are reassigned locally; they are
        representation, not state).
        """
        self._check_no_emergency("state_snapshot()")
        state: dict[str, np.ndarray] = {}
        for index, layer in enumerate(self._layers):
            key_arrays = self._interner.slot_key_arrays(layer.key_ids)
            state[f"layer{index}_yes"] = layer.yes.copy()
            state[f"layer{index}_no"] = layer.no.copy()
            state[f"layer{index}_key_tags"] = key_arrays["tags"]
            state[f"layer{index}_key_lengths"] = key_arrays["lengths"]
            state[f"layer{index}_key_blob"] = key_arrays["blob"]
        if self._filter is not None:
            state["filter_tables"] = self._filter.state_snapshot()
        state["settled"] = np.asarray(self.inserts_settled_per_layer, dtype=np.int64)
        # The fourth slot, once a query count, is kept at 0 so that reads
        # leave the snapshot unchanged and snapshot-v1 files keep their bytes.
        state["stats"] = np.asarray(
            [self.insert_failures, self.failed_value, self._insert_count, 0], dtype=np.int64
        )
        return state

    def state_restore(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_snapshot` (validate first, then commit).

        Every array is shape-checked and the key blobs decoded *before* any
        sketch state changes, so a malformed snapshot raises ``ValueError``
        (or ``KeyInternerOverflowError`` for a bounded interner) and leaves
        the sketch untouched.  Restored candidate keys are interned into a
        *fresh* id space that replaces this instance's interner at commit —
        ids are local by construction, so donor and replica agree on every
        observable answer without sharing an interner, and restoring into a
        previously-used sketch does not accumulate stale ids.
        """
        self._check_no_emergency("state_restore()")
        counters = []
        encoded_keys = []
        for index, layer in enumerate(self._layers):
            width = (len(layer),)
            yes = self._check_snapshot_shape(state, f"layer{index}_yes", width)
            no = self._check_snapshot_shape(state, f"layer{index}_no", width)
            tags = self._check_snapshot_shape(state, f"layer{index}_key_tags", width)
            lengths = self._check_snapshot_shape(state, f"layer{index}_key_lengths", width)
            try:
                blob = state[f"layer{index}_key_blob"]
            except KeyError:
                raise ValueError(
                    f"snapshot is missing the 'layer{index}_key_blob' array"
                ) from None
            counters.append((yes, no))
            encoded_keys.append((tags, lengths, blob))
        # Every candidate key interns in (layer, position) order; empty
        # slots (the codec's NONE tag) keep EMPTY_ID.
        interner, slot_ids = KeyInterner.from_slot_arrays(
            encoded_keys, max_keys=self.max_interned_keys
        )
        layer_ids = np.split(slot_ids, np.cumsum([len(layer) for layer in self._layers])[:-1])
        settled = self._check_snapshot_shape(state, "settled", (self.config.depth + 1,))
        stats = self._check_snapshot_shape(state, "stats", (4,))
        filter_tables = None
        if self._filter is not None:
            filter_tables = self._check_snapshot_shape(
                state, "filter_tables", (self._filter.arrays, self._filter.width)
            )

        self._interner = interner
        for layer, (yes, no), key_ids in zip(self._layers, counters, layer_ids):
            layer.yes = yes.astype(np.int64, copy=True)
            layer.no = no.astype(np.int64, copy=True)
            layer.key_ids = key_ids
        if filter_tables is not None:
            self._filter.state_restore(filter_tables)
        self.inserts_settled_per_layer = [int(value) for value in settled]
        self.insert_failures = int(stats[0])
        self.failed_value = int(stats[1])
        self._insert_count = int(stats[2])

    def copy_state_into(self, peer: "ReliableSketch") -> None:
        """Copy the whole state into ``peer`` as arrays (epoch replicas).

        The counter arrays and the mice-filter table are copied into
        ``peer``'s own arrays, the statistics are copied, and ``peer`` gets
        a compact interner of only its candidate keys, with the buckets'
        ids renumbered to match (:meth:`KeyInterner.compact`): no key codec,
        no per-key interning.  ``peer`` then answers, and keeps ingesting,
        exactly as a ``state_restore(state_snapshot())`` replica does.
        Geometry is checked before anything is written.  A sketch with an
        emergency store takes the default snapshot + restore path, which
        refuses it.
        """
        if self._emergency is not None:
            super().copy_state_into(peer)
            return
        peer._check_no_emergency("state_restore()")
        geometry = self._geometry()
        if peer._geometry() != geometry:
            raise ValueError(
                f"cannot copy into a peer with layer widths and filter shape "
                f"{peer._geometry()}, expected {geometry}"
            )
        widths = geometry[0]
        interner, slot_ids = self._interner.compact(
            np.concatenate([layer.key_ids for layer in self._layers]),
            max_keys=peer.max_interned_keys,
        )

        peer._interner = interner
        layer_ids = np.split(slot_ids, np.cumsum(widths)[:-1])
        for layer, target, key_ids in zip(self._layers, peer._layers, layer_ids):
            np.copyto(target.yes, layer.yes)
            np.copyto(target.no, layer.no)
            target.key_ids = key_ids
        if self._filter is not None:
            self._filter.copy_into(peer._filter)
        peer.inserts_settled_per_layer = self.inserts_settled_per_layer.copy()
        peer.insert_failures = self.insert_failures
        peer.failed_value = self.failed_value
        peer._insert_count = self._insert_count

    def _geometry(self) -> tuple[list[int], tuple[int, int] | None]:
        """Layer widths and mice-filter table shape (``None`` without a filter)."""
        table = None if self._filter is None else (self._filter.arrays, self._filter.width)
        return [len(layer) for layer in self._layers], table

    # --------------------------------------------------------- introspection
    @property
    def depth(self) -> int:
        """Number of bucket layers."""
        return self.config.depth

    @property
    def tolerance(self) -> float:
        """The configured error tolerance Λ."""
        return self.config.tolerance

    @property
    def has_mice_filter(self) -> bool:
        """Whether the mice filter is enabled."""
        return self._filter is not None

    @property
    def mice_filter(self) -> MiceFilter | None:
        """The mice filter instance (None when disabled)."""
        return self._filter

    @property
    def emergency(self) -> EmergencyStore | None:
        """The emergency store instance (None when disabled)."""
        return self._emergency

    @property
    def guarantee_intact(self) -> bool:
        """True while no insertion failure has occurred (zero-outlier regime).

        With the emergency store enabled the guarantee also survives
        failures, because the overflow value is still recorded exactly.
        """
        return self.insert_failures == 0 or self._emergency is not None

    def layer_occupancy(self) -> list[float]:
        """Fraction of non-empty buckets per layer (diagnostics)."""
        return [layer.occupied_count() / len(layer) for layer in self._layers]

    def locked_buckets(self) -> list[int]:
        """Number of locked buckets per layer (NO at threshold, YES above it)."""
        return [
            layer.locked_count(threshold)
            for layer, threshold in zip(self._layers, self._thresholds)
        ]

    def settled_layer_of(self, key: object) -> int:
        """The deepest layer a query for ``key`` needs to visit (1-indexed)."""
        return self.query_with_error(key).layers_visited

    def memory_bytes(self) -> float:
        total = self.config.bucket_bytes
        if self._filter is not None:
            total += self._filter.memory_bytes()
        return total

    def hash_calls(self) -> int:
        total = self._family.total_calls()
        if self._filter is not None:
            total += self._filter.hash_calls()
        return total

    def reset_hash_calls(self) -> None:
        self._family.reset_counters()
        if self._filter is not None:
            self._filter.reset_hash_calls()

    def parameters(self) -> dict:
        params = self.config.describe()
        params["use_mice_filter"] = self.has_mice_filter
        params["use_emergency"] = self._emergency is not None
        return params
