"""Sharded ingest: hash-partition a stream across per-shard sketches.

This is the distributed-ingest model the ROADMAP names as the follow-on to
the batch-first datapath: ``S`` identically-configured sketches ("shards")
each ingest the sub-stream of keys that a dedicated partition hash routes to
them.  Because the partition is *by key*, every key's entire update history
lands on exactly one shard, in stream order — which makes sharding exact for
order-dependent sketches too:

* Queries route to the owning shard, so a :class:`ShardedSketch` answers
  every query bit-identically to manually running ``S`` scalar sketches and
  routing each item by hand (the property pinned by
  ``tests/sketches/test_sharded.py``).
* For mergeable families (CM, Count), :meth:`ShardedSketch.merge_shards`
  folds the shards into one sketch by element-wise table addition, which is
  bit-identical to a single sketch fed the full stream — the "merge at the
  collector" step of a distributed deployment.

The batch datapath is preserved end to end: one vectorized murmur evaluation
partitions an :class:`~repro.hashing.EncodedKeyBatch`, and each shard
receives a routed *sub-batch* that reuses the parent batch's mixed hash
blocks (``EncodedKeyBatch.take``), so keys are encoded and mixed once no
matter how many shards or hash arrays touch them.

:func:`partition_router` is the *single* definition of key->shard
placement: the distributed coordinator (:mod:`repro.distributed.ingest`)
routes with the same hash, which is what makes ingest on remote workers
bit-identical to this local wrapper.  ``docs/architecture.md`` (§2, §4)
diagrams both layers; ``docs/api.md`` states the public contract.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.hashing import EncodedKeyBatch
from repro.hashing.families import HashFunction, derive_seed, key_to_bytes
from repro.hashing.murmur import murmur3_32
from repro.kernels.interning import KeyInternerOverflowError
from repro.sketches.base import Sketch, UnmergeableSketchError

#: Salt folded into the master seed for the partition hash, so the router is
#: independent of every hash the per-shard sketches draw from the same seed.
_PARTITION_SALT = 0x53484152  # "SHAR"


def partition_router(seed: int, shards: int) -> HashFunction:
    """The canonical key->shard partition hash for ``shards`` partitions.

    This single definition is shared by :class:`ShardedSketch` and the
    distributed coordinator (``repro.distributed.ingest``), so local sharding
    and remote ingest place every key on the same shard — the property that
    keeps remote ingest exact for order-dependent families (each key's whole
    history reaches one worker, in stream order).
    """
    if shards <= 0:
        raise ValueError("shard count must be positive")
    return HashFunction(derive_seed(seed ^ _PARTITION_SALT, 0), shards)


def partition_positions(router: HashFunction, batch: EncodedKeyBatch) -> list[np.ndarray]:
    """Per-shard position arrays of ``batch`` (ascending: stream order survives).

    One vectorized murmur evaluation of the whole batch, then one
    ``np.nonzero`` per shard; ``batch.take(positions)`` turns each position
    array into a routed sub-batch that reuses the parent's mixed hash blocks.
    """
    shard_ids = router.index_batch(batch)
    return [
        np.nonzero(shard_ids == shard_id)[0] for shard_id in range(router.width)
    ]


class EpochRouter:
    """Epoch-versioned key->partition->owner routing for a dynamic fleet.

    The key->partition map is the *immutable* canonical partition hash
    (:func:`partition_router` over a fixed ``partitions`` count), so a key's
    partition never changes — that is what keeps every key's history on one
    continuous state lineage.  The partition->owner assignment is the
    *mutable* half: reassigning a partition bumps the routing ``epoch``,
    and every frame of the dynamic ingest protocol is fenced on that epoch
    (:mod:`repro.distributed.wire`).  Live resharding is therefore pure
    assignment surgery; the hash — and with it bit-identical placement
    against a static ``partitions``-shard fleet — never moves.
    """

    def __init__(self, seed: int, partitions: int, owners: Sequence[int]) -> None:
        if len(owners) != partitions:
            raise ValueError(
                f"owner table has {len(owners)} entries for {partitions} partitions"
            )
        self.hash = partition_router(seed, partitions)
        self.partitions = partitions
        self.assignment = [int(owner) for owner in owners]
        self.epoch = 0

    @classmethod
    def round_robin(cls, seed: int, partitions: int, workers: int) -> "EpochRouter":
        """The initial placement: partition ``p`` on worker ``p % workers``."""
        if workers <= 0:
            raise ValueError("worker count must be positive")
        return cls(seed, partitions, [p % workers for p in range(partitions)])

    def owner(self, partition: int) -> int:
        """The worker currently owning ``partition``."""
        return self.assignment[partition]

    def partitions_of(self, worker: int) -> tuple[int, ...]:
        """All partitions currently assigned to ``worker`` (ascending)."""
        return tuple(
            partition
            for partition, owner in enumerate(self.assignment)
            if owner == worker
        )

    def load(self) -> dict[int, int]:
        """Partitions per worker, for least-loaded placement decisions."""
        load: dict[int, int] = {}
        for owner in self.assignment:
            load[owner] = load.get(owner, 0) + 1
        return load

    def reassign(self, partition: int, owner: int) -> int:
        """Move ``partition`` to ``owner``; returns the bumped routing epoch.

        Every reassignment is one epoch flip — the fence that lets receivers
        reject frames routed under the old placement.
        """
        if not 0 <= partition < self.partitions:
            raise ValueError(f"partition {partition} out of range")
        self.assignment[partition] = int(owner)
        self.epoch += 1
        return self.epoch

    def route(self, batch: EncodedKeyBatch) -> list[tuple[int, int, np.ndarray]]:
        """Partition a batch: ``(owner, partition, positions)`` per non-empty partition.

        One vectorized hash evaluation; position arrays are ascending, so
        stream order survives within every partition — the same guarantee
        :class:`ShardedSketch` gives locally.
        """
        return [
            (self.assignment[partition], partition, positions)
            for partition, positions in enumerate(
                partition_positions(self.hash, batch)
            )
            if positions.size
        ]


class ShardedSketch(Sketch):
    """Hash-partitioned wrapper routing a stream across per-shard sketches.

    Parameters
    ----------
    shards:
        Pre-built per-shard sketches.  For :meth:`merge_shards` to be exact
        they must be structurally identical (same class, geometry and hash
        seeds); :meth:`from_registry` builds such replicas.
    seed:
        Master seed of the partition hash (independent of the shards' own
        hash families by construction).

    Every key is owned by exactly one shard (``shard_of``), and routed
    batches preserve stream order within each shard, so sharding is exact
    even for order-dependent sketches such as CU and ReliableSketch: each
    shard's state equals a scalar sketch fed that shard's sub-stream.
    """

    def __init__(self, shards: Sequence[Sketch], seed: int = 0) -> None:
        if not shards:
            raise ValueError("ShardedSketch needs at least one shard")
        self.shards: list[Sketch] = list(shards)
        self.seed = seed
        self.name = f"Sharded[{self.shards[0].name}x{len(self.shards)}]"
        self.mergeable = all(shard.mergeable for shard in self.shards)
        self.snapshotable = all(shard.snapshotable for shard in self.shards)
        self._router = partition_router(seed, len(self.shards))
        #: Items ingested per shard — the raw series behind per-shard
        #: throughput accounting (`repro.metrics.throughput.shard_load_report`).
        self.items_per_shard = np.zeros(len(self.shards), dtype=np.int64)

    @classmethod
    def from_registry(
        cls,
        name: str,
        memory_bytes: float,
        shards: int,
        seed: int = 0,
        **kwargs,
    ) -> "ShardedSketch":
        """Build ``shards`` identically-configured replicas of a registered sketch.

        Each shard gets the *full* ``memory_bytes`` budget and the same hash
        seed — the distributed model where every node runs the same sketch
        over its partition and results merge at a collector.  (Replicas, not
        splits: identical geometry is what makes ``merge_shards`` equal a
        single sketch fed the whole stream.)
        """
        if shards <= 0:
            raise ValueError("shard count must be positive")
        from repro.sketches.registry import build_sketch

        replicas = [
            build_sketch(name, memory_bytes, seed=seed, **kwargs)
            for _ in range(shards)
        ]
        return cls(replicas, seed=seed)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_of(self, key: object) -> int:
        """The shard owning ``key`` (introspection; no hash-call accounting)."""
        return murmur3_32(key_to_bytes(key), self._router.seed) % self.shard_count

    def _partition(self, batch: EncodedKeyBatch) -> list[np.ndarray]:
        """Per-shard position arrays (ascending, so stream order survives)."""
        return partition_positions(self._router, batch)

    def insert(self, key: object, value: int = 1) -> None:
        self._check_insert(value)
        shard_id = self._router(key)
        self.items_per_shard[shard_id] += 1
        self.shards[shard_id].insert(key, value)

    def query(self, key: object) -> int:
        return self.shards[self._router(key)].query(key)

    def _route(self, batch: EncodedKeyBatch) -> list[tuple[int, np.ndarray, EncodedKeyBatch]]:
        """``(shard id, positions, sub-batch)`` of every shard ``batch`` reaches."""
        return [
            (shard_id, positions, batch.take(positions))
            for shard_id, positions in enumerate(self._partition(batch))
            if positions.size
        ]

    def check_room(self, keys: Sequence[object]) -> None:
        """Route the batch once and check each shard's room for its sub-batch.

        Skipped when no shard has a bounded interner.  The routing is a
        check, not a hash the datapath performs, so it is not counted.
        """
        if all(
            shard.key_interner is None or shard.key_interner.max_keys is None
            for shard in self.shards
        ):
            return
        calls = self._router.calls
        try:
            for shard_id, _, sub in self._route(EncodedKeyBatch(keys)):
                self.shards[shard_id].check_room(sub)
        finally:
            self._router.calls = calls

    def insert_batch(self, keys: Sequence[object], values: Sequence[int] | int | None = None) -> None:
        batch = EncodedKeyBatch(keys)
        value_array = self._batch_values(values, len(batch))
        calls = self._router.calls
        routed = self._route(batch)
        # Every shard checks first: a batch one shard refuses reaches none,
        # and leaves no routing hash counted.
        try:
            for shard_id, _, sub in routed:
                self.shards[shard_id].check_room(sub)
        except KeyInternerOverflowError:
            self._router.calls = calls
            raise
        for shard_id, positions, sub in routed:
            self.items_per_shard[shard_id] += positions.size
            self.shards[shard_id].insert_batch(sub, value_array[positions])

    def query_batch(self, keys: Sequence[object]) -> np.ndarray:
        batch = EncodedKeyBatch(keys)
        estimates = np.zeros(len(batch), dtype=np.int64)
        for shard_id, positions in enumerate(self._partition(batch)):
            if positions.size:
                estimates[positions] = self.shards[shard_id].query_batch(
                    batch.take(positions)
                )
        return estimates

    def merge_shards(self) -> Sketch:
        """Fold all shards into one sketch (mergeable families only).

        Returns a *new* sketch — the sharded instance stays usable.  For
        CM/Count the result is bit-identical to a single sketch that ingested
        the full stream; for CU it carries CU's weaker merge guarantee.
        """
        if not self.shards[0].mergeable:
            raise UnmergeableSketchError(
                f"{self.shards[0].name} shards cannot be merged losslessly; "
                "query the sharded sketch directly instead"
            )
        merged = copy.deepcopy(self.shards[0])
        for shard in self.shards[1:]:
            merged.merge(shard)
        return merged

    def merge(self, other: Sketch) -> "ShardedSketch":
        """Merge another ShardedSketch shard-by-shard (same router required).

        This is the tree-reduction step of a multi-collector deployment:
        two sharded ingests over the same partition function merge by
        merging corresponding shards.
        """
        if type(other) is not ShardedSketch:
            raise ValueError(f"cannot merge {type(other).__name__} into ShardedSketch")
        if other.shard_count != self.shard_count or other._router.seed != self._router.seed:
            raise ValueError(
                "cannot merge ShardedSketches with different partition functions"
            )
        for mine, theirs in zip(self.shards, other.shards):
            mine.merge(theirs)
        self.items_per_shard += other.items_per_shard
        return self

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """Per-shard snapshots under ``shard{i}/`` prefixes, plus load counts.

        Snapshotable whenever every shard is — which includes ReliableSketch
        shards, so a sharded ``Ours`` can be epoch-published by the serving
        layer (``repro.serve``) exactly like the mergeable families.
        """
        if not self.snapshotable:
            raise UnmergeableSketchError(
                f"{self.shards[0].name} shards do not support state snapshots"
            )
        state: dict[str, np.ndarray] = {"items_per_shard": self.items_per_shard.copy()}
        for index, shard in enumerate(self.shards):
            for name, array in shard.state_snapshot().items():
                state[f"shard{index}/{name}"] = array
        return state

    def state_restore(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_snapshot` (delegates shard by shard).

        Validate-then-commit like the per-sketch restores: every shard's
        sub-state is restored into a throwaway copy first, and the live
        shards are only swapped once all of them succeeded — a snapshot
        that is malformed for shard ``k`` must not leave shards ``< k``
        already overwritten.
        """
        if not self.snapshotable:
            raise UnmergeableSketchError(
                f"{self.shards[0].name} shards do not support state snapshots"
            )
        items = self._check_snapshot_shape(
            state, "items_per_shard", (self.shard_count,)
        )
        restored: list[Sketch] = []
        for index, shard in enumerate(self.shards):
            prefix = f"shard{index}/"
            replica = copy.deepcopy(shard)
            replica.state_restore(
                {
                    name[len(prefix):]: array
                    for name, array in state.items()
                    if name.startswith(prefix)
                }
            )
            restored.append(replica)
        self.shards = restored
        self.items_per_shard = items.astype(np.int64, copy=True)

    def memory_bytes(self) -> float:
        return sum(shard.memory_bytes() for shard in self.shards)

    def hash_calls(self) -> int:
        return self._router.calls + sum(shard.hash_calls() for shard in self.shards)

    def router_hash_calls(self) -> int:
        """Partition-hash evaluations alone (excluded per-shard accounting)."""
        return self._router.calls

    def reset_hash_calls(self) -> None:
        self._router.reset_counter()
        for shard in self.shards:
            shard.reset_hash_calls()

    def parameters(self) -> dict:
        return {
            "shards": self.shard_count,
            "algorithm": self.shards[0].name,
            "shard_parameters": self.shards[0].parameters(),
        }
