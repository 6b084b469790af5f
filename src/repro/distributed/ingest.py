"""Transport-agnostic distributed ingest: worker loop, coordinator, collector.

The deployment shape mirrors the paper's distributed measurement points —
many ingest nodes, one collector, results merged centrally:

* The **coordinator** (:class:`DynamicIngestCoordinator`) owns the stream.
  Keys hash to a *fixed* set of partitions with the same vectorized
  partition hash as local sharding (:class:`~repro.sketches.sharded.EpochRouter`
  over :func:`~repro.sketches.sharded.partition_router`), so each key's whole
  history reaches exactly one partition, in stream order — which keeps
  remote ingest exact even for order-dependent update rules.  Routed
  sub-batches ship as epoch-fenced wire frames over the chosen transport.
* Each **worker** (:func:`dynamic_worker_main`) owns a set of partitions,
  one full-budget sketch per partition, built from its CONFIG frame; it
  ingests ROUTED_BATCH frames through the normal ``insert_batch`` datapath
  and answers per-partition SNAPSHOT_REQUESTs with serialized table state.
* The **collector** restores every partition snapshot into a
  registry-built replica and :func:`tree_merge`-s the replicas into one
  sketch.  For CM/Count the result is bit-identical to a single sketch fed
  the whole stream; CU carries its documented upper-bound merge guarantee.

The partition->worker assignment is epoch-versioned, so the fleet can
change under live ingest (resharding, worker failure, recovery) without
moving a counter.  :func:`run_dynamic_ingest` wires the three together for
one stream and is what the CLI, the experiment runner
(``ExperimentSettings.transport``) and ``benchmarks/bench_distributed.py``
call.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.distributed.transport import (
    Channel,
    ChannelTimeoutError,
    Transport,
    create_transport,
)
from repro.distributed.wire import (
    MSG_CONFIG,
    MSG_CREDIT,
    MSG_HANDOFF,
    MSG_HANDOFF_ACK,
    MSG_HEARTBEAT,
    MSG_HEARTBEAT_ACK,
    MSG_ROUTED_BATCH,
    MSG_SHUTDOWN,
    MSG_SNAPSHOT,
    MSG_SNAPSHOT_REQUEST,
    WireFormatError,
    decode_config,
    decode_credit,
    decode_frame,
    decode_handoff,
    decode_handoff_ack,
    decode_heartbeat,
    decode_heartbeat_ack,
    decode_routed_batch,
    decode_snapshot_request,
    decode_state,
    encode_config,
    encode_credit,
    encode_frame,
    encode_handoff,
    encode_handoff_ack,
    encode_heartbeat,
    encode_heartbeat_ack,
    encode_routed_batch,
    encode_snapshot_request,
    encode_state,
    refence_routed_batch,
)
from repro.hashing import EncodedKeyBatch
from repro.sketches.base import Sketch, UnmergeableSketchError
from repro.sketches.registry import build_sketch, supports_snapshots
from repro.sketches.sharded import EpochRouter, ShardedSketch
# ``chunked`` stays a name of this module: the traced pipeline benchmark
# wraps ``ingest.chunked`` by attribute.
from repro.streams.items import chunked, iter_key_value_chunks  # noqa: F401

if TYPE_CHECKING:  # imported lazily at runtime: repro.store depends on wire
    from repro.store import PartitionStore

#: Default chunk size of the coordinator's stream batching.
DEFAULT_CHUNK_SIZE = 8192

#: Default flow-control window: how many ROUTED_BATCH frames a worker may
#: have outstanding (sent, credit not yet returned) before the coordinator
#: blocks instead of growing the worker's inbox.
DEFAULT_CREDIT_LIMIT = 8

#: Default journal bound: a partition is checkpointed (fresh snapshot pulled,
#: journal cleared) once this many batches accumulate since its last
#: snapshot.  The journal is what recovery replays — and what bounds the
#: lost window when replay is disabled.
DEFAULT_JOURNAL_LIMIT = 64


def tree_merge(sketches: Sequence[Sketch]) -> Sketch:
    """Merge sketches pairwise in rounds (the collector-tree reduction).

    Mutates the left operand of every pair and returns the root.  Pass
    copies to keep the inputs intact.  For the exactly-mergeable families
    the result equals any merge order (addition commutes); the tree shape is
    the latency win for a multi-collector deployment: ``ceil(log2 S)`` merge
    rounds instead of ``S - 1`` sequential merges.
    """
    nodes = list(sketches)
    if not nodes:
        raise ValueError("tree_merge needs at least one sketch")
    while len(nodes) > 1:
        merged_round: list[Sketch] = []
        for left_index in range(0, len(nodes) - 1, 2):
            merged_round.append(nodes[left_index].merge(nodes[left_index + 1]))
        if len(nodes) % 2:
            merged_round.append(nodes[-1])
        nodes = merged_round
    return nodes[0]


# ---------------------------------------------------------------------------
# The fleet: live resharding, failure recovery, flow control
#
# Keys hash to a *fixed* set of partitions (the canonical partition hash),
# each worker owns a set of partitions with one full-budget sketch per
# partition, and the partition->worker assignment is epoch-versioned
# (`EpochRouter`).  Moving a partition is quiesce -> snapshot -> epoch flip
# -> handoff (+ journal replay under faults), so a partition's state lineage
# is continuous no matter how many owners it passes through — which keeps
# every family's per-partition state bit-identical to a local
# `partitions`-shard `ShardedSketch`.


class WorkerUnavailable(RuntimeError):
    """Internal signal: a worker's channel died (EOF, closed, or fault-killed)."""

    def __init__(self, worker_id: int) -> None:
        super().__init__(f"worker {worker_id} is unavailable")
        self.worker_id = worker_id


@dataclass(frozen=True)
class DynamicWorkerConfig:
    """CONFIG payload of a worker: its owned partitions and the epoch.

    Travels as the first frame on every channel, so workers are stateless
    until configured — a TCP worker process can be started with nothing but
    the collector's address.  A worker builds one full-budget replica *per
    owned partition*, because partitions — not workers — are the unit of
    state migration.
    """

    algorithm: str
    memory_bytes: float
    seed: int
    worker_id: int
    partitions: int
    owned: tuple[int, ...]
    epoch: int
    sketch_kwargs: dict = field(default_factory=dict)

    def to_payload(self) -> bytes:
        return encode_config(
            {
                "algorithm": self.algorithm,
                "memory_bytes": self.memory_bytes,
                "seed": self.seed,
                "worker_id": self.worker_id,
                "partitions": self.partitions,
                "owned": list(self.owned),
                "epoch": self.epoch,
                "sketch_kwargs": self.sketch_kwargs,
            }
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "DynamicWorkerConfig":
        config = decode_config(payload)
        try:
            return cls(
                algorithm=config["algorithm"],
                memory_bytes=config["memory_bytes"],
                seed=config["seed"],
                worker_id=config["worker_id"],
                partitions=config["partitions"],
                owned=tuple(config["owned"]),
                epoch=config["epoch"],
                sketch_kwargs=config.get("sketch_kwargs", {}),
            )
        except KeyError as missing:
            raise WireFormatError(f"dynamic worker config is missing {missing}") from None

    def build_partition(self) -> Sketch:
        """One partition's replica (full budget, shared seed — see PR 2)."""
        return build_sketch(
            self.algorithm, self.memory_bytes, seed=self.seed, **self.sketch_kwargs
        )


def dynamic_worker_main(channel: Channel) -> None:
    """The worker node's event loop (same code on every transport).

    Frames in: CONFIG (build the owned partitions' sketches), the
    epoch-fenced ROUTED_BATCH (apply if current, *reject* if stale —
    at-most-once),
    HANDOFF (install a migrated partition and adopt the new epoch),
    per-partition SNAPSHOT_REQUEST (optionally releasing ownership — the
    quiesce step), HEARTBEAT (echo liveness + ingest stats), and CREDIT
    grants flowing back after every batch so the coordinator's outstanding
    window stays bounded; SHUTDOWN / EOF ends the loop.

    Epoch rule: the coordinator is the routing authority, so frames fenced
    at a *newer* epoch fast-forward the worker; frames fenced at an *older*
    epoch (or for unowned partitions) are counted in ``stale_dropped`` and
    never applied — a credit is still returned, because the coordinator
    spent one sending the frame.
    """
    config: DynamicWorkerConfig | None = None
    epoch = 0
    sketches: dict[int, Sketch] = {}
    counts: dict[int, int] = {}
    items_applied = 0
    stale_dropped = 0

    def require_config() -> DynamicWorkerConfig:
        if config is None:
            raise WireFormatError("dynamic frame before CONFIG")
        return config

    while True:
        frame = channel.recv()
        if frame is None:
            break
        msg_type, payload = decode_frame(frame)
        if msg_type == MSG_CONFIG:
            config = DynamicWorkerConfig.from_payload(payload)
            epoch = config.epoch
            sketches = {partition: config.build_partition() for partition in config.owned}
            counts = {partition: 0 for partition in config.owned}
            items_applied = 0
            stale_dropped = 0
        elif msg_type == MSG_ROUTED_BATCH:
            require_config()
            frame_epoch, partition, batch, values = decode_routed_batch(payload)
            if frame_epoch > epoch:
                epoch = frame_epoch
            if frame_epoch < epoch or partition not in sketches:
                # Stale routing (pre-flip frame) or a partition this worker
                # no longer owns: never applied — at-most-once is the safety
                # property the chaos suite pins.
                stale_dropped += 1
            else:
                sketches[partition].insert_batch(batch, values)
                counts[partition] += len(batch)
                items_applied += len(batch)
            channel.send(encode_frame(MSG_CREDIT, encode_credit(epoch, 1)))
        elif msg_type == MSG_SNAPSHOT_REQUEST:
            active = require_config()
            if not payload:
                raise WireFormatError(
                    "dynamic workers require a per-partition snapshot request"
                )
            request_epoch, partition, release = decode_snapshot_request(payload)
            if request_epoch > epoch:
                epoch = request_epoch
            if partition not in sketches:
                raise WireFormatError(
                    f"snapshot request for partition {partition} not owned here"
                )
            meta = {
                "partition": partition,
                "epoch": epoch,
                "items": counts[partition],
                "stale_dropped": stale_dropped,
            }
            channel.send(
                encode_frame(
                    MSG_SNAPSHOT,
                    encode_state(
                        sketches[partition].state_snapshot(), active.algorithm, meta
                    ),
                )
            )
            if release:
                del sketches[partition]
                del counts[partition]
        elif msg_type == MSG_HANDOFF:
            active = require_config()
            handoff_epoch, partition, state, algorithm, meta = decode_handoff(payload)
            if algorithm != active.algorithm:
                raise WireFormatError(
                    f"handoff carries {algorithm!r} state, worker runs {active.algorithm!r}"
                )
            if handoff_epoch < epoch:
                raise WireFormatError(
                    f"stale handoff at epoch {handoff_epoch}, worker is at {epoch}"
                )
            if partition in sketches:
                raise WireFormatError(
                    f"handoff for partition {partition} already owned here"
                )
            epoch = handoff_epoch
            replica = active.build_partition()
            replica.state_restore(state)
            sketches[partition] = replica
            counts[partition] = int(meta.get("items", 0))
            channel.send(
                encode_frame(MSG_HANDOFF_ACK, encode_handoff_ack(epoch, partition))
            )
        elif msg_type == MSG_HEARTBEAT:
            seq, beat_epoch = decode_heartbeat(payload)
            if beat_epoch > epoch:
                epoch = beat_epoch
            channel.send(
                encode_frame(
                    MSG_HEARTBEAT_ACK,
                    encode_heartbeat_ack(seq, epoch, items_applied, stale_dropped),
                )
            )
        elif msg_type == MSG_SHUTDOWN:
            break
        else:
            raise WireFormatError(f"unexpected message type {msg_type}")
    channel.close()


@dataclass
class _WorkerHandle:
    """Coordinator-side view of one worker: channel, liveness, credit window."""

    worker_id: int
    channel: Channel
    alive: bool = True
    credits: int = 0
    items_reported: int = 0
    stale_reported: int = 0


@dataclass(frozen=True)
class RecoveryReport:
    """What one worker-failure recovery did — and what it could not save.

    ``lost_items`` is the *exact* size of the lost window: batches routed to
    the dead worker after its partitions' last snapshots, discarded because
    journal replay was disabled.  With replay enabled the window is
    re-sent instead and ``lost_items`` is zero — recovery is lossless.
    """

    worker_id: int
    partitions: tuple[int, ...]
    epoch: int
    targets: dict[int, int]
    lost_items: int
    lost_batches: int
    replayed_items: int


class DynamicIngestCoordinator:
    """Epoch-fenced coordinator over a *dynamic* worker fleet.

    The topology can change under live ingest:

    * :meth:`move_partition` — quiesce one partition (release-snapshot from
      its owner drains all in-flight batches by FIFO), flip the routing
      epoch, hand the state to the new owner, await the ack.
    * :meth:`add_worker` / :meth:`remove_worker` /
      :meth:`split_worker` / :meth:`merge_workers` — fleet surgery built on
      partition moves.
    * Worker death (channel EOF, send failure, or a missed heartbeat in
      :meth:`ping`) triggers recovery: every partition the dead worker owned
      is restored on a survivor from its last snapshot, and the journal —
      every batch sent since that snapshot — is replayed exactly once
      (``replay_on_recovery=True``, lossless) or discarded and *reported*
      as the lost window (``replay_on_recovery=False``).
    * Heartbeat cadence is configurable: ``heartbeat_interval`` makes
      :meth:`maybe_ping` probe the fleet that often (called once per chunk
      by :func:`run_dynamic_ingest`), and ``heartbeat_timeout`` bounds how
      long :meth:`ping` waits for each ack — a silent-but-connected worker
      (hung, not dead) is then declared failed and recovered, instead of
      stalling the coordinator forever.
    * With a :class:`~repro.store.PartitionStore`, every checkpoint /
      quiesce / collect snapshot is also persisted to disk, and a new
      coordinator over the same directory **resumes** the fleet from the
      persisted checkpoints — recovery from a coordinator crash no longer
      needs a surviving process's memory.
    * ``MSG_ROUTED_BATCH`` flow control: every routed frame consumes a
      credit from the owner's window (``credit_limit``); workers return one
      credit per frame applied (or rejected), so a slow worker
      back-pressures the coordinator instead of growing an unbounded inbox.
      ``max_outstanding`` records the high-water mark.

    Placement invariant: keys hash to ``partitions`` fixed partitions, each
    with its own full-budget sketch, so per-partition state is bit-identical
    to a local ``partitions``-shard
    :class:`~repro.sketches.sharded.ShardedSketch` regardless of how many
    reshards happened — for *every* snapshotable family, CU and
    ReliableSketch included.
    """

    def __init__(
        self,
        algorithm: str,
        memory_bytes: float,
        workers: int,
        transport: Transport,
        *,
        partitions: int | None = None,
        seed: int = 0,
        credit_limit: int = DEFAULT_CREDIT_LIMIT,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
        replay_on_recovery: bool = True,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float | None = None,
        store: "PartitionStore | None" = None,
        sketch_kwargs: dict | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("worker count must be positive")
        partitions = workers if partitions is None else partitions
        if partitions < workers:
            raise ValueError("need at least one partition per worker")
        if credit_limit <= 0:
            raise ValueError("credit limit must be positive")
        if journal_limit <= 0:
            raise ValueError("journal limit must be positive")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat timeout must be positive")
        if not supports_snapshots(algorithm):
            raise UnmergeableSketchError(
                f"{algorithm} cannot be ingested remotely: distributed collection "
                "requires state-snapshot support (state_snapshot/state_restore); "
                "snapshotable families are CM/CU/Count and ReliableSketch"
            )
        self.algorithm = algorithm
        self.memory_bytes = memory_bytes
        self.partitions = partitions
        self.seed = seed
        self.credit_limit = credit_limit
        self.journal_limit = journal_limit
        self.replay_on_recovery = replay_on_recovery
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.store = store
        self.sketch_kwargs = dict(sketch_kwargs or {})
        self.transport = transport
        self.router = EpochRouter.round_robin(seed, partitions, workers)

        self.items_per_partition = np.zeros(partitions, dtype=np.int64)
        self.items_lost_per_partition = np.zeros(partitions, dtype=np.int64)
        self.max_outstanding = 0
        self.handoffs: list[dict] = []
        self.recoveries: list[RecoveryReport] = []
        self.store_errors = 0
        self.heartbeat_rounds = 0
        self._heartbeat_seq = 0
        self._last_ping = time.monotonic()

        # The epoch-0 snapshot of every partition is the empty sketch — what
        # recovery restores from before the first checkpoint lands.
        empty_state = build_sketch(
            algorithm, memory_bytes, seed=seed, **self.sketch_kwargs
        ).state_snapshot()
        self._snapshots: dict[int, tuple[dict[str, np.ndarray], dict]] = {
            partition: (
                copy.deepcopy(empty_state),
                {"partition": partition, "epoch": 0, "items": 0},
            )
            for partition in range(partitions)
        }
        #: Routed payloads sent per partition since its last snapshot, as
        #: ``(encoded payload, item count)`` — the replay window of a
        #: handoff under faults and the lost window of a no-replay recovery.
        #: Holding the encoded bytes (not the batch objects) keeps the
        #: journal one buffer per frame, and replay re-sends them re-fenced
        #: at the new epoch, with no re-encode.
        self._journal: dict[int, list[tuple[bytes, int]]] = {
            partition: [] for partition in range(partitions)
        }

        # Resume: a PartitionStore holding checkpoints from a previous
        # coordinator replaces the empty epoch-0 snapshots, and the routed
        # counters pick up where that coordinator's accounting stopped.
        self.resumed_partitions: tuple[int, ...] = ()
        if store is not None:
            persisted = store.load_all()
            for partition in persisted:
                if not 0 <= partition < partitions:
                    raise ValueError(
                        f"store holds partition {partition} but this fleet "
                        f"has {partitions} partitions"
                    )
            for partition, (state, meta) in persisted.items():
                self._snapshots[partition] = (state, dict(meta))
                self.items_per_partition[partition] = int(meta.get("items", 0))
            self.resumed_partitions = tuple(sorted(persisted))

        self._workers: list[_WorkerHandle] = []
        channels = transport.launch(dynamic_worker_main, workers)
        resuming = bool(self.resumed_partitions)
        for worker_id in range(workers):
            handle = _WorkerHandle(
                worker_id, channels[worker_id], credits=credit_limit
            )
            self._workers.append(handle)
            config = DynamicWorkerConfig(
                algorithm,
                memory_bytes,
                seed,
                worker_id,
                partitions,
                # On resume, workers start owning nothing and every partition
                # is installed below via HANDOFF — the only path that can
                # carry non-empty state into a fresh worker.
                () if resuming else self.router.partitions_of(worker_id),
                epoch=0,
                sketch_kwargs=self.sketch_kwargs,
            )
            handle.channel.send(encode_frame(MSG_CONFIG, config.to_payload()))
        if resuming:
            for partition in range(partitions):
                state, meta = self._snapshots[partition]
                self._install(self.router.owner(partition), partition, state, meta, 0)

    # -- epoch / fleet introspection ---------------------------------------

    @property
    def epoch(self) -> int:
        return self.router.epoch

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def alive_workers(self) -> tuple[int, ...]:
        return tuple(handle.worker_id for handle in self._workers if handle.alive)

    @property
    def bytes_sent(self) -> int:
        return sum(handle.channel.bytes_sent for handle in self._workers)

    @property
    def bytes_received(self) -> int:
        return sum(handle.channel.bytes_received for handle in self._workers)

    # -- channel pump --------------------------------------------------------

    def _recv_control(
        self,
        handle: _WorkerHandle,
        want: int | None,
        timeout: float | None = None,
    ) -> bytes | None:
        """Receive from one worker, absorbing control frames along the way.

        CREDIT and HEARTBEAT_ACK frames are bookkeeping and are consumed
        wherever they appear; ``want`` names the frame type to return (or
        ``None`` to absorb exactly one frame of any kind).  EOF, channel
        errors and a breached ``timeout`` all surface as
        :class:`WorkerUnavailable` — the single signal the failure detector
        acts on, so a hung-but-connected worker is treated exactly like a
        dead one.
        """
        while True:
            try:
                frame = handle.channel.recv(timeout=timeout)
            except ChannelTimeoutError:
                raise WorkerUnavailable(handle.worker_id) from None
            except (WireFormatError, OSError):
                frame = None
            if frame is None:
                raise WorkerUnavailable(handle.worker_id)
            msg_type, payload = decode_frame(frame)
            if msg_type == MSG_CREDIT:
                _, amount = decode_credit(payload)
                handle.credits = min(self.credit_limit, handle.credits + amount)
                if want is None:
                    return None
            elif msg_type == MSG_HEARTBEAT_ACK:
                _, _, items, stale = decode_heartbeat_ack(payload)
                handle.items_reported = items
                handle.stale_reported = stale
                if want == MSG_HEARTBEAT_ACK:
                    return payload
                if want is None:
                    return None
            elif msg_type == want:
                return payload
            else:
                raise WireFormatError(
                    f"unexpected frame type {msg_type} from worker {handle.worker_id}"
                )

    def _acquire_credit(self, handle: _WorkerHandle) -> None:
        """Block until the worker's window has room; take one credit."""
        while handle.credits <= 0:
            self._recv_control(handle, None)
        handle.credits -= 1
        self.max_outstanding = max(
            self.max_outstanding, self.credit_limit - handle.credits
        )

    # -- data path -----------------------------------------------------------

    def _send_routed(self, partition: int, payload: bytes, items: int) -> None:
        """Ship one encoded partition sub-batch to its owner, surviving deaths.

        Journals the payload on success; a dead owner triggers recovery (which
        re-places the partition and flips the epoch) and the send retries
        against the new owner, re-fenced at the current epoch.
        """
        while True:
            owner = self.router.owner(partition)
            handle = self._workers[owner]
            if not handle.alive:
                self._recover(owner)
                continue
            try:
                self._acquire_credit(handle)
                payload = refence_routed_batch(payload, self.epoch)
                handle.channel.send(encode_frame(MSG_ROUTED_BATCH, payload))
            except WorkerUnavailable as dead:
                self._recover(dead.worker_id)
                continue
            except (WireFormatError, OSError):
                self._recover(handle.worker_id)
                continue
            self._journal[partition].append((payload, items))
            if len(self._journal[partition]) >= self.journal_limit:
                self.checkpoint(partition)
            return

    def send_batch(
        self, keys: Sequence[object], values: Sequence[int] | int | None = None
    ) -> None:
        """Partition one chunk and ship each sub-batch to its partition's owner."""
        batch = keys if isinstance(keys, EncodedKeyBatch) else EncodedKeyBatch(keys)
        value_array = Sketch._batch_values(values, len(batch))
        for _, partition, positions in self.router.route(batch):
            self.items_per_partition[partition] += positions.size
            payload = encode_routed_batch(
                self.epoch, partition, batch.take(positions), value_array[positions]
            )
            self._send_routed(partition, payload, positions.size)

    def send_stream(self, items: Iterable, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        """Chunk an iterable of ``(key, value)`` pairs through :meth:`send_batch`."""
        for keys, values in iter_key_value_chunks(items, chunk_size):
            self.send_batch(keys, values)

    # -- snapshots / checkpoints ---------------------------------------------

    def _request_snapshot(
        self, handle: _WorkerHandle, partition: int, release: bool
    ) -> tuple[dict[str, np.ndarray], dict]:
        """Pull one partition's state from its owner (FIFO drains in-flight batches)."""
        handle.channel.send(
            encode_frame(
                MSG_SNAPSHOT_REQUEST,
                encode_snapshot_request(self.epoch, partition, release),
            )
        )
        payload = self._recv_control(handle, MSG_SNAPSHOT)
        state, algorithm, meta = decode_state(payload)
        if algorithm != self.algorithm:
            raise WireFormatError(
                f"worker {handle.worker_id} snapshot is for {algorithm!r}, "
                f"expected {self.algorithm!r}"
            )
        if meta.get("partition") != partition:
            raise WireFormatError(
                f"worker {handle.worker_id} answered for partition "
                f"{meta.get('partition')}, expected {partition}"
            )
        return state, meta

    def _persist(self, partition: int, state: dict[str, np.ndarray], meta: dict) -> None:
        """Write one partition checkpoint to the durable store, if configured.

        Coordinator-side disk trouble must not kill a healthy ingest fleet:
        failures are counted (``store_errors``) and the coordinator carries
        on with in-memory snapshots only — the same loud-degradation
        contract as :class:`~repro.store.SketchStore`.
        """
        if self.store is None:
            return
        try:
            self.store.save(partition, state, meta, self.algorithm)
        except OSError:
            self.store_errors += 1

    def checkpoint(self, partition: int) -> dict:
        """Refresh one partition's stored snapshot and clear its journal.

        This bounds both the journal's memory and the lost window of a
        no-replay recovery; it is called automatically every
        ``journal_limit`` batches and is safe to call any time.
        """
        while True:
            owner = self.router.owner(partition)
            handle = self._workers[owner]
            if not handle.alive:
                self._recover(owner)
                continue
            try:
                state, meta = self._request_snapshot(handle, partition, release=False)
            except WorkerUnavailable as dead:
                self._recover(dead.worker_id)
                continue
            self._snapshots[partition] = (state, meta)
            self._journal[partition] = []
            self._persist(partition, state, meta)
            return meta

    # -- resharding ----------------------------------------------------------

    def _install(
        self,
        worker_id: int,
        partition: int,
        state: dict[str, np.ndarray],
        meta: dict,
        epoch: int,
    ) -> None:
        """HANDOFF one partition's state to ``worker_id`` and await the ack.

        If the target dies mid-install, its recovery re-places the partition
        (the router already names the target as owner) from the stored
        snapshot — the caller does not retry.
        """
        handle = self._workers[worker_id]
        try:
            handle.channel.send(
                encode_frame(
                    MSG_HANDOFF,
                    encode_handoff(epoch, partition, state, self.algorithm, meta),
                )
            )
        except (WireFormatError, OSError):
            self._recover(worker_id)
            return
        try:
            payload = self._recv_control(handle, MSG_HANDOFF_ACK)
        except WorkerUnavailable as dead:
            self._recover(dead.worker_id)
            return
        _, acked_partition = decode_handoff_ack(payload, expected_epoch=epoch)
        if acked_partition != partition:
            raise WireFormatError(
                f"worker {worker_id} acked partition {acked_partition}, "
                f"expected {partition}"
            )

    def move_partition(self, partition: int, to_worker: int) -> None:
        """Migrate one partition under live ingest: quiesce -> snapshot ->
        epoch flip -> handoff.

        The release-snapshot from the old owner doubles as the quiesce
        barrier: the channel is FIFO, so by the time the snapshot is on the
        wire every batch sent before it has been applied — the handoff
        window is drained into the state, and the journal resets.  If the
        old owner dies mid-quiesce, recovery restores the partition from its
        last snapshot and replays the journal — preferring the requested
        target, so the move still lands.
        """
        if not 0 <= to_worker < len(self._workers) or not self._workers[to_worker].alive:
            raise ValueError(f"target worker {to_worker} is not alive")
        source = self.router.owner(partition)
        if source == to_worker:
            return
        start = time.perf_counter()
        handle = self._workers[source]
        if not handle.alive:
            self._recover(source, prefer=to_worker)
            return
        try:
            state, meta = self._request_snapshot(handle, partition, release=True)
        except WorkerUnavailable as dead:
            self._recover(dead.worker_id, prefer=to_worker)
            return
        self._snapshots[partition] = (state, meta)
        self._journal[partition] = []
        self._persist(partition, state, meta)
        epoch = self.router.reassign(partition, to_worker)
        self._install(to_worker, partition, state, meta, epoch)
        self.handoffs.append(
            {
                "partition": partition,
                "from_worker": source,
                "to_worker": to_worker,
                "epoch": epoch,
                "items": int(meta.get("items", 0)),
                "seconds": time.perf_counter() - start,
            }
        )

    def _least_loaded(self, exclude: set[int] = frozenset()) -> int:
        load = self.router.load()
        candidates = [
            handle.worker_id
            for handle in self._workers
            if handle.alive and handle.worker_id not in exclude
        ]
        if not candidates:
            raise RuntimeError("no surviving workers available")
        return min(candidates, key=lambda worker: (load.get(worker, 0), worker))

    def add_worker(self) -> int:
        """Launch one empty worker under live ingest; returns its id."""
        worker_id = len(self._workers)
        channel = self.transport.launch(dynamic_worker_main, 1)[-1]
        handle = _WorkerHandle(worker_id, channel, credits=self.credit_limit)
        self._workers.append(handle)
        config = DynamicWorkerConfig(
            self.algorithm,
            self.memory_bytes,
            self.seed,
            worker_id,
            self.partitions,
            owned=(),
            epoch=self.epoch,
            sketch_kwargs=self.sketch_kwargs,
        )
        channel.send(encode_frame(MSG_CONFIG, config.to_payload()))
        return worker_id

    def remove_worker(self, worker_id: int, target: int | None = None) -> None:
        """Drain a worker's partitions onto survivors and retire it gracefully."""
        handle = self._workers[worker_id]
        if not handle.alive:
            raise ValueError(f"worker {worker_id} is not alive")
        for partition in self.router.partitions_of(worker_id):
            destination = (
                target
                if target is not None
                else self._least_loaded(exclude={worker_id})
            )
            self.move_partition(partition, destination)
        handle.alive = False
        try:
            handle.channel.send(encode_frame(MSG_SHUTDOWN))
        except (WireFormatError, OSError):
            pass
        handle.channel.close()

    def split_worker(self, worker_id: int) -> int:
        """Shard split: move every other partition of ``worker_id`` to a new worker."""
        new_worker = self.add_worker()
        for partition in self.router.partitions_of(worker_id)[1::2]:
            self.move_partition(partition, new_worker)
        return new_worker

    def merge_workers(self, source: int, into: int) -> None:
        """Shard merge: fold ``source``'s partitions into ``into`` and retire it."""
        if source == into:
            raise ValueError("cannot merge a worker into itself")
        self.remove_worker(source, target=into)

    # -- failure detection / recovery ----------------------------------------

    def ping(self) -> tuple[int, ...]:
        """One heartbeat round: probe every live worker, recover the dead.

        Returns the ids of workers alive after the round.  Any ack counts as
        liveness proof; a dead channel (EOF or send failure) triggers the
        same recovery path as a mid-send failure.  With
        ``heartbeat_timeout`` set, a worker that stays *connected* but never
        acks (hung, not dead) is also recovered instead of blocking the
        coordinator forever.
        """
        self._heartbeat_seq += 1
        self.heartbeat_rounds += 1
        for handle in list(self._workers):
            if not handle.alive:
                continue
            try:
                handle.channel.send(
                    encode_frame(
                        MSG_HEARTBEAT,
                        encode_heartbeat(self._heartbeat_seq, self.epoch),
                    )
                )
                self._recv_control(
                    handle, MSG_HEARTBEAT_ACK, timeout=self.heartbeat_timeout
                )
            except WorkerUnavailable:
                self._recover(handle.worker_id)
            except (WireFormatError, OSError):
                self._recover(handle.worker_id)
        self._last_ping = time.monotonic()
        return self.alive_workers()

    def maybe_ping(self) -> tuple[int, ...] | None:
        """Run :meth:`ping` iff ``heartbeat_interval`` has elapsed since the
        last round.  The stream pump calls this once per chunk, so probe
        cadence is wall-clock bounded without a background thread.
        """
        if self.heartbeat_interval is None:
            return None
        if time.monotonic() - self._last_ping < self.heartbeat_interval:
            return None
        return self.ping()

    def _recover(self, worker_id: int, prefer: int | None = None) -> None:
        """Re-place every partition of a dead worker on survivors.

        Each partition is restored from its last snapshot; the journal since
        that snapshot is replayed exactly once (lossless) or discarded and
        reported as the lost window.  Journal entries are detached *before*
        the install, so a survivor dying mid-recovery can never double-apply
        a window (its own nested recovery sees an empty journal for the
        partition and the outer replay targets whatever owner won).
        """
        handle = self._workers[worker_id]
        if not handle.alive:
            return
        handle.alive = False
        handle.credits = 0
        handle.channel.close()
        owned = self.router.partitions_of(worker_id)
        lost_items = 0
        lost_batches = 0
        replayed_items = 0
        targets: dict[int, int] = {}
        for partition in owned:
            entries = self._journal[partition]
            self._journal[partition] = []
            if prefer is not None and self._workers[prefer].alive:
                target = prefer
            else:
                target = self._least_loaded(exclude={worker_id})
            epoch = self.router.reassign(partition, target)
            state, meta = self._snapshots[partition]
            self._install(target, partition, state, meta, epoch)
            targets[partition] = self.router.owner(partition)
            if self.replay_on_recovery:
                for payload, items in entries:
                    self._send_routed(partition, payload, items)
                    replayed_items += items
            else:
                window = sum(items for _, items in entries)
                lost_items += window
                lost_batches += len(entries)
                self.items_lost_per_partition[partition] += window
        self.recoveries.append(
            RecoveryReport(
                worker_id=worker_id,
                partitions=owned,
                epoch=self.epoch,
                targets=targets,
                lost_items=lost_items,
                lost_batches=lost_batches,
                replayed_items=replayed_items,
            )
        )

    # -- collection ----------------------------------------------------------

    def collect(self) -> tuple[list[Sketch], list[dict]]:
        """Snapshot every partition and restore the states into local replicas.

        Returns ``(partition_sketches, metas)`` in partition order.  The
        applied-item accounting must balance: every partition's worker-side
        count equals routed minus reported-lost, or collection fails loudly.
        """
        sketches: list[Sketch] = []
        metas: list[dict] = []
        for partition in range(self.partitions):
            while True:
                owner = self.router.owner(partition)
                handle = self._workers[owner]
                if not handle.alive:
                    self._recover(owner)
                    continue
                try:
                    state, meta = self._request_snapshot(handle, partition, release=False)
                except WorkerUnavailable as dead:
                    self._recover(dead.worker_id)
                    continue
                break
            expected = int(
                self.items_per_partition[partition]
                - self.items_lost_per_partition[partition]
            )
            if meta.get("items") != expected:
                raise WireFormatError(
                    f"partition {partition} applied {meta.get('items')} items, "
                    f"coordinator routed {int(self.items_per_partition[partition])} "
                    f"and reported {int(self.items_lost_per_partition[partition])} lost"
                )
            self._snapshots[partition] = (state, meta)
            self._journal[partition] = []
            self._persist(partition, state, meta)
            replica = build_sketch(
                self.algorithm, self.memory_bytes, seed=self.seed, **self.sketch_kwargs
            )
            replica.state_restore(state)
            sketches.append(replica)
            metas.append(meta)
        return sketches, metas

    def shutdown(self) -> None:
        """Tell every live worker to exit and close all channels."""
        for handle in self._workers:
            if not handle.alive:
                continue
            try:
                handle.channel.send(encode_frame(MSG_SHUTDOWN))
            except (WireFormatError, OSError):
                pass
        self.transport.close()
        self.transport.join(timeout=30)


@dataclass(frozen=True)
class DynamicIngestResult:
    """Everything one distributed ingest run produced.

    ``partition_sketches`` are the restored per-partition replicas (partition
    order) — bit-identical to the shards of a local ``partitions``-shard
    :class:`~repro.sketches.sharded.ShardedSketch` for every family whenever
    nothing was lost.  ``merged`` is their tree-merge (CM /
    Count bit-identical to single-node, CU upper-bound, ``None`` for
    unmergeable-but-snapshotable families).  ``recoveries`` documents every
    worker death and its exact lost window; ``handoffs`` every live
    migration with its latency.
    """

    algorithm: str
    transport: str
    partitions: int
    seed: int
    memory_bytes: float
    partition_sketches: list[Sketch]
    partition_metas: list[dict]
    merged: Sketch | None
    items_per_partition: tuple[int, ...]
    items_lost_per_partition: tuple[int, ...]
    epoch: int
    handoffs: list[dict]
    recoveries: list[RecoveryReport]
    max_outstanding: int
    ingest_seconds: float
    merge_seconds: float
    bytes_sent: int
    bytes_received: int

    @property
    def total_items(self) -> int:
        return int(sum(self.items_per_partition))

    @property
    def total_lost(self) -> int:
        return int(sum(self.items_lost_per_partition))

    def sharded(self) -> ShardedSketch:
        """The restored partitions behind the canonical router (routed queries)."""
        sharded = ShardedSketch(self.partition_sketches, seed=self.seed)
        sharded.items_per_shard[:] = np.asarray(
            self.items_per_partition, dtype=np.int64
        ) - np.asarray(self.items_lost_per_partition, dtype=np.int64)
        return sharded


def run_dynamic_ingest(
    algorithm: str,
    memory_bytes: float,
    items: Iterable,
    *,
    workers: int = 2,
    partitions: int | None = None,
    transport: str | Transport = "inproc",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    seed: int = 0,
    credit_limit: int = DEFAULT_CREDIT_LIMIT,
    journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    replay_on_recovery: bool = True,
    heartbeat_interval: float | None = None,
    heartbeat_timeout: float | None = None,
    store_dir: str | None = None,
    sketch_kwargs: dict | None = None,
    actions: dict[int, Callable[["DynamicIngestCoordinator"], None]] | None = None,
) -> DynamicIngestResult:
    """Ingest ``items`` over a worker fleet and collect the merge.

    The fleet can reshard or lose workers mid-stream without moving a
    counter.

    ``actions`` maps a chunk index to a callable invoked with the
    coordinator *before* that chunk is sent — the hook the chaos suite and
    the reshard-under-load benchmark use to split/merge/kill mid-ingest
    deterministically (chunk counts, not wall clocks).

    ``transport`` is a backend name (``inproc``/``pipe``/``tcp``) or a
    pre-built :class:`Transport` (e.g. a ``TcpTransport`` awaiting external
    workers).  Either way the transport is *consumed*: it launches workers
    once, and this function shuts them down and closes every channel before
    returning — pass a fresh instance per run.  ``items`` is any iterable
    of ``(key, value)`` pairs — a :class:`~repro.streams.items.Stream`
    works as-is.  ``partitions`` defaults to ``workers``.

    ``heartbeat_interval`` probes the fleet between chunks at that cadence;
    ``heartbeat_timeout`` bounds each ack wait.  ``store_dir`` opens a
    :class:`~repro.store.PartitionStore` there: checkpoints persist to disk
    and a later run over the same directory resumes from them.
    """
    backend = create_transport(transport) if isinstance(transport, str) else transport
    store = None
    if store_dir is not None:
        from repro.store import PartitionStore

        store = PartitionStore(store_dir, algorithm=algorithm)
    coordinator = DynamicIngestCoordinator(
        algorithm,
        memory_bytes,
        workers,
        backend,
        partitions=partitions,
        seed=seed,
        credit_limit=credit_limit,
        journal_limit=journal_limit,
        replay_on_recovery=replay_on_recovery,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        store=store,
        sketch_kwargs=sketch_kwargs,
    )
    try:
        start = time.perf_counter()
        for index, (keys, values) in enumerate(iter_key_value_chunks(items, chunk_size)):
            if actions and index in actions:
                actions[index](coordinator)
            coordinator.maybe_ping()
            coordinator.send_batch(keys, values)
        partition_sketches, metas = coordinator.collect()
        ingest_seconds = time.perf_counter() - start
        bytes_sent = coordinator.bytes_sent
        bytes_received = coordinator.bytes_received
    finally:
        coordinator.shutdown()

    start = time.perf_counter()
    if partition_sketches[0].mergeable:
        merged = tree_merge([copy.deepcopy(sketch) for sketch in partition_sketches])
    else:
        merged = None
    merge_seconds = time.perf_counter() - start

    return DynamicIngestResult(
        algorithm=algorithm,
        transport=backend.name,
        partitions=coordinator.partitions,
        seed=seed,
        memory_bytes=memory_bytes,
        partition_sketches=partition_sketches,
        partition_metas=metas,
        merged=merged,
        items_per_partition=tuple(
            int(count) for count in coordinator.items_per_partition
        ),
        items_lost_per_partition=tuple(
            int(count) for count in coordinator.items_lost_per_partition
        ),
        epoch=coordinator.epoch,
        handoffs=list(coordinator.handoffs),
        recoveries=list(coordinator.recoveries),
        max_outstanding=coordinator.max_outstanding,
        ingest_seconds=ingest_seconds,
        merge_seconds=merge_seconds,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
    )
