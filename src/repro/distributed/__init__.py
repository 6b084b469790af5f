"""Distributed ingest over pluggable transports.

This package turns the shard/merge subsystem of PR 2 into a deployable
pipeline: ``N`` worker nodes each own a shard-local sketch, consume
:class:`~repro.hashing.EncodedKeyBatch` chunks over a pluggable transport,
and a collector tree-merges the workers' state snapshots into one sketch —
bit-identical to single-node ingest for every exactly-mergeable family
(CM, Count) and within CU's documented upper-bound merge semantics.

Three cooperating layers:

* :mod:`repro.distributed.wire` — versioned, length-prefixed serialization
  of key batches and sketch table state.  Batch frames carry the packed
  per-key encodings of the batch datapath, so a decoded batch enters the
  receiving sketch's ``insert_batch`` without re-encoding a single key.
* :mod:`repro.distributed.transport` — one :class:`Transport` protocol with
  three backends: ``inproc`` (queue pair, worker threads), ``pipe``
  (``multiprocessing`` pipes + processes) and ``tcp`` (length-prefixed
  frames over sockets).  The ingest logic never branches on the backend.
* :mod:`repro.distributed.ingest` — the transport-agnostic worker loop and
  the coordinator/collector.  The coordinator reuses the *same* partition
  hash as :class:`~repro.sketches.sharded.ShardedSketch`
  (``partition_router``), so key->worker placement is identical to local
  sharding: each key's whole history reaches one worker in stream order,
  which keeps remote ingest exact even for order-dependent families.

PR 8 adds the **dynamic** layer on top: partition-grained ownership behind
an epoch-versioned router (:class:`~repro.sketches.sharded.EpochRouter`),
live resharding (split/merge/add/remove under ingest via epoch-fenced
state handoff), worker-failure recovery (heartbeats, snapshot+journal
restore onto survivors, exact lost-window reporting), credit-based flow
control on routed batches, and a deterministic fault-injection harness
(:mod:`repro.distributed.fault`) that the chaos/property suites drive.

See ``docs/architecture.md`` for the full deployment picture.
"""

from repro.distributed.fault import (
    ChannelFault,
    FaultInjectingChannel,
    FaultInjectingTransport,
    FaultPlan,
)
from repro.distributed.ingest import (
    DistributedIngestResult,
    DynamicIngestCoordinator,
    DynamicIngestResult,
    DynamicWorkerConfig,
    IngestCoordinator,
    RecoveryReport,
    WorkerConfig,
    dynamic_worker_main,
    run_distributed_ingest,
    run_dynamic_ingest,
    tree_merge,
    worker_main,
)
from repro.distributed.transport import (
    TRANSPORT_NAMES,
    Channel,
    InprocTransport,
    PipeTransport,
    TcpTransport,
    create_transport,
)
from repro.distributed.wire import (
    WIRE_VERSION,
    FrameTooLargeError,
    WireFormatError,
    decode_batch,
    decode_config,
    decode_frame,
    decode_state,
    encode_batch,
    encode_config,
    encode_frame,
    encode_state,
)

__all__ = [
    "Channel",
    "ChannelFault",
    "DistributedIngestResult",
    "DynamicIngestCoordinator",
    "DynamicIngestResult",
    "DynamicWorkerConfig",
    "FaultInjectingChannel",
    "FaultInjectingTransport",
    "FaultPlan",
    "FrameTooLargeError",
    "IngestCoordinator",
    "RecoveryReport",
    "InprocTransport",
    "PipeTransport",
    "TcpTransport",
    "TRANSPORT_NAMES",
    "WIRE_VERSION",
    "WireFormatError",
    "WorkerConfig",
    "create_transport",
    "decode_batch",
    "decode_config",
    "decode_frame",
    "decode_state",
    "dynamic_worker_main",
    "encode_batch",
    "encode_config",
    "encode_frame",
    "encode_state",
    "run_distributed_ingest",
    "run_dynamic_ingest",
    "tree_merge",
    "worker_main",
]
