"""Distributed ingest over pluggable transports.

This package turns the shard/merge subsystem into a deployable pipeline:
worker nodes own partition-local sketches, consume
:class:`~repro.hashing.EncodedKeyBatch` chunks over a pluggable transport,
and a collector tree-merges the partitions' state snapshots into one
sketch — bit-identical to single-node ingest for every exactly-mergeable
family (CM, Count) and within CU's documented upper-bound merge semantics.

Four cooperating layers:

* :mod:`repro.distributed.wire` — versioned, length-prefixed serialization
  of key batches and sketch table state.  Batch frames carry the packed
  per-key encodings of the batch datapath, so a decoded batch enters the
  receiving sketch's ``insert_batch`` without re-encoding a single key.
* :mod:`repro.distributed.transport` — one :class:`Transport` protocol with
  three backends: ``inproc`` (queue pair, worker threads), ``pipe``
  (``multiprocessing`` pipes + processes) and ``tcp`` (length-prefixed
  frames over sockets).  The ingest logic never branches on the backend.
* :mod:`repro.distributed.ingest` — the one ingest fleet: the
  transport-agnostic worker loop (:func:`dynamic_worker_main`) and the
  coordinator/collector (:class:`DynamicIngestCoordinator`,
  :func:`run_dynamic_ingest`).  Keys hash to fixed partitions with the
  *same* partition hash as :class:`~repro.sketches.sharded.ShardedSketch`,
  so each key's whole history reaches one partition in stream order, which
  keeps remote ingest exact even for order-dependent families.  The
  partition->worker assignment is epoch-versioned
  (:class:`~repro.sketches.sharded.EpochRouter`), which gives live
  resharding (split/merge/add/remove under ingest via epoch-fenced state
  handoff), worker-failure recovery (heartbeats, snapshot+journal restore
  onto survivors, exact lost-window reporting) and credit-based flow
  control on routed batches.
* :mod:`repro.distributed.fault` — a deterministic fault-injection harness
  that the chaos/property suites drive.

See ``docs/architecture.md`` for the full deployment picture.
"""

from repro.distributed.fault import (
    ChannelFault,
    FaultInjectingChannel,
    FaultInjectingTransport,
    FaultPlan,
)
from repro.distributed.ingest import (
    DynamicIngestCoordinator,
    DynamicIngestResult,
    DynamicWorkerConfig,
    RecoveryReport,
    dynamic_worker_main,
    run_dynamic_ingest,
    tree_merge,
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
    "DynamicIngestCoordinator",
    "DynamicIngestResult",
    "DynamicWorkerConfig",
    "FaultInjectingChannel",
    "FaultInjectingTransport",
    "FaultPlan",
    "FrameTooLargeError",
    "RecoveryReport",
    "InprocTransport",
    "PipeTransport",
    "TcpTransport",
    "TRANSPORT_NAMES",
    "WIRE_VERSION",
    "WireFormatError",
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
    "run_dynamic_ingest",
    "tree_merge",
]
