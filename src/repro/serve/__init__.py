"""Online query serving: snapshot-isolated reads concurrent with ingest.

The sixth layer of the engine (see ``docs/architecture.md``).  Everything
below it answers queries *after* a stream has been absorbed; this package
answers them *while* the stream is being absorbed, without ever letting a
reader observe a half-applied update:

* :mod:`repro.serve.snapshots` — epoch-based snapshot rotation: a single
  writer ingests batches into the live sketch and periodically publishes an
  immutable replica (``copy_state_into`` a factory-built peer when the
  sketch snapshots, deep copy otherwise).  Readers always see the latest
  *published* epoch, so every answer is bit-identical to querying a frozen
  copy of the sketch at that epoch — reads never contend with inserts.
* :mod:`repro.serve.service` — :class:`~repro.serve.service.SketchService`:
  the query front end (``query`` / ``query_batch`` / ``top_k`` / ``stats``),
  every answer computed against the epoch it is stamped with.
* :mod:`repro.serve.server` — the service config, the request path every
  remote answer takes (``answer_request``, the in-process service call
  behind a query frame), and the client behind ``repro-cli query``.
* :mod:`repro.serve.async_server` — the one server loop, the TCP front end
  of ``repro-cli serve``: a selector event loop multiplexing every live
  connection over one shared service, with pipelined frames, bounded
  in-flight admission control (typed BUSY replies) and graceful drain.
  ``AsyncServingSession`` runs it on a thread and dials clients to it.
* :mod:`repro.serve.loadgen` — load generation: a closed-loop generator
  (Zipf key mix, configurable read/write ratio) and an open-loop
  multi-client harness (target-qps Poisson arrivals, per-request latency),
  both behind ``benchmarks/bench_serving.py``.
* :mod:`repro.serve.errors` — the typed query-rejection hierarchy
  (:class:`~repro.serve.errors.ServerBusyError` is retryable;
  :class:`~repro.serve.errors.EpochGoneError` — a pinned epoch evicted
  from the temporal ring — is not).  The ring itself, sliding-window
  deltas, and heavy-hitter change detection live in :mod:`repro.temporal`
  and surface here through ``SketchService``.
"""

from repro.serve.async_server import (
    AsyncServerStats,
    AsyncServingSession,
    AsyncSketchServer,
)
from repro.serve.loadgen import (
    LoadGenConfig,
    LoadGenReport,
    OpenLoopConfig,
    OpenLoopReport,
    run_loadgen,
    run_open_loop,
)
from repro.serve.errors import EpochGoneError, QueryRejectedError, ServerBusyError
from repro.serve.server import (
    QueryClient,
    RetryPolicy,
    ServeConfig,
    ServeTimeoutError,
    create_listener,
)
from repro.serve.service import SketchService
from repro.serve.snapshots import EpochSnapshot, EpochWriter, replicate_sketch

__all__ = [
    "AsyncServerStats",
    "AsyncServingSession",
    "AsyncSketchServer",
    "EpochGoneError",
    "EpochSnapshot",
    "EpochWriter",
    "LoadGenConfig",
    "LoadGenReport",
    "OpenLoopConfig",
    "OpenLoopReport",
    "QueryClient",
    "QueryRejectedError",
    "RetryPolicy",
    "ServeConfig",
    "ServerBusyError",
    "ServeTimeoutError",
    "SketchService",
    "create_listener",
    "replicate_sketch",
    "run_loadgen",
    "run_open_loop",
]
