"""Server process of the pipeline benchmark: ``repro-cli serve`` with pins.

Started by the benchmark, one fresh interpreter per server::

    python3 -u pipebench/server_main.py [--trace-out FILE] -- serve --async --store DIR ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged, so the server
runs the ``repro-cli serve --async --store`` path.  Before that, this file

* times the import of the modules the server runs (``serve.import_s``);
* pins the settings the CLI does not expose (store retention, snapshot
  cadence, journal fsync, the event loop's service batch) to the values in
  ``config.json`` by passing them explicitly, so a changed library default
  cannot change the benchmark's traffic;
* with ``--trace-out``, installs the span wrappers before the service is
  built and writes the spans to FILE when it receives SIGUSR1 (the
  benchmark then kills the process with SIGKILL).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    started = time.perf_counter_ns()
    import repro.cli
    import repro.serve.async_server as async_server
    import repro.serve.server  # noqa: F401  (the serve command's imports)
    import repro.store as store
    import_ns = time.perf_counter_ns() - started

    import common
    import tracing

    settings = common.load_config()["serve"]
    servers: list = []

    class PinnedStore(store.SketchStore):
        def __init__(self, directory, **kwargs):
            kwargs.update(
                retention_epochs=settings["store_retention_epochs"],
                snapshot_every_epochs=settings["store_snapshot_every_epochs"],
                sync=settings["store_sync"],
                max_sync_seconds=settings["store_max_sync_seconds"],
            )
            super().__init__(directory, **kwargs)

    class PinnedServer(async_server.AsyncSketchServer):
        def __init__(self, service, *args, **kwargs):
            kwargs["service_batch"] = settings["service_batch"]
            super().__init__(service, *args, **kwargs)
            servers.append(self)

    store.SketchStore = PinnedStore
    async_server.AsyncSketchServer = PinnedServer

    if trace_out is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer, "server")

        def dump(signum, frame):
            payload = {
                "spans": tracer.export(),
                "import_ns": import_ns,
                "server": servers[0].stats.to_dict() if servers else {},
            }
            partial = trace_out + ".tmp"
            with open(partial, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(partial, trace_out)

        signal.signal(signal.SIGUSR1, dump)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
