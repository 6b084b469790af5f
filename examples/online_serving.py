"""Online serving walkthrough: query a sketch while it is still ingesting.

The measurement-sketch workload of the paper is interactive in practice —
an operator asks for per-flow estimates and heavy hitters *while* the
stream is being absorbed.  This example runs the whole serving stack in a
few lines:

1. serve a ReliableSketch behind the TCP event loop that ``repro-cli
   serve`` runs (real sockets, on a background thread) and connect a
   client to it;
2. stream writes to it while reading concurrently, observing epoch
   rotation and bounded staleness;
3. verify the serving contract: answers stamped with epoch E are
   bit-identical to a frozen copy of the sketch at E, and after a flush
   the service agrees with a local reference sketch fed the same stream.

Run it directly::

    PYTHONPATH=src python examples/online_serving.py
"""

from __future__ import annotations

import os

from repro.serve import AsyncServingSession, LoadGenConfig, ServeConfig, run_loadgen
from repro.sketches.registry import build_sketch
from repro.streams.synthetic import zipf_stream

MEMORY_BYTES = 64 * 1024
SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))


def main() -> None:
    config = ServeConfig("Ours", MEMORY_BYTES, seed=0, publish_every_items=4096)
    stream = zipf_stream(int(40_000 * SCALE) or 2000, skew=1.2, seed=11)
    reference = build_sketch("Ours", MEMORY_BYTES, seed=0)

    with AsyncServingSession(config.build_service()) as session:
        client = session.connect()

        # --- writes and reads interleaved -------------------------------
        for chunk in stream.iter_batches(1024):
            client.ingest([item.key for item in chunk], [item.value for item in chunk])
            reference.insert_batch(
                [item.key for item in chunk], [item.value for item in chunk]
            )
        stats = client.stats()
        print(
            f"mid-stream: epoch {stats['epoch_id']}, "
            f"{stats['items_ingested']} items absorbed, "
            f"readers lag by {stats['staleness_items']} items"
        )

        # --- read-your-writes barrier, then the contract check ----------
        epoch = client.flush()
        keys = stream.keys()
        served, answered_at = client.query_batch(keys)
        identical = bool((served == reference.query_batch(keys)).all())
        print(
            f"flushed to epoch {epoch}; {len(keys)} keys served at epoch "
            f"{answered_at} bit-identical to the local reference: {identical}"
        )

        # --- heavy hitters straight from the service --------------------
        ranking, _ = client.top_k(5)
        print("top-5 flows:", ", ".join(f"{key}={estimate}" for key, estimate in ranking))

        # --- a small mixed read/write load, measured --------------------
        report = run_loadgen(
            client,
            LoadGenConfig(operations=max(200, int(1000 * SCALE)), read_ratio=0.5,
                          seed=3),
        )
        print(
            f"loadgen: {report.ops_per_second:,.0f} ops/s sustained, "
            f"read p50 {report.read_latency_p50_ms:.3f} ms / "
            f"p99 {report.read_latency_p99_ms:.3f} ms, "
            f"{report.epochs_published} epochs rotated, "
            f"epoch-consistent reads: {report.epoch_consistent}"
        )
        client.close()


if __name__ == "__main__":
    main()
