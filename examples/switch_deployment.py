#!/usr/bin/env python3
"""Programmable-switch deployment: resources, accuracy, distributed collection.

Reproduces, at reduced scale, the switch-related results and the deployment
shape they imply:

* Table 4 — the resource usage of ReliableSketch on a Tofino pipeline.
* Figure 20 — accuracy of the constrained data-plane algorithm versus SRAM
  budget on the surrogate IP trace and Hadoop traces.
* Distributed collection — several measurement points each ingest their key
  partition into a shard-local sketch; a collector tree-merges the shipped
  sketch states into one summary, bit-identical to a single box seeing the
  whole stream (``repro.distributed``, see ``docs/architecture.md`` §5).

Run with::

    python examples/switch_deployment.py
"""

from __future__ import annotations

from repro.distributed import run_dynamic_ingest
from repro.experiments.deployment import testbed_accuracy
from repro.experiments.tables import format_table, tofino_table_rows
from repro.hardware.fpga import FpgaModel
from repro.core.config import ReliableConfig
from repro.sketches.registry import build_sketch
from repro.streams.traces import ip_trace


def main() -> None:
    print("=== Table 4: Tofino resource usage (6 bucket layers) ===")
    print(format_table(["Resource", "Usage", "Percentage"], tofino_table_rows(layers=6)))

    print("\n=== Table 3: FPGA synthesis model (1 MB configuration) ===")
    config = ReliableConfig.from_memory(1024 * 1024, tolerance=25.0)
    report = FpgaModel().synthesize(config)
    rows = [
        [m.module, m.clb_luts, m.clb_registers, m.block_ram, m.frequency_mhz]
        for m in report.modules
    ]
    print(format_table(["Module", "LUTs", "Registers", "BRAM", "MHz"], rows))
    print(f"pipeline throughput: {report.throughput_mops:.0f} M insertions/s "
          f"({report.insert_latency_cycles} cycles latency)")

    print("\n=== Figure 20: data-plane accuracy vs SRAM ===")
    for trace in ("ip", "hadoop"):
        curve = testbed_accuracy(trace_name=trace, scale=0.002, seed=1)
        print(f"\n[{trace} trace]")
        rows = [
            [f"{r.sram_bytes / 1024:.1f} KB", r.outliers, f"{r.aae_kbps:.1f}", r.recirculations]
            for r in curve.results
        ]
        print(format_table(["SRAM", "#Outliers", "AAE (Kbps)", "Recirculations"], rows))

    print("\n=== Distributed collection: 4 measurement points, one collector ===")
    # The deployment behind the paper's multi-vantage measurement setting:
    # each ingest node owns the sketch for its hash partition of the keys,
    # ships its table state to the collector, and the tree merge equals one
    # sketch that saw the whole stream (exactly, for CM/Count).
    stream = ip_trace(scale=0.004, seed=7)
    memory_bytes = 32 * 1024
    result = run_dynamic_ingest(
        "CM_fast", memory_bytes, stream, workers=4, transport="inproc", seed=7
    )
    single = build_sketch("CM_fast", memory_bytes, seed=7)
    single.insert_stream(stream)
    keys = stream.keys()
    identical = bool(
        (result.merged.query_batch(keys) == single.query_batch(keys)).all()
    )
    print(f"stream: {len(stream):,} packets over 4 ingest nodes "
          f"{list(result.items_per_partition)}")
    print(f"wire: {result.bytes_sent:,} B of routed batches out, "
          f"{result.bytes_received:,} B of sketch state back")
    print(f"collector tree-merged 4 snapshots in {result.merge_seconds * 1e3:.2f} ms; "
          f"bit-identical to a single collector-side sketch: {identical}")


if __name__ == "__main__":
    main()
