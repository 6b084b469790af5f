"""Tests of the benchmark's pure helpers: spans, percentiles, seeded inputs.

Run from the repository root with ``python3 -m pytest pipebench/tests``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402
import tracing  # noqa: E402

common.require_source_tree()


# --------------------------------------------------------------- self time
def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 30], b [40, 70] > c [50, 60]
    starts = [0, 10, 40, 50]
    ends = [100, 30, 70, 60]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [50, 20, 20, 10]


def test_self_time_clips_children_to_their_parent():
    # root [0, 10] > a [5, 12] (overhangs the root), b [8, 9] (inside a)
    assert tracing.self_times([0, 5, 8], [10, 12, 9], [-1, 0, 0]) == [5, 7, 1]


def _fake_clock(monkeypatch):
    ticks = iter(range(0, 10_000, 10))
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(ticks))


def test_reentrant_wrapped_calls_charge_each_tick_once(monkeypatch):
    _fake_clock(monkeypatch)
    tracer = tracing.Tracer()
    holder = {}

    def countdown(n):
        if n:
            holder["fn"](n - 1)

    holder["fn"] = tracer.wrap(countdown, "layer.countdown")
    holder["fn"](3)
    spans = tracer.export()
    assert spans["names"] == ["layer.countdown"] * 4
    assert spans["parents"] == [-1, 0, 1, 2]
    selfs = tracing.self_times(spans["starts"], spans["ends"], spans["parents"])
    assert all(value >= 0 for value in selfs)
    assert sum(selfs) == spans["ends"][0] - spans["starts"][0]


def test_wrapped_override_calling_wrapped_base(monkeypatch):
    _fake_clock(monkeypatch)
    tracer = tracing.Tracer()

    class Base:
        def work(self, items):
            return len(items)

    class Derived(Base):
        def work(self, items):
            return super().work(items) + 1

    tracer.patch(Base, "work", "layer.work", tracing._len_arg1)
    tracer.patch(Derived, "work", "layer.work", tracing._len_arg1)
    assert Derived().work([1, 2, 3]) == 4
    spans = tracer.export()
    assert spans["parents"] == [-1, 0]
    assert spans["counts"] == [3, 3]
    selfs = tracing.self_times(spans["starts"], spans["ends"], spans["parents"])
    assert sum(selfs) == spans["ends"][0] - spans["starts"][0]
    rows = tracing.merge_exports([spans])
    # Both spans share one name: the layer metric sums their self times.
    assert sum(row[3] for row in rows) == spans["ends"][0] - spans["starts"][0]


def test_wrapping_is_idempotent_and_requests_follow_roots():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap(leaf, "layer.leaf")
    assert tracer.wrap(wrapped_leaf, "layer.leaf") is wrapped_leaf
    root = tracer.wrap(lambda: wrapped_leaf() + wrapped_leaf(), "layer.root")
    root()
    root()
    spans = tracer.export()
    assert spans["names"] == ["layer.root", "layer.leaf", "layer.leaf"] * 2
    assert spans["requests"] == [0, 0, 0, 1, 1, 1]


def test_disabled_tracer_records_nothing():
    tracer = tracing.Tracer()
    wrapped = tracer.wrap(lambda x: x * 2, "layer.double")
    tracer.enabled = False
    assert wrapped(4) == 8
    assert tracer.export()["names"] == []


def test_iterator_spans_time_each_next_under_the_caller():
    tracer = tracing.Tracer()

    def chunks(n):
        for start in range(0, n, 2):
            yield list(range(start, min(n, start + 2)))

    traced_chunks = tracer.wrap_iter(chunks, "streams.chunk")
    driver = tracer.wrap(lambda: [len(chunk) for chunk in traced_chunks(5)], "distributed.run")
    assert driver() == [2, 2, 1]
    spans = tracer.export()
    assert spans["names"] == ["distributed.run"] + ["streams.chunk"] * 4
    assert spans["parents"] == [-1, 0, 0, 0, 0]
    assert spans["counts"][1:] == [2, 2, 1, 0]


def test_layer_metrics_attribute_children_by_parent():
    names = ["serve.replicate", "sketches.state_snapshot", "store.publish_epoch",
             "sketches.state_snapshot", "distributed.send_batch", "transport.recv",
             "transport.recv"]
    export = {
        "pid": 1,
        "names": names,
        "starts": [0, 10, 100, 110, 200, 210, 300],
        "ends": [50, 30, 160, 150, 260, 240, 305],
        "parents": [-1, 0, -1, 2, -1, 4, -1],
        "requests": [0, 0, 1, 1, 2, 2, 3],
        "counts": [1, 1, 1, 1, 8, 100, 50],
    }
    values = tracing.layer_metrics(tracing.merge_exports([export]), {}, [])
    assert values["serve.publish.state_snapshot_s"] == pytest.approx(20e-9)
    assert values["store.publish.state_snapshot_s"] == pytest.approx(40e-9)
    assert values["serve.publish_s"] == pytest.approx(30e-9)
    assert values["store.snapshots_written"] == 1
    assert values["distributed.credit_wait_s"] == pytest.approx(30e-9)
    assert values["transport.recv_wait_s"] == pytest.approx(35e-9)
    assert values["wire.bytes_received"] == 150


# -------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    "samples, rung",
    [(9, None), (20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0),
     (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, rung):
    assert common.tail_percentile(samples) == rung
    if rung is not None:
        assert round(samples * (100 - rung) / 100, 6) >= common.MIN_BEYOND


def test_spread_uses_statistics_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    summary = common.spread(values)
    assert (summary["q1"], summary["q3"]) == (q1, q3)
    assert summary["median"] == statistics.median(values)
    assert summary["spread"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert (summary["min"], summary["max"]) == (1.0, 10.0)


# ----------------------------------------------------------------- inputs
def test_same_seed_gives_identical_inputs():
    first = common.zipf_keys(7, 50_000, 1.1, 1 << 20)
    second = common.zipf_keys(7, 50_000, 1.1, 1 << 20)
    other = common.zipf_keys(8, 50_000, 1.1, 1 << 20)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)
    assert first.min() >= 0 and first.max() < 2**31


def test_key_spreading_is_a_bijection_of_ranks():
    from repro.streams.synthetic import ZipfGenerator

    ranks = ZipfGenerator(1.1, universe=1 << 16, seed=3).draw(200_000).astype(np.int64)
    keys = common.zipf_keys(3, 200_000, 1.1, 1 << 16)
    pairs = np.unique((ranks << 32) | keys)
    assert len(pairs) == len(np.unique(ranks)) == len(np.unique(keys))


def test_fleet_trace_is_seeded():
    from repro.streams.traces import ip_trace

    first = [item.key for item in ip_trace(0.001, seed=5)]
    assert first == [item.key for item in ip_trace(0.001, seed=5)]
    assert first != [item.key for item in ip_trace(0.001, seed=6)]


def test_peak_resident_set_is_read_from_proc():
    import os

    assert common.vm_hwm_mb(os.getpid()) > 1.0


def test_split_batches_covers_every_key_in_order():
    keys = np.arange(10)
    batches = common.split_batches(keys, 4)
    assert [len(batch) for batch in batches] == [4, 4, 2]
    assert np.array_equal(np.concatenate(batches), keys)


# ------------------------------------------------------- metric catalogue
def test_reported_metrics_match_the_benchmark_catalogue():
    import json
    from types import SimpleNamespace

    import workloads

    catalogue = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    config = common.load_config()

    current = workloads.Pass(traced=True)
    for name in ("setup", "ingest", "restart", "capacity", "rss"):
        current.samples[name] = [1.0, 2.0, 3.0]
    current.samples["latency"] = [0.001] * 1000
    run = SimpleNamespace(workload="serve-ingest")
    end_to_end, counts, informational = workloads.end_to_end(run, current, enforce_samples=False)
    assert {name: unit for name, (_, unit) in end_to_end.items()} == {
        metric["name"]: metric["unit"] for metric in catalogue["end_to_end"]
    }
    # The read tails are printed with their sample counts but not judged.
    assert set(informational) == {"read_p90_ms", "read_p99_ms"}
    assert counts["read_p99_ms"] == 1000 and common.tail_percentile(1000) == 99.0

    layers = workloads.per_layer(run, current, current, 1.0)
    assert {name: workloads._unit(name) for name in layers} == {
        metric["name"]: metric["unit"] for metric in catalogue["per_layer"]
    }
    targeted = [name for layer in config["layer_targets"].values() for name in layer["metrics"]]
    assert sorted(targeted) == sorted(layers)
    assert [workload["name"] for workload in catalogue["workloads"]] == list(common.WORKLOADS)
