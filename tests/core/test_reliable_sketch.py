"""ReliableSketch unit tests: construction, insertion paths, queries, guarantees."""

from __future__ import annotations

import pytest

from repro.core.config import ReliableConfig
from repro.core.emergency import SpaceSavingEmergencyStore
from repro.core.reliable_sketch import ReliableSketch
from repro.metrics.accuracy import evaluate_accuracy
from repro.metrics.memory import mb


def make_sketch(**kwargs) -> ReliableSketch:
    defaults = dict(memory_bytes=32 * 1024, tolerance=25.0, seed=1)
    defaults.update(kwargs)
    return ReliableSketch.from_memory(**defaults)


class TestConstruction:
    def test_from_memory_respects_budget(self):
        sketch = make_sketch(memory_bytes=mb(1))
        assert sketch.memory_bytes() <= mb(1) * 1.01
        assert sketch.depth >= 7
        assert sketch.has_mice_filter

    def test_from_memory_default_tolerance_is_paper_default(self):
        sketch = ReliableSketch.from_memory(64 * 1024)
        assert sketch.tolerance == 25.0

    def test_from_stream_uses_recommended_sizing(self):
        sketch = ReliableSketch.from_stream(total_value=100_000, tolerance=25)
        assert sketch.config.total_buckets >= 100_000 / 25

    def test_raw_variant_has_no_filter(self):
        sketch = make_sketch(use_mice_filter=False)
        assert not sketch.has_mice_filter
        assert sketch.mice_filter is None

    def test_explicit_config_accepted(self):
        config = ReliableConfig.build(total_buckets=100, tolerance=25)
        sketch = ReliableSketch(config, seed=3)
        assert sketch.depth == config.depth

    def test_parameters_describe_structure(self):
        params = make_sketch().parameters()
        assert params["use_mice_filter"] is True
        assert len(params["widths"]) == params["depth"]


class TestInsertAndQuery:
    def test_single_key_exact(self):
        sketch = make_sketch()
        sketch.insert("solo", 1_000)
        result = sketch.query_with_error("solo")
        assert result.estimate == 1_000
        assert result.contains(1_000)

    def test_never_seen_key_estimate_bounded_by_mpe(self):
        sketch = make_sketch()
        for i in range(5_000):
            sketch.insert(i % 500)
        result = sketch.query_with_error("ghost-key")
        assert abs(result.estimate - 0) <= result.mpe

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError):
            make_sketch().insert("x", 0)

    def test_weighted_equivalent_to_repeated_unit(self):
        weighted = make_sketch(seed=5)
        repeated = make_sketch(seed=5)
        weighted.insert("flow", 40)
        for _ in range(40):
            repeated.insert("flow", 1)
        assert weighted.query("flow") == repeated.query("flow") == 40

    def test_query_equals_query_with_error_estimate(self, small_ip_trace):
        sketch = make_sketch()
        sketch.insert_stream(small_ip_trace)
        for key in list(small_ip_trace.counts())[:100]:
            assert sketch.query(key) == sketch.query_with_error(key).estimate

    def test_sensed_error_is_mpe(self):
        sketch = make_sketch()
        sketch.insert("a", 10)
        assert sketch.sensed_error("a") == sketch.query_with_error("a").mpe


class TestGuarantees:
    def test_zero_outliers_at_recommended_sizing(self, small_ip_trace):
        sketch = ReliableSketch.from_stream(
            total_value=small_ip_trace.total_value(), tolerance=25, seed=2
        )
        sketch.insert_stream(small_ip_trace)
        report = evaluate_accuracy(small_ip_trace.counts(), sketch.query, 25)
        assert sketch.insert_failures == 0
        assert report.outliers == 0
        assert report.max_error <= 25

    def test_all_errors_below_tolerance_without_failures(self, small_zipf_stream):
        sketch = ReliableSketch.from_stream(
            total_value=small_zipf_stream.total_value(), tolerance=25, seed=3
        )
        sketch.insert_stream(small_zipf_stream)
        assert sketch.insert_failures == 0
        truth = small_zipf_stream.counts()
        for key, value in truth.items():
            assert abs(sketch.query(key) - value) <= 25

    def test_intervals_contain_truth_without_failures(self, small_ip_trace):
        sketch = ReliableSketch.from_stream(
            total_value=small_ip_trace.total_value(), tolerance=25, seed=4
        )
        sketch.insert_stream(small_ip_trace)
        assert sketch.insert_failures == 0
        for key, value in small_ip_trace.counts().items():
            assert sketch.query_with_error(key).contains(value)

    def test_guarantee_flag_reflects_failures(self, small_ip_trace):
        tight = ReliableSketch.from_memory(2 * 1024, tolerance=25, seed=5)
        tight.insert_stream(small_ip_trace)
        assert tight.insert_failures > 0
        assert not tight.guarantee_intact
        comfortable = ReliableSketch.from_stream(
            total_value=small_ip_trace.total_value(), tolerance=25, seed=5
        )
        comfortable.insert_stream(small_ip_trace)
        assert comfortable.guarantee_intact

    def test_emergency_store_restores_interval_soundness(self, small_ip_trace):
        sketch = ReliableSketch.from_memory(
            2 * 1024, tolerance=25, seed=6, use_emergency=True
        )
        sketch.insert_stream(small_ip_trace)
        assert sketch.insert_failures > 0
        assert sketch.guarantee_intact
        for key, value in small_ip_trace.counts().items():
            assert sketch.query_with_error(key).contains(value)

    def test_custom_emergency_store_used(self):
        store = SpaceSavingEmergencyStore(capacity=16)
        config = ReliableConfig.build(total_buckets=4, tolerance=5, depth=2)
        sketch = ReliableSketch(config, seed=7, emergency=store)
        for i in range(200):
            sketch.insert(i, 10)
        assert sketch.emergency is store
        assert store.stored_keys > 0

    def test_mpe_never_exceeds_filter_cap_plus_threshold_sum(self, small_ip_trace):
        sketch = make_sketch(memory_bytes=16 * 1024)
        sketch.insert_stream(small_ip_trace)
        bound = 3 + sketch.config.threshold_sum
        for key in list(small_ip_trace.counts())[:300]:
            assert sketch.sensed_error(key) <= bound


class TestDiagnostics:
    def test_layer_occupancy_shape_and_range(self, small_ip_trace):
        sketch = make_sketch()
        sketch.insert_stream(small_ip_trace)
        occupancy = sketch.layer_occupancy()
        assert len(occupancy) == sketch.depth
        assert all(0.0 <= value <= 1.0 for value in occupancy)
        assert occupancy[0] > 0.0

    def test_locked_bucket_counts(self, small_ip_trace):
        tight = ReliableSketch.from_memory(4 * 1024, tolerance=25, seed=8)
        tight.insert_stream(small_ip_trace)
        locked = tight.locked_buckets()
        assert len(locked) == tight.depth
        assert sum(locked) > 0

    def test_settled_layer_counts_sum_to_inserts(self, small_zipf_stream):
        sketch = make_sketch()
        sketch.insert_stream(small_zipf_stream)
        settled = sum(sketch.inserts_settled_per_layer) + sketch.insert_failures
        assert settled == len(small_zipf_stream)

    def test_operation_counters(self):
        sketch = make_sketch()
        sketch.insert("a")
        sketch.insert_batch(["b", "c"])
        assert sketch.state_snapshot()["stats"][2] == 3  # inserts

    def test_hash_call_accounting_resets(self):
        sketch = make_sketch()
        sketch.insert("a")
        assert sketch.hash_calls() > 0
        sketch.reset_hash_calls()
        assert sketch.hash_calls() == 0

    def test_settled_layer_of_key(self):
        sketch = make_sketch()
        sketch.insert("k", 100)
        assert 1 <= sketch.settled_layer_of("k") <= sketch.depth
