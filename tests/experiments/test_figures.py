"""Per-figure experiment functions: structure and qualitative shape.

These tests run each figure's experiment at a very small scale and assert the
*shape* the paper reports (who wins, directions of trends), not absolute
numbers — absolute values belong to the benchmark harness.
"""

from __future__ import annotations

import pytest

from repro.experiments import deployment, error, outliers, parameters, sensing, speed

SCALE = 0.001
MEMORY_POINTS = [1024.0, 2048.0, 4096.0, 8192.0]


class TestOutliers:
    def test_fig4_reliable_reaches_zero_before_cm(self):
        curves = {
            c.algorithm: c
            for c in outliers.outliers_vs_memory(
                dataset_name="ip", tolerance=25, scale=SCALE,
                memory_points=MEMORY_POINTS,
                algorithms=("Ours", "CM_acc", "CM_fast"), seed=1,
            )
        }
        ours = curves["Ours"].zero_outlier_memory()
        cm = curves["CM_acc"].zero_outlier_memory()
        assert ours is not None
        assert cm is None or ours <= cm

    def test_fig5_reliable_needs_least_memory(self):
        result = outliers.zero_outlier_memory(
            dataset_names=("ip",), tolerance=25, scale=SCALE,
            algorithms=("Ours", "CM_acc", "CU_acc"), seed=1, high_megabytes=10.0,
        )["ip"]
        assert result["Ours"] is not None
        for other in ("CM_acc", "CU_acc"):
            assert result[other] is None or result["Ours"] <= result[other]

    def test_fig7_frequent_key_curves_cover_all_competitors(self):
        curves = outliers.frequent_key_outliers(
            threshold=100, scale=SCALE, memory_points=MEMORY_POINTS[:2],
            repetitions=1, seed=1,
        )
        names = {c.algorithm for c in curves}
        assert {"Ours", "PRECISION", "Elastic", "HashPipe", "SS"} == names
        ours = next(c for c in curves if c.algorithm == "Ours")
        assert min(ours.outliers) == 0


class TestError:
    def test_fig8_fig9_errors_shrink_with_memory(self):
        curves = error.average_error_sweep(
            dataset_name="ip", scale=SCALE, memory_points=MEMORY_POINTS,
            algorithms=("Ours", "CM_fast"), seed=1,
        )
        for curve in curves:
            assert curve.aae[-1] <= curve.aae[0]
            assert curve.are[-1] <= curve.are[0]

    def test_fig8_reliable_competitive_with_cm(self):
        """Under tight memory ReliableSketch clearly beats CM; with generous
        memory it stays comparable (the paper's "comparable to the best"
        claim), never pathologically worse."""
        curves = {
            c.algorithm: c
            for c in error.average_error_sweep(
                dataset_name="ip", scale=SCALE, memory_points=[1024.0, 8192.0],
                algorithms=("Ours", "CM_fast"), seed=1,
            )
        }
        tight_ours, generous_ours = curves["Ours"].aae
        tight_cm, generous_cm = curves["CM_fast"].aae
        assert tight_ours <= tight_cm
        assert generous_ours <= max(2.0 * generous_cm, 3.0)


class TestSpeed:
    def test_fig10_reports_positive_throughput_for_all(self):
        rows = speed.throughput_comparison(
            scale=SCALE, algorithms=("Ours", "Ours(Raw)", "CM_fast"), seed=1
        )
        assert all(row.insert_mops > 0 and row.query_mops > 0 for row in rows)
        by_name = {row.algorithm: row for row in rows}
        # The raw variant skips the mice filter and must insert faster.
        assert by_name["Ours(Raw)"].insert_mops > by_name["Ours"].insert_mops

    def test_fig10_batch_timing_feeds_int64_slices(self, monkeypatch):
        """The timed batch calls get int64 arrays and every item exactly once."""
        import numpy as np

        from repro.core import ReliableSketch
        from repro.experiments.datasets import dataset

        inserted, queried = [], []
        insert_batch, query_batch = ReliableSketch.insert_batch, ReliableSketch.query_batch

        def spy_insert(sketch, keys, values=None):
            inserted.append((keys, values))
            return insert_batch(sketch, keys, values)

        def spy_query(sketch, keys):
            queried.append(keys)
            return query_batch(sketch, keys)

        monkeypatch.setattr(ReliableSketch, "insert_batch", spy_insert)
        monkeypatch.setattr(ReliableSketch, "query_batch", spy_query)
        speed.throughput_comparison(scale=SCALE, algorithms=("Ours",), seed=1, batch_size=256)
        stream = dataset("ip", scale=SCALE, seed=2)
        for keys, values in inserted:
            assert isinstance(keys, np.ndarray) and keys.dtype == np.int64
            assert isinstance(values, np.ndarray) and values.dtype == np.int64
        assert all(isinstance(keys, np.ndarray) and keys.dtype == np.int64 for keys in queried)
        assert np.array_equal(np.concatenate([keys for keys, _ in inserted]), stream.key_array)
        assert np.array_equal(np.concatenate([values for _, values in inserted]), stream.value_array)
        assert np.concatenate(queried).tolist() == stream.keys()

    def test_fig16_hash_calls_converge_to_paper_limits(self):
        curves = {
            c.algorithm: c
            for c in speed.hash_call_profile(
                scale=SCALE, memory_points=[2048.0, 8192.0, 32768.0], seed=1
            )
        }
        # CM always does exactly `depth` calls per operation.
        assert all(calls == pytest.approx(3.0) for calls in curves["CM_fast"].insert_calls)
        # The raw variant approaches 1 call/insert with generous memory,
        # the filtered variant approaches 3 (2 filter calls + 1 layer call).
        assert curves["Ours(Raw)"].insert_calls[-1] < 1.5
        assert curves["Ours"].insert_calls[-1] < 3.5
        # Hash calls decrease (or stay flat) as memory grows.
        assert curves["Ours"].insert_calls[-1] <= curves["Ours"].insert_calls[0]


class TestParameters:
    def test_fig11_rw_sweep_structure(self):
        curves = parameters.rw_sweep(
            r_w_values=[2.0, 8.0], r_lambda_values=[2.5], scale=SCALE, seed=1
        )
        assert len(curves) == 1
        assert [p.parameter for p in curves[0].points] == [2.0, 8.0]
        found = [p.memory_bytes for p in curves[0].points if p.memory_bytes is not None]
        assert found  # at least one setting reaches zero outliers

    def test_fig13_rlambda_sweep_structure(self):
        curves = parameters.rlambda_sweep(
            r_lambda_values=[2.5, 9.0], r_w_values=[2.0], scale=SCALE, seed=1
        )
        assert len(curves) == 1
        assert len(curves[0].points) == 2

    def test_fig15_memory_decreases_with_larger_tolerance(self):
        result = parameters.lambda_sweep(
            dataset_names=("ip",), tolerances=[25.0, 100.0], scale=SCALE, seed=1
        )["ip"]
        by_tolerance = {p.parameter: p.memory_bytes for p in result}
        if by_tolerance[25.0] is not None and by_tolerance[100.0] is not None:
            assert by_tolerance[100.0] <= by_tolerance[25.0]


class TestSensing:
    def test_fig17_intervals_contain_truth(self):
        mice, elephants = sensing.sensed_intervals(
            scale=SCALE, memory_megabytes=4.0, sample_size=100, seed=1
        )
        assert mice  # the trace always has mice keys
        assert all(interval.contains_truth for interval in mice + elephants)

    def test_fig18_sensed_error_tracks_actual(self):
        points = sensing.sensed_vs_actual(scale=SCALE, memory_megabytes=2.0, seed=1)
        assert points
        # Sensed error is an upper bound on the actual error on average.
        assert all(p.mean_sensed_error >= p.actual_error - 1e-9 for p in points)

    def test_fig18b_sensed_error_decreases_with_memory(self):
        rows = sensing.sensed_error_vs_memory(
            scale=SCALE, memory_megabytes=[1.0, 4.0], seed=1
        )
        assert rows[1][1] <= rows[0][1]

    def test_fig19a_layer_distribution_decays(self):
        distributions = sensing.layer_distribution(
            scale=SCALE, memory_megabytes=[2.0], seed=1
        )
        per_layer = distributions[0].keys_per_layer
        assert per_layer[0] > per_layer[-1]
        assert sum(per_layer) > 0

    def test_fig19b_our_errors_bounded_cm_not(self):
        distribution = sensing.error_distribution(
            scale=SCALE, memory_megabytes=1.0, tolerance=25, seed=1
        )
        assert max(distribution["ours_actual"]) <= 25
        assert max(distribution["cm_actual"]) >= max(distribution["ours_actual"])
        # Sensed errors dominate actual errors key-by-key after sorting.
        assert max(distribution["ours_sensed"]) >= max(distribution["ours_actual"])


class TestDeployment:
    def test_fig20_outliers_decrease_with_sram(self):
        curve = deployment.testbed_accuracy(trace_name="hadoop", scale=0.001, seed=1)
        outlier_counts = [r.outliers for r in curve.results]
        assert outlier_counts[-1] <= outlier_counts[0]
        aae = [r.aae_kbps for r in curve.results]
        assert aae[-1] <= aae[0]
