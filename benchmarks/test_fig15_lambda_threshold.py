"""Figure 15: memory usage as a function of the error threshold Λ.

Paper result: under the zero-outlier target, memory is almost inversely
proportional to Λ — the optimal Λ is exactly the largest error the user can
tolerate (Figure 15a).  Under an AAE target the optimal Λ is 2-3x the target
AAE (Figure 15b).
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.parameters import TARGET_AAE, lambda_sweep
from repro.metrics.memory import BYTES_PER_KB

TOLERANCES = [25.0, 50.0, 100.0]


def test_fig15a_memory_vs_lambda_zero_outlier(benchmark, bench_scale):
    results = run_once(
        benchmark,
        lambda_sweep,
        dataset_names=("ip", "web"),
        tolerances=TOLERANCES,
        scale=bench_scale,
        seed=1,
    )
    print("\nFigure 15a — zero-outlier memory vs Λ")
    for dataset_name, points in results.items():
        readings = {
            p.parameter: ("n/a" if p.memory_bytes is None else f"{p.memory_bytes / BYTES_PER_KB:.1f}KB")
            for p in points
        }
        print(f"  {dataset_name}: {readings}")

    for dataset_name, points in results.items():
        by_tolerance = {p.parameter: p.memory_bytes for p in points}
        assert by_tolerance[25.0] is not None
        # Memory decreases monotonically (within search noise) as Λ grows.
        assert by_tolerance[100.0] is not None
        assert by_tolerance[100.0] <= by_tolerance[25.0]
        # Roughly inverse proportionality: 4x the tolerance should save at
        # least a factor ~2 of memory at this scale.
        assert by_tolerance[100.0] <= by_tolerance[25.0] / 1.5


def test_fig15b_memory_vs_lambda_for_target_aae(benchmark, bench_scale):
    results = run_once(
        benchmark,
        lambda_sweep,
        dataset_names=("ip",),
        tolerances=[10.0, 25.0, 50.0],
        target_aae=TARGET_AAE,
        scale=bench_scale,
        seed=1,
    )
    print("\nFigure 15b — memory for AAE ≤ 5 vs Λ")
    points = results["ip"]
    readings = {
        p.parameter: ("n/a" if p.memory_bytes is None else f"{p.memory_bytes / BYTES_PER_KB:.1f}KB")
        for p in points
    }
    print(f"  ip: {readings}")
    found = {p.parameter: p.memory_bytes for p in points if p.memory_bytes is not None}
    assert found
    # The paper's observation is that the optimal Λ sits *above* the target
    # AAE (2-3x in their full-scale runs); asserted here in the weaker,
    # scale-robust form: the cheapest swept Λ is at least the target AAE, and
    # every swept Λ can reach the target within the search budget.
    cheapest_lambda = min(found, key=found.get)
    assert cheapest_lambda >= 5.0
    assert len(found) == len(points)
