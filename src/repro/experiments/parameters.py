"""Parameter-impact experiments: Figures 11-15 (§6.4).

The paper sweeps the two geometric ratios (R_w, R_λ) and the error tolerance
Λ, reporting (a) the minimum memory achieving zero outliers and (b) the
minimum memory achieving a target AAE.  The sweeps below reproduce both
memory-search modes for arbitrary parameter grids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.datasets import DEFAULT_SCALE, dataset, scaled_memory_points
from repro.experiments.parallel import parallel_map
from repro.experiments.runner import ExperimentSettings
from repro.core.reliable_sketch import ReliableSketch
from repro.metrics.accuracy import evaluate_accuracy
from repro.streams.items import Stream

#: The AAE that the memory searches of Figures 12, 14 and 15b must reach.
TARGET_AAE = 5.0


@dataclass(frozen=True)
class ParameterPoint:
    """One point of a parameter sweep: the parameter value and the memory found."""

    parameter: float
    memory_bytes: float | None


@dataclass(frozen=True)
class ParameterCurve:
    """One line of Figures 11-14: sweep of one parameter at a fixed other."""

    fixed_name: str
    fixed_value: float
    points: list[ParameterPoint]


def _search_memory(
    stream: Stream,
    predicate,
    low_bytes: float,
    high_bytes: float,
    relative_precision: float = 0.08,
    max_iterations: int = 18,
) -> float | None:
    """Binary-search the smallest memory for which ``predicate(memory)`` holds."""
    if not predicate(high_bytes):
        return None
    if predicate(low_bytes):
        return low_bytes
    low, high = low_bytes, high_bytes
    for _ in range(max_iterations):
        if (high - low) / high <= relative_precision:
            break
        middle = (low + high) / 2
        if predicate(middle):
            high = middle
        else:
            low = middle
    return high


def _reliable_zero_outlier_predicate(stream: Stream, tolerance: float, r_w: float,
                                     r_lambda: float, seed: int):
    """Predicate: a ReliableSketch with these ratios has zero outliers."""

    counts = stream.counts()

    def predicate(memory_bytes: float) -> bool:
        sketch = ReliableSketch.from_memory(
            memory_bytes, tolerance=tolerance, r_w=r_w, r_lambda=r_lambda, seed=seed
        )
        sketch.insert_stream(stream)
        report = evaluate_accuracy(counts, sketch.query, tolerance)
        return report.outliers == 0

    return predicate


def _reliable_aae_predicate(stream: Stream, tolerance: float, r_w: float,
                            r_lambda: float, target_aae: float, seed: int):
    """Predicate: a ReliableSketch with these ratios reaches the target AAE."""

    counts = stream.counts()

    def predicate(memory_bytes: float) -> bool:
        sketch = ReliableSketch.from_memory(
            memory_bytes, tolerance=tolerance, r_w=r_w, r_lambda=r_lambda, seed=seed
        )
        sketch.insert_stream(stream)
        report = evaluate_accuracy(counts, sketch.query, tolerance)
        return report.aae <= target_aae

    return predicate


@dataclass(frozen=True)
class _RatioSweepContext:
    """Shared state of the parallel (R_w × R_λ) grid search (Figures 11-14)."""

    dataset_name: str
    scale: float
    tolerance: float
    target_aae: float | None
    low_bytes: float
    high_bytes: float
    seed: int


def _ratio_point_task(
    shared: _RatioSweepContext, task: tuple[str, float, float]
) -> ParameterPoint:
    """One grid point: binary-search the memory for one (R_w, R_λ) pair.

    Workers regenerate the stream through the cached :func:`dataset` factory
    rather than receiving a pickled copy per task; the search itself is a
    pure function of the task tuple, so parallel grids match sequential ones.
    """
    fixed_name, fixed_value, value = task
    stream = dataset(shared.dataset_name, scale=shared.scale, seed=shared.seed + 1)
    r_w = fixed_value if fixed_name == "r_w" else value
    r_lambda = fixed_value if fixed_name == "r_lambda" else value
    if shared.target_aae is None:
        predicate = _reliable_zero_outlier_predicate(
            stream, shared.tolerance, r_w, r_lambda, shared.seed
        )
    else:
        predicate = _reliable_aae_predicate(
            stream, shared.tolerance, r_w, r_lambda, shared.target_aae, shared.seed
        )
    memory = _search_memory(stream, predicate, shared.low_bytes, shared.high_bytes)
    return ParameterPoint(parameter=value, memory_bytes=memory)


def _ratio_grid(
    dataset_name: str,
    swept_values: list[float],
    fixed_name: str,
    fixed_values: list[float],
    tolerance: float,
    target_aae: float | None,
    scale: float,
    seed: int,
    workers: int,
) -> list[ParameterCurve]:
    """Search the full (fixed × swept) ratio grid, one task per point."""
    high_bytes = scaled_memory_points([10.0], scale)[0]
    low_bytes = max(512.0, high_bytes / 2048)
    context = _RatioSweepContext(
        dataset_name, scale, tolerance, target_aae, low_bytes, high_bytes, seed
    )
    tasks = [
        (fixed_name, fixed_value, value)
        for fixed_value in fixed_values
        for value in swept_values
    ]
    points = parallel_map(_ratio_point_task, tasks, workers=workers, shared=context)
    by_fixed: dict[float, list[ParameterPoint]] = {value: [] for value in fixed_values}
    for (_, fixed_value, _), point in zip(tasks, points):
        by_fixed[fixed_value].append(point)
    return [
        ParameterCurve(fixed_name=fixed_name, fixed_value=fixed_value, points=by_fixed[fixed_value])
        for fixed_value in fixed_values
    ]


def rw_sweep(
    dataset_name: str = "ip",
    r_w_values: list[float] | None = None,
    r_lambda_values: list[float] | None = None,
    tolerance: float = 25.0,
    target_aae: float | None = None,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    workers: int = 1,
) -> list[ParameterCurve]:
    """Memory vs ``R_w`` for several fixed ``R_λ`` (Figure 11 zero-outlier, Figure 12 AAE)."""
    r_w_values = r_w_values or [1.4, 2.0, 4.0, 9.0, 12.5]
    r_lambda_values = r_lambda_values or [1.4, 2.0, 4.0, 9.0]
    return _ratio_grid(
        dataset_name, r_w_values, "r_lambda", r_lambda_values,
        tolerance, target_aae, scale, seed, workers,
    )


def rlambda_sweep(
    dataset_name: str = "ip",
    r_lambda_values: list[float] | None = None,
    r_w_values: list[float] | None = None,
    tolerance: float = 25.0,
    target_aae: float | None = None,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    workers: int = 1,
) -> list[ParameterCurve]:
    """Memory vs ``R_λ`` for several fixed ``R_w`` (Figure 13 zero-outlier, Figure 14 AAE)."""
    r_lambda_values = r_lambda_values or [1.4, 2.0, 4.0, 9.0, 12.5]
    r_w_values = r_w_values or [1.4, 2.0, 4.0, 9.0]
    return _ratio_grid(
        dataset_name, r_lambda_values, "r_w", r_w_values,
        tolerance, target_aae, scale, seed, workers,
    )


@dataclass(frozen=True)
class _LambdaSweepContext:
    """Shared state of the parallel tolerance sweep (Figure 15)."""

    scale: float
    target_aae: float | None
    low_bytes: float
    high_bytes: float
    seed: int


def _lambda_point_task(
    shared: _LambdaSweepContext, task: tuple[str, float]
) -> ParameterPoint:
    """One (dataset, Λ) point of the tolerance sweep."""
    dataset_name, tolerance = task
    stream = dataset(dataset_name, scale=shared.scale, seed=shared.seed + 1)
    if shared.target_aae is None:
        predicate = _reliable_zero_outlier_predicate(stream, tolerance, 2.0, 2.5, shared.seed)
    else:
        predicate = _reliable_aae_predicate(
            stream, tolerance, 2.0, 2.5, shared.target_aae, shared.seed
        )
    memory = _search_memory(stream, predicate, shared.low_bytes, shared.high_bytes)
    return ParameterPoint(parameter=tolerance, memory_bytes=memory)


def lambda_sweep(
    dataset_names: tuple[str, ...] = ("ip", "web"),
    tolerances: list[float] | None = None,
    target_aae: float | None = None,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, list[ParameterPoint]]:
    """Memory vs error tolerance Λ (Figure 15a zero-outlier, Figure 15b target AAE)."""
    tolerances = tolerances or [25.0, 50.0, 75.0, 100.0]
    high_bytes = scaled_memory_points([10.0], scale)[0]
    low_bytes = max(512.0, high_bytes / 2048)
    tasks = [
        (dataset_name, tolerance)
        for dataset_name in dataset_names
        for tolerance in tolerances
    ]
    context = _LambdaSweepContext(scale, target_aae, low_bytes, high_bytes, seed)
    points = parallel_map(_lambda_point_task, tasks, workers=workers, shared=context)
    results: dict[str, list[ParameterPoint]] = {name: [] for name in dataset_names}
    for (dataset_name, _), point in zip(tasks, points):
        results[dataset_name].append(point)
    return results
