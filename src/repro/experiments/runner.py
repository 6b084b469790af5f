"""Shared experiment machinery: run a sketch on a stream and measure it.

Every figure of §6 boils down to some combination of the helpers here:

* :func:`run_sketch` — build an algorithm for a memory budget, feed it a
  stream and evaluate its accuracy against the ground truth.
* :func:`run_competitors` — the same, for a whole competitor group.
* :func:`run_grid` — a full (algorithm × memory-point) grid, optionally
  fanned out over a process pool (``ExperimentSettings.workers``).
* :func:`minimum_memory_for_zero_outliers` /
  :func:`minimum_memory_for_target_aae` — the memory-search loops behind
  Figures 5 and 11–15.
* :func:`run_windowed_fill` — the epoch-writer fill that keeps every
  published snapshot plus exact per-window ground truth
  (:meth:`WindowedFill.window_counts`), backing the sliding-window
  accuracy suite of the temporal serving layer.

Three scaling knobs thread through everything: ``shards`` builds every
sketch as a :class:`~repro.sketches.sharded.ShardedSketch` of
identically-seeded replicas (the distributed-ingest model), ``workers`` runs
grid sweeps in parallel with deterministic per-task seeds (parallel results
are bit-identical to sequential ones), and ``transport`` executes the
sharded fill on remote workers over a wire (``repro.distributed``) instead
of in-process — also bit-identical, because remote routing reuses the local
partition hash.

Ground truth is computed once per stream (``stream.counts()`` is cached on
the Stream, and the grid/search helpers thread the counter dict explicitly
through every evaluation) — a sweep never recounts the stream per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.experiments.parallel import parallel_map
from repro.metrics.accuracy import AccuracyReport, evaluate_accuracy
from repro.sketches.base import Sketch
from repro.sketches.registry import build_sketch
from repro.sketches.sharded import ShardedSketch
from repro.streams.items import Stream


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by most experiments."""

    tolerance: float = 25.0
    seed: int = 0
    #: Chunk size for the batch datapath; ``None`` keeps the scalar loop.
    #: Batch and scalar runs produce bit-identical sketches, so this only
    #: changes how fast an experiment fills its sketches, never its results.
    batch_size: int | None = None
    #: Number of hash-partitioned shards per sketch; ``1`` keeps monolithic
    #: sketches.  With ``shards > 1`` every sketch becomes a ShardedSketch of
    #: identically-configured *full-budget* replicas — the distributed-ingest
    #: model, where each node holds the whole sketch over its key partition.
    #: Such runs describe that deployment: the real footprint is S x the
    #: nominal memory point and accuracy typically improves (each shard sees
    #: less collision pressure), so sharded curves are not comparable to
    #: ``shards=1`` curves at the same nominal memory.
    shards: int = 1
    #: Process-pool width for grid sweeps; ``1`` is sequential, ``0`` means
    #: one worker per CPU core.  Results are bit-identical either way.
    workers: int = 1
    #: Transport backend for distributed ingest (``"inproc"``, ``"pipe"`` or
    #: ``"tcp"``); ``None`` fills sketches in-process.  With a transport set,
    #: snapshot-supporting families (CM/CU/Count and ReliableSketch) ingest
    #: on ``shards`` remote workers (one partition per
    #: worker, batches shipped as wire frames) and the evaluated sketch is
    #: rebuilt from the collected partition snapshots — bit-identical to the
    #: local sharded fill, because key->worker placement reuses the exact
    #: ShardedSketch partition.  Families without snapshot support fall back
    #: to the local fill over the identical partition, so a grid mixing both
    #: kinds stays comparable.  Purely an execution knob: results never
    #: change, only where the ingest work runs.
    transport: str | None = None
    #: Epoch length of the serving layer, in items; ``None`` fills sketches
    #: directly.  When set, the local fill runs through the epoch writer of
    #: ``repro.serve.snapshots`` (publishing an immutable snapshot every
    #: ``epoch_items`` absorbed items) and the evaluated sketch is the final
    #: *published epoch* after a flush — bit-identical to the direct fill,
    #: because a flush publishes the complete state (pinned by
    #: ``tests/serve/test_snapshots.py``).  Another pure execution knob: it
    #: exercises the serving path inside any experiment without changing a
    #: single number.  Mutually exclusive with ``transport`` (the remote
    #: fill's epoch structure lives on the workers, not here): combining
    #: the two raises instead of silently ignoring one — the same policy
    #: the CLI applies to its flags.
    epoch_items: int | None = None
    #: Extra keyword arguments forwarded to the sketch constructors.
    sketch_kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SketchRun:
    """Result of running one algorithm once on one stream.

    ``sketch`` is the filled instance for sequential runs; process-pool grid
    sweeps (``workers > 1``) drop it (``None``) so that megabytes of fitted
    table state are never pickled back from the workers — every grid
    consumer only reads the accuracy report.
    """

    algorithm: str
    memory_bytes: float
    report: AccuracyReport
    sketch: Sketch | None

    @property
    def outliers(self) -> int:
        """#Outliers of this run (paper's primary accuracy metric)."""
        return self.report.outliers

    @property
    def aae(self) -> float:
        """Average absolute error of this run."""
        return self.report.aae

    @property
    def are(self) -> float:
        """Average relative error of this run."""
        return self.report.are


def _sketch_factory(name: str, settings: ExperimentSettings) -> Callable[[float], Sketch]:
    """Factory building algorithm ``name`` for an arbitrary memory budget."""

    def build(memory_bytes: float) -> Sketch:
        if settings.shards > 1:
            return ShardedSketch.from_registry(
                name,
                memory_bytes,
                settings.shards,
                seed=settings.seed,
                **settings.sketch_kwargs,
            )
        return build_sketch(name, memory_bytes, seed=settings.seed, **settings.sketch_kwargs)

    return build


def _fill_sketch(
    name: str, memory_bytes: float, stream: Stream, settings: ExperimentSettings
) -> Sketch:
    """Build and fill one sketch, locally or over the configured transport.

    The distributed path (``settings.transport``) ships routed batches to
    ``settings.shards`` remote workers and restores their snapshots into a
    :class:`ShardedSketch` — bit-identical to the local sharded fill because
    both use the same partition router.  Sketches without snapshot support
    (the non-mergeable families) take the local path over the identical
    partition, which produces the same state remote ingest would.
    """
    if settings.transport is not None and settings.epoch_items is not None:
        raise ValueError(
            "epoch_items cannot be combined with transport: the remote fill "
            "has no local epoch writer to rotate (drop one of the two knobs)"
        )
    if settings.transport is not None:
        from repro.distributed.ingest import DEFAULT_CHUNK_SIZE, run_dynamic_ingest
        from repro.sketches.registry import supports_snapshots

        if supports_snapshots(name):
            result = run_dynamic_ingest(
                name,
                memory_bytes,
                stream,
                workers=settings.shards,
                transport=settings.transport,
                chunk_size=settings.batch_size or DEFAULT_CHUNK_SIZE,
                seed=settings.seed,
                sketch_kwargs=settings.sketch_kwargs,
            )
            return result.sharded()
    sketch = _sketch_factory(name, settings)(memory_bytes)
    if settings.epoch_items is not None:
        from repro.serve.snapshots import EpochWriter
        from repro.streams.items import iter_key_value_chunks

        writer = EpochWriter(sketch, publish_every_items=settings.epoch_items)
        chunk_size = settings.batch_size or settings.epoch_items
        for keys, values in iter_key_value_chunks(stream, chunk_size):
            writer.ingest(keys, values)
        return writer.publish().sketch
    sketch.insert_stream(stream, batch_size=settings.batch_size)
    return sketch


def run_sketch(
    name: str,
    memory_bytes: float,
    stream: Stream,
    settings: ExperimentSettings | None = None,
    keys: Iterable[object] | None = None,
    counts: Mapping[object, int] | None = None,
) -> SketchRun:
    """Build, fill and evaluate one algorithm on one stream.

    ``counts`` is the exact ground truth; pass it when running many sketches
    on the same stream so it is computed once per stream, not once per run
    (omitted, it falls back to the stream's cached counter).
    """
    settings = settings or ExperimentSettings()
    sketch = _fill_sketch(name, memory_bytes, stream, settings)
    if counts is None:
        counts = stream.counts()
    report = evaluate_accuracy(counts, sketch.query, settings.tolerance, keys=keys)
    return SketchRun(algorithm=name, memory_bytes=memory_bytes, report=report, sketch=sketch)


@dataclass(frozen=True)
class _GridContext:
    """Per-worker shared state of a grid sweep (shipped once per worker)."""

    stream: Stream
    settings: ExperimentSettings
    keys: tuple | None
    counts: Mapping[object, int]
    keep_sketches: bool


def _grid_task(shared: _GridContext, task: tuple[str, float]) -> SketchRun:
    """One grid cell: run one algorithm at one memory point."""
    name, memory_bytes = task
    run = run_sketch(
        name, memory_bytes, shared.stream, shared.settings, shared.keys, shared.counts
    )
    if not shared.keep_sketches:
        run = replace(run, sketch=None)
    return run


def run_grid(
    names: Sequence[str],
    memory_points: Sequence[float],
    stream: Stream,
    settings: ExperimentSettings | None = None,
    keys: Iterable[object] | None = None,
) -> dict[tuple[str, float], SketchRun]:
    """Run every (algorithm × memory-point) cell of a sweep grid.

    With ``settings.workers > 1`` the cells fan out over a process pool;
    every task is a pure function of ``(name, memory)`` plus the shared
    context, so the result is bit-identical to the sequential sweep.  The
    returned dict is keyed by ``(name, memory_bytes)`` in task order.
    """
    settings = settings or ExperimentSettings()
    counts = stream.counts()
    materialised_keys = None if keys is None else tuple(keys)
    # Workers must not fan out recursively (each task runs sequentially),
    # and pooled runs drop the fitted sketches instead of pickling them back.
    context = _GridContext(
        stream,
        replace(settings, workers=1),
        materialised_keys,
        counts,
        keep_sketches=settings.workers == 1,
    )
    tasks = [(name, memory) for memory in memory_points for name in names]
    results = parallel_map(_grid_task, tasks, workers=settings.workers, shared=context)
    return dict(zip(tasks, results))


def run_competitors(
    names: Sequence[str],
    memory_bytes: float,
    stream: Stream,
    settings: ExperimentSettings | None = None,
    keys: Iterable[object] | None = None,
) -> dict[str, SketchRun]:
    """Run every algorithm in ``names`` under the same memory budget."""
    grid = run_grid(names, [memory_bytes], stream, settings, keys)
    return {name: grid[(name, memory_bytes)] for name in names}


def _search_minimum_memory(
    evaluate: Callable[[float], bool],
    low_bytes: float,
    high_bytes: float,
    relative_precision: float = 0.05,
    max_iterations: int = 24,
) -> float | None:
    """Binary-search the smallest memory budget for which ``evaluate`` is True.

    Returns ``None`` when even ``high_bytes`` does not satisfy the predicate —
    the paper reports such cases as "cannot achieve zero outliers within X MB".
    """
    if not evaluate(high_bytes):
        return None
    if evaluate(low_bytes):
        return low_bytes
    low, high = low_bytes, high_bytes
    for _ in range(max_iterations):
        if (high - low) / high <= relative_precision:
            break
        middle = (low + high) / 2
        if evaluate(middle):
            high = middle
        else:
            low = middle
    return high


def minimum_memory_for_zero_outliers(
    name: str,
    stream: Stream,
    settings: ExperimentSettings | None = None,
    low_bytes: float = 1024.0,
    high_bytes: float = 64 * 1024 * 1024,
    keys: Iterable[object] | None = None,
    counts: Mapping[object, int] | None = None,
) -> float | None:
    """Smallest memory (bytes) at which ``name`` produces zero outliers (Figure 5)."""
    settings = settings or ExperimentSettings()
    if counts is None:
        counts = stream.counts()

    def evaluate(memory_bytes: float) -> bool:
        return run_sketch(name, memory_bytes, stream, settings, keys, counts).outliers == 0

    return _search_minimum_memory(evaluate, low_bytes, high_bytes)


def minimum_memory_for_target_aae(
    name: str,
    stream: Stream,
    target_aae: float,
    settings: ExperimentSettings | None = None,
    low_bytes: float = 1024.0,
    high_bytes: float = 64 * 1024 * 1024,
    counts: Mapping[object, int] | None = None,
) -> float | None:
    """Smallest memory (bytes) at which ``name`` reaches the target AAE (Figures 12/14/15b)."""
    settings = settings or ExperimentSettings()
    if counts is None:
        counts = stream.counts()

    def evaluate(memory_bytes: float) -> bool:
        return run_sketch(name, memory_bytes, stream, settings, counts=counts).aae <= target_aae

    return _search_minimum_memory(evaluate, low_bytes, high_bytes)


@dataclass(frozen=True)
class WindowedFill:
    """Every epoch published while filling one sketch, plus exact per-window
    ground truth — the raw material for sliding-window accuracy evaluation.

    ``snapshots`` holds the published :class:`~repro.serve.snapshots.EpochSnapshot`
    sequence in epoch order, *including* the construction epoch (the empty
    sketch at 0 items) — so every window has a left boundary.  Each
    snapshot's ``items`` field is the number of stream items absorbed at its
    publish, which makes the exact ground truth of the window ``(earlier,
    later]`` simply the count over that slice of the stream — no replay, no
    approximation, computable for any pair of published epochs.
    """

    algorithm: str
    memory_bytes: float
    snapshots: tuple

    def snapshot(self, epoch_id: int):
        """The published snapshot with this epoch id."""
        for published in self.snapshots:
            if published.epoch_id == epoch_id:
                return published
        raise KeyError(f"epoch {epoch_id} was not published by this fill")

    def window_counts(self, stream: Stream, earlier_epoch: int, later_epoch: int) -> dict:
        """Exact per-key value sums of the items in ``(earlier, later]``.

        This is the windowed analogue of ``stream.counts()``: the ground
        truth a sliding-window estimate (epoch-delta subtraction of the two
        delimiting snapshots) is evaluated against.
        """
        low = self.snapshot(earlier_epoch).items
        high = self.snapshot(later_epoch).items
        if high < low:
            raise ValueError(
                f"window must run forward: epoch {later_epoch} ({high} items) "
                f"is before epoch {earlier_epoch} ({low} items)"
            )
        counts: dict = {}
        for key, value in zip(stream.key_array[low:high].tolist(),
                              stream.value_array[low:high].tolist()):
            counts[key] = counts.get(key, 0) + value
        return counts


def run_windowed_fill(
    name: str,
    memory_bytes: float,
    stream: Stream,
    epoch_items: int,
    settings: ExperimentSettings | None = None,
) -> WindowedFill:
    """Fill one sketch through the epoch writer, keeping *every* published
    snapshot (not just the final one) for windowed evaluation.

    The fill is bit-identical to ``epoch_items``-mode :func:`run_sketch`
    (same writer, same chunking), but instead of evaluating the final epoch
    it returns the whole publish history: for subtractable families (CM and
    Count) the table difference of any two snapshots equals a fresh sketch
    fed only the stream slice between their publishes, and
    :meth:`WindowedFill.window_counts` supplies the matching exact truth.
    A purely local path — the remote fill's epoch structure lives on the
    workers, so ``settings.transport`` is rejected like ``epoch_items``.
    """
    from repro.serve.snapshots import EpochWriter
    from repro.streams.items import iter_key_value_chunks

    settings = settings or ExperimentSettings()
    if settings.transport is not None:
        raise ValueError(
            "windowed fills are local: the remote fill has no local epoch "
            "writer whose publish history could be retained"
        )
    snapshots: list = []
    sketch = _sketch_factory(name, settings)(memory_bytes)
    writer = EpochWriter(
        sketch, publish_every_items=epoch_items, on_publish=snapshots.append
    )
    chunk_size = settings.batch_size or epoch_items
    for keys, values in iter_key_value_chunks(stream, chunk_size):
        writer.ingest(keys, values)
    final = writer.publish()
    if not snapshots or snapshots[-1].epoch_id != final.epoch_id:
        snapshots.append(final)
    return WindowedFill(
        algorithm=name, memory_bytes=memory_bytes, snapshots=tuple(snapshots)
    )
