"""Kernel dispatch: the two-backend registry and the ``use_backend`` switch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.dispatch import (
    BACKEND_NAMES,
    default_backend_name,
    resolve_backend,
    use_backend,
)
from repro.sketches.cu import CUSketch


def test_backend_names_and_default():
    assert BACKEND_NAMES == ("numpy-grouped", "python-replay")
    assert default_backend_name() == "numpy-grouped"
    assert resolve_backend(None) is resolve_backend("numpy-grouped")


def test_resolve_by_name_and_contract_surface():
    for name in BACKEND_NAMES:
        backend = resolve_backend(name)
        assert backend.name == name
        for entry_point in (
            backend.cu_update,
            backend.saturating_update,
            backend.reliable_layer_update,
            backend.elastic_update,
        ):
            assert callable(entry_point)


def test_unknown_backend_name_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("sorcery")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        with use_backend("sorcery"):
            pass  # pragma: no cover - never entered
    assert default_backend_name() == "numpy-grouped"


def test_use_backend_context_overrides_and_restores():
    before = default_backend_name()
    with use_backend("python-replay"):
        assert default_backend_name() == "python-replay"
        sketch = CUSketch(1024, seed=0)
    assert default_backend_name() == before
    # Sketches bind their backend at construction time.
    assert sketch._kernel.name == "python-replay"


def test_use_backend_restores_when_body_raises():
    before = default_backend_name()
    with pytest.raises(RuntimeError, match="boom"):
        with use_backend("python-replay"):
            raise RuntimeError("boom")
    assert default_backend_name() == before


def test_use_backend_nests_and_restores_each_level():
    with use_backend("python-replay"):
        outer = CUSketch(1024, seed=0)
        with use_backend("numpy-grouped"):
            inner = CUSketch(1024, seed=0)
            assert default_backend_name() == "numpy-grouped"
        assert default_backend_name() == "python-replay"
        after_inner = CUSketch(1024, seed=0)
    assert default_backend_name() == "numpy-grouped"
    assert [s._kernel.name for s in (outer, inner, after_inner)] == [
        "python-replay", "numpy-grouped", "python-replay",
    ]


@pytest.mark.parametrize(
    "sketch_name", ["CU_fast", "Ours", "Elastic", "Coco", "HashPipe", "PRECISION"],
)
def test_each_family_keeps_the_backend_it_was_built_under(sketch_name):
    # A sketch built inside ``use_backend`` keeps that backend after the
    # block exits, and answers exactly as one built on the default.
    from repro.sketches.registry import build_sketch
    from repro.streams.synthetic import zipf_stream

    stream = zipf_stream(3000, skew=1.2, universe=400, seed=11)
    with use_backend("python-replay"):
        reference = build_sketch(sketch_name, 8 * 1024, seed=4)
    default = build_sketch(sketch_name, 8 * 1024, seed=4)
    assert reference._kernel is resolve_backend("python-replay")
    assert default._kernel is resolve_backend("numpy-grouped")
    if sketch_name == "Ours":
        assert reference.mice_filter._kernel is reference._kernel
    for sketch in (reference, default):
        sketch.insert_batch(stream.key_array, stream.value_array)
    assert reference._kernel.name == "python-replay"
    for key in stream.keys():
        assert reference.query(key) == default.query(key), key


def test_experiment_runs_identical_under_each_backend():
    from repro.experiments.runner import ExperimentSettings, run_sketch
    from repro.streams.synthetic import zipf_stream

    stream = zipf_stream(2000, skew=1.2, universe=300, seed=5)
    settings = ExperimentSettings(batch_size=256)
    default_run = run_sketch("CU_fast", 2048, stream, settings)
    for name in BACKEND_NAMES:
        with use_backend(name):
            pinned = run_sketch("CU_fast", 2048, stream, settings)
        assert pinned.report == default_run.report
        assert pinned.sketch._kernel.name == name


def test_backends_share_one_loaded_instance():
    assert resolve_backend("numpy-grouped") is resolve_backend("numpy-grouped")


def test_mice_filter_binds_its_sketchs_backend():
    from repro.core import ReliableSketch

    with use_backend("python-replay"):
        sketch = ReliableSketch.from_memory(2048, tolerance=25, seed=0)
    assert sketch._kernel.name == "python-replay"
    assert sketch.mice_filter._kernel is sketch._kernel


def test_every_sketch_binds_the_one_default_backend_object():
    # The traced benchmark wraps the entry points of ``resolve_backend(None)``
    # in place; that reaches every sketch only while each sketch binds that
    # very object, not an equal copy.
    from repro.sketches.registry import build_sketch

    backend = resolve_backend(None)
    assert default_backend_name() == "numpy-grouped"
    sketches = {
        name: build_sketch(name, 16 * 1024, seed=3)
        for name in ("CU_fast", "Ours", "Elastic", "Coco", "HashPipe", "PRECISION")
    }
    for name, sketch in sketches.items():
        assert sketch._kernel is backend, name
    assert sketches["Ours"].mice_filter._kernel is backend

    original = backend.cu_update
    calls = []

    def counting_cu_update(*args):
        calls.append(len(args[2]))
        return original(*args)

    # A sketch built before the replacement still reaches it.
    sketch = sketches["CU_fast"]
    object.__setattr__(backend, "cu_update", counting_cu_update)
    try:
        sketch.insert_batch([1, 2, 3, 2], [1, 1, 1, 1])
    finally:
        object.__setattr__(backend, "cu_update", original)
    assert calls == [4]
    assert sketch.query(2) == 2
    assert resolve_backend(None).cu_update is original


def test_empty_batches_are_noops_on_every_backend():
    for name in BACKEND_NAMES:
        backend = resolve_backend(name)
        tables = np.zeros((2, 4), dtype=np.int64)
        backend.cu_update(tables, np.zeros((2, 0), dtype=np.int64), np.zeros(0, dtype=np.int64))
        leftovers = backend.saturating_update(
            tables, np.zeros((2, 0), dtype=np.int64), np.zeros(0, dtype=np.int64), 3
        )
        assert leftovers.shape == (0,)
        assert not tables.any()
