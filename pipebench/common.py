"""Shared pieces of the pipeline benchmark: settings, inputs, statistics.

Everything here is a pure helper (no processes, no sockets), so the
harness tests can pin it: the pinned settings in ``config.json``, the
seeded input generators, the percentile rule and the spread summary.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of a run (store directories, result files); ignored by git.
WORK_DIR = BENCH_DIR / "_work"

WORKLOADS = ("serve-ingest", "serve-query", "fleet-ingest")

#: Percentile ladder of the latency report: the highest rung that still has
#: at least ``MIN_BEYOND`` samples above it is the tail percentile printed.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def load_config() -> dict:
    with open(BENCH_DIR / "config.json", encoding="utf-8") as handle:
        return json.load(handle)


def require_source_tree() -> None:
    """Make ``repro`` importable from the checkout, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: no repro source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cpu_plan() -> tuple[set[int], set[int]] | None:
    """(load-generator CPUs, system-under-test CPUs), or None on one CPU.

    The benchmark pins the load generator to the first allowed CPU and the
    server (or the fleet's workers) to the second: the system under test
    gets its own vCPU, and the scheduler cannot sometimes stack both sides
    of a ping-pong on one of them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, {cpus[1]}


def child_env() -> dict:
    """Environment of the processes the benchmark starts (sees ``src/``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of process ``pid``, read from outside (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def filesystem_of(path: Path) -> str:
    """The filesystem type ``path`` lives on (longest ``/proc/mounts`` match)."""
    path = Path(path).resolve()
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount_point, fs_type = fields[1], fields[2]
                inside = str(path) == mount_point or str(path).startswith(
                    mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, best_type = mount_point, fs_type
    except OSError:
        pass
    return best_type


def environment(store_dir: Path) -> dict:
    """What every result records about the machine it ran on."""
    from repro.kernels import default_backend_name

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": default_backend_name(),
        "store_filesystem": filesystem_of(store_dir),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------- inputs
def zipf_keys(seed: int, count: int, skew: float, universe: int, key_bits: int = 31) -> np.ndarray:
    """``count`` Zipf(``skew``) keys over ``universe`` ranks, all below ``2**key_bits``.

    Ranks come from the library's own Zipf generator; an odd multiplier
    (a bijection modulo ``2**key_bits``, drawn from the seed) spreads them
    over the key space so hashes see realistic key material.  One call per
    workload, so the same seed always gives the same keys.
    """
    from repro.streams.synthetic import ZipfGenerator

    ranks = ZipfGenerator(skew, universe=universe, seed=seed).draw(count).astype(np.int64)
    rng = np.random.default_rng([seed, 1])
    mask = (1 << key_bits) - 1
    multiplier = int(rng.integers(1, 1 << (key_bits - 1))) * 2 + 1
    offset = int(rng.integers(0, 1 << key_bits))
    return (ranks * multiplier + offset) & mask


def split_batches(keys: np.ndarray, batch_keys: int) -> list[np.ndarray]:
    """Consecutive ``batch_keys``-sized slices (the last may be short)."""
    return [keys[start : start + batch_keys] for start in range(0, len(keys), batch_keys)]


# ----------------------------------------------------------------- statistics
def tail_percentile(samples: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest ladder percentile with at least ``min_beyond`` samples beyond it."""
    best = None
    for rung in PERCENTILE_LADDER:
        # The epsilon absorbs binary rounding of 100 - 99.9 and friends.
        if samples * (100.0 - rung) / 100.0 >= min_beyond - 1e-9:
            best = rung
    return best


def percentile(values, rung: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), rung))


def spread(values) -> dict:
    """Median, quartiles, extremes and the quartile spread as a share of the median.

    Quartiles follow ``statistics.quantiles(values, n=4)``, the rule the
    acceptance check applies to ten runs of each workload.
    """
    values = [float(value) for value in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median if median else float("nan"),
    }
