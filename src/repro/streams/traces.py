"""Synthetic surrogates for the paper's real-world traces.

The evaluation uses four real traces that cannot be redistributed (CAIDA IP
trace, a crawled web-document stream, a university data-center packet trace
and a Hadoop traffic trace).  Only their aggregate statistics matter for the
experiments: the number of items, the number of distinct keys, and — most
importantly for ReliableSketch — the heavy-tailed *shape* of the key
frequency distribution (a few elephant keys carry most of the traffic while
the majority of keys are mice that appear only a handful of times).

Each surrogate is generated deterministically from a Zipf rank-frequency
law: key of rank ``k`` receives ``f_k = max(1, C / k^s)`` occurrences, with
``C`` solved numerically so the total item count matches the target.  The
exponent ``s`` is chosen per trace so that the mice/elephant mix resembles
the real workload (packet traces are strongly skewed; the Hadoop trace has
very few, very heavy keys).  The item order is a seeded shuffle.

==================  ==========  ==============  =========
trace               paper items paper distinct  exponent s
==================  ==========  ==============  =========
IP trace (CAIDA)    10 M        ~0.4 M          1.20
Web stream          10 M        ~0.3 M          1.25
University DC       10 M        ~1.0 M          1.10
Hadoop              10 M        ~20 K           1.40
==================  ==========  ==============  =========

All generators accept a ``scale`` parameter; ``scale=1.0`` reproduces the
paper's 10 M-item streams, while the default used in tests and benchmarks is
much smaller so the pure-Python harness stays fast.  Both the item count and
the key count shrink together, preserving the items-per-key ratio (and so
the collision pressure per byte of sketch memory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.streams.items import Stream


@dataclass(frozen=True)
class TraceSpec:
    """Statistical description of a real trace and its surrogate generator."""

    name: str
    paper_items: int
    paper_distinct: int
    #: Zipf rank-frequency exponent of the surrogate.
    exponent: float
    #: Value model: "unit" for packet counts, "bytes" for byte volumes.
    value_model: str = "unit"

    @property
    def items_per_key(self) -> float:
        """Average number of items per distinct key in the paper's trace."""
        return self.paper_items / self.paper_distinct


TRACE_SPECS: dict[str, TraceSpec] = {
    "ip": TraceSpec("IP Trace", 10_000_000, 400_000, exponent=1.20),
    "web": TraceSpec("Web Stream", 10_000_000, 300_000, exponent=1.25),
    "datacenter": TraceSpec("University Data Center", 10_000_000, 1_000_000, exponent=1.10),
    "hadoop": TraceSpec("Hadoop Stream", 10_000_000, 20_000, exponent=1.40),
}


def zipf_rank_frequencies(distinct_keys: int, total_items: int, exponent: float) -> np.ndarray:
    """Frequencies ``f_k = max(1, C / k^s)`` with ``C`` solved so they sum to ``total_items``.

    This is the rank-frequency construction behind the surrogate traces: it
    fixes the number of distinct keys exactly and matches the item count to
    within rounding, while producing the long tail of frequency-1 "mice"
    keys that real packet traces exhibit.
    """
    if distinct_keys <= 0 or total_items <= 0:
        raise ValueError("distinct_keys and total_items must be positive")
    if total_items < distinct_keys:
        raise ValueError("total_items must be at least distinct_keys")
    ranks = np.arange(1, distinct_keys + 1, dtype=np.float64)
    weights = ranks ** (-exponent)

    def total_for(constant: float) -> float:
        return float(np.maximum(1.0, np.floor(constant * weights)).sum())

    # Bisection on C: total(C) is monotone non-decreasing.
    low, high = 1.0, 2.0
    while total_for(high) < total_items:
        high *= 2.0
        if high > 1e18:  # pragma: no cover - defensive
            break
    for _ in range(64):
        middle = (low + high) / 2.0
        if total_for(middle) < total_items:
            low = middle
        else:
            high = middle
    frequencies = np.maximum(1.0, np.floor(high * weights)).astype(np.int64)
    # Trim the (small) rounding overshoot off the largest keys so totals match.
    overshoot = int(frequencies.sum()) - total_items
    index = 0
    while overshoot > 0 and index < distinct_keys:
        removable = min(overshoot, int(frequencies[index]) - 1)
        frequencies[index] -= removable
        overshoot -= removable
        index += 1
    return frequencies


def _generate(spec: TraceSpec, scale: float, seed: int, value_model: str | None) -> Stream:
    """Draw a surrogate stream for ``spec`` at the requested scale."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    n_items = max(2, int(round(spec.paper_items * scale)))
    n_keys = max(1, min(n_items, int(round(spec.paper_distinct * scale))))
    rng = np.random.default_rng(seed)

    frequencies = zipf_rank_frequencies(n_keys, n_items, spec.exponent)
    # Assign random (but deterministic) key identifiers so that hash functions
    # see realistic key material rather than small consecutive integers.
    key_ids = rng.choice(np.iinfo(np.int64).max // 2, size=n_keys, replace=False)
    keys = np.repeat(key_ids, frequencies)
    order = rng.permutation(keys.shape[0])
    keys = keys[order]

    model = value_model or spec.value_model
    count = keys.shape[0]
    if model == "unit":
        values = np.ones(count, dtype=np.int64)
    elif model == "bytes":
        # Packet sizes: mixture of small control packets and ~MTU data packets,
        # a standard synthetic model of internet packet-length distributions.
        small = rng.integers(40, 100, size=count)
        large = rng.integers(1000, 1500, size=count)
        pick_large = rng.random(count) < 0.45
        values = np.where(pick_large, large, small).astype(np.int64)
    else:
        raise ValueError(f"unknown value model: {model!r}")

    return Stream.from_arrays(keys, values, name=f"{spec.name} (scale={scale:g})")


def ip_trace(scale: float = 0.01, seed: int = 1, value_model: str | None = None) -> Stream:
    """Surrogate of the default CAIDA IP trace (10 M packets, ~0.4 M flows)."""
    return _generate(TRACE_SPECS["ip"], scale, seed, value_model)


def web_stream(scale: float = 0.01, seed: int = 2, value_model: str | None = None) -> Stream:
    """Surrogate of the crawled web-document stream (10 M items, ~0.3 M keys)."""
    return _generate(TRACE_SPECS["web"], scale, seed, value_model)


def datacenter_trace(scale: float = 0.01, seed: int = 3, value_model: str | None = None) -> Stream:
    """Surrogate of the university data-center trace (10 M packets, ~1 M flows)."""
    return _generate(TRACE_SPECS["datacenter"], scale, seed, value_model)


def hadoop_trace(scale: float = 0.01, seed: int = 4, value_model: str | None = None) -> Stream:
    """Surrogate of the Hadoop traffic trace (10 M packets, ~20 K flows)."""
    return _generate(TRACE_SPECS["hadoop"], scale, seed, value_model)


_LOADERS = {
    "ip": ip_trace,
    "web": web_stream,
    "datacenter": datacenter_trace,
    "hadoop": hadoop_trace,
}


def load_trace(name: str, scale: float = 0.01, seed: int | None = None,
               value_model: str | None = None) -> Stream:
    """Load a surrogate trace by short name (``ip``, ``web``, ``datacenter``, ``hadoop``)."""
    try:
        loader = _LOADERS[name]
    except KeyError:
        raise ValueError(
            f"unknown trace {name!r}; expected one of {sorted(_LOADERS)}"
        ) from None
    if seed is None:
        return loader(scale=scale, value_model=value_model)
    return loader(scale=scale, seed=seed, value_model=value_model)
