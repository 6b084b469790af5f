"""Synthetic Zipf workloads.

The paper generates synthetic datasets "according to a Zipf distribution with
different skewness" (§6.1.2) using Web Polygraph.  We reproduce the same
statistical shape with a seeded NumPy-based generator: keys are drawn from a
Zipf(skew) distribution over a fixed key universe, so low skew gives a nearly
uniform stream (hard for every sketch — Figure 6c) and high skew gives a few
dominant elephants (Figure 6d).
"""

from __future__ import annotations

import numpy as np

from repro.streams.items import Stream


class ZipfGenerator:
    """Draws keys from a (finite-universe) Zipf distribution.

    Parameters
    ----------
    skew:
        Zipf exponent.  ``skew == 0`` degenerates to the uniform distribution.
    universe:
        Number of distinct candidate keys (rank 1..universe).
    seed:
        RNG seed; the same seed always produces the same stream.
    """

    def __init__(self, skew: float, universe: int = 100_000, seed: int = 1) -> None:
        if skew < 0:
            raise ValueError("skew must be non-negative")
        if universe <= 0:
            raise ValueError("universe must be positive")
        self.skew = skew
        self.universe = universe
        self.seed = seed
        ranks = np.arange(1, universe + 1, dtype=np.float64)
        weights = ranks ** (-skew) if skew > 0 else np.ones_like(ranks)
        self._probabilities = weights / weights.sum()
        self._rng = np.random.default_rng(seed)

    def draw(self, count: int) -> np.ndarray:
        """Draw ``count`` keys (integers in ``[0, universe)``)."""
        return self._rng.choice(
            self.universe, size=count, p=self._probabilities
        )

    def stream(self, count: int, value: int = 1, name: str | None = None) -> Stream:
        """Materialise a stream of ``count`` items with constant ``value``."""
        keys = self.draw(count)
        values = np.full(len(keys), value, dtype=np.int64)
        return Stream.from_arrays(keys, values, name=name or f"zipf-{self.skew:g}")


def zipf_stream(
    count: int,
    skew: float,
    universe: int = 100_000,
    seed: int = 1,
    value: int = 1,
) -> Stream:
    """Convenience wrapper: one-shot Zipf stream (paper's synthetic datasets)."""
    return ZipfGenerator(skew, universe=universe, seed=seed).stream(count, value=value)


def uniform_stream(count: int, universe: int = 100_000, seed: int = 1) -> Stream:
    """A skew-0 stream — the adversarial low-skew case of Figure 6(c)."""
    return zipf_stream(count, skew=0.0, universe=universe, seed=seed)
