"""The Error-Sensible Bucket (§3.1) — ReliableSketch's basic counting unit.

A bucket holds a candidate key (``ID``) and two vote counters (``YES`` and
``NO``).  Insertions of the candidate key vote positively, any other key
votes negatively, and whenever the negative votes catch up with the positive
votes a *replacement* occurs: the newcomer becomes the candidate and the two
counters swap.

The crucial property (proved by induction in the paper and by the property
tests in ``tests/core/test_bucket_properties.py``) is that after any
insertion sequence:

* if ``ID == e``  then ``f(e) ∈ [YES − NO, YES]``,
* if ``ID != e``  then ``f(e) ∈ [0, NO]``,

so ``NO`` is always a sound Maximum Possible Error (MPE) for every key, which
is exactly the error signal ReliableSketch's lock mechanism needs.

Two representations live here:

* :class:`ErrorSensibleBucket` — the single-bucket object, kept as the
  didactic reference (and for the per-bucket property tests);
* :class:`BucketArrayLayer` — the struct-of-arrays layout ReliableSketch
  actually uses: one layer holds its candidate keys as interned ``int64``
  ids and its ``YES``/``NO`` counters as ``int64`` arrays — one fixed-width
  record per bucket, as in the paper's FPGA and Tofino versions — so
  queries and diagnostics over a whole layer are vectorizable while
  per-bucket counter views stay available for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.kernels.scalar import EMPTY_ID


@dataclass(frozen=True)
class BucketQueryResult:
    """Result of querying one bucket: an estimate and its error bound."""

    estimate: int
    mpe: int

    @property
    def lower_bound(self) -> int:
        """Guaranteed lower bound on the true value sum."""
        return max(0, self.estimate - self.mpe)

    @property
    def upper_bound(self) -> int:
        """Guaranteed upper bound on the true value sum (the estimate itself)."""
        return self.estimate

    def contains(self, truth: int) -> bool:
        """Whether the sensed interval contains a candidate true value."""
        return self.lower_bound <= truth <= self.upper_bound


class ErrorSensibleBucket:
    """One Error-Sensible Bucket: ``ID`` / ``YES`` / ``NO``.

    The bucket on its own implements the unconstrained insertion of Figures 1
    and 2; the layer-threshold (lock) logic lives in
    :class:`repro.core.reliable_sketch.ReliableSketch`, which manipulates the
    bucket fields directly because the lock decision depends on the layer's
    threshold ``λ_i``, not on the bucket alone.
    """

    __slots__ = ("key", "yes", "no")

    def __init__(self) -> None:
        self.key: object | None = None
        self.yes: int = 0
        self.no: int = 0

    # ------------------------------------------------------------------ API
    def insert(self, key: object, value: int = 1) -> None:
        """Insert ``<key, value>`` following the voting + replacement rules."""
        if value <= 0:
            raise ValueError("inserted value must be positive")
        if self.key is None:
            # An empty bucket adopts the first key directly (equivalent to a
            # negative vote followed by an immediate replacement).
            self.key = key
            self.yes = value
            self.no = 0
            return
        if self.key == key:
            self.yes += value
            return
        self.no += value
        if self.no >= self.yes:
            self.key = key
            self.yes, self.no = self.no, self.yes

    def query(self, key: object) -> BucketQueryResult:
        """Estimate the value sum of ``key`` with its Maximum Possible Error."""
        if self.key == key:
            return BucketQueryResult(estimate=self.yes, mpe=self.no)
        return BucketQueryResult(estimate=self.no, mpe=self.no)

    # ------------------------------------------------------------- helpers
    @property
    def is_empty(self) -> bool:
        """True when the bucket has never absorbed any value."""
        return self.key is None and self.yes == 0 and self.no == 0

    @property
    def total_value(self) -> int:
        """Total value absorbed by this bucket (``YES + NO``)."""
        return self.yes + self.no

    def clear(self) -> None:
        """Reset the bucket to its initial empty state."""
        self.key = None
        self.yes = 0
        self.no = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ErrorSensibleBucket(key={self.key!r}, yes={self.yes}, no={self.no})"


class BucketView:
    """Read-only view of one bucket's counters inside a :class:`BucketArrayLayer`.

    Exposes the ``yes`` / ``no`` / ``total_value`` surface of
    :class:`ErrorSensibleBucket` backed by the layer's arrays, so diagnostics
    and invariant tests (e.g. the value-conservation check in
    ``tests/core/test_reliable_properties.py``) can keep treating a layer as
    a sequence of buckets.  The candidate key is the layer's ``key_ids``
    entry, named by the owning sketch's interner.  Deliberately read-only:
    all mutation goes through the array-level insert paths in
    :mod:`repro.core.reliable_sketch`.
    """

    __slots__ = ("_layer", "_index")

    def __init__(self, layer: "BucketArrayLayer", index: int) -> None:
        self._layer = layer
        self._index = index

    @property
    def yes(self) -> int:
        return int(self._layer.yes[self._index])

    @property
    def no(self) -> int:
        return int(self._layer.no[self._index])

    @property
    def total_value(self) -> int:
        return self.yes + self.no

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BucketView(yes={self.yes}, no={self.no})"


class BucketArrayLayer:
    """One ReliableSketch layer in struct-of-arrays form.

    ``key_ids`` holds each bucket's candidate key as the owning sketch's
    interned id (``EMPTY_ID`` where unset) — the only record of the key;
    the sketch's interner maps ids back to keys.  ``yes`` and ``no`` are
    ``int64`` arrays, so whole-layer reads — batch queries, occupancy, lock
    counts — are single vectorized expressions, and the update kernels and
    both query paths compare candidate keys as plain integers.
    """

    __slots__ = ("key_ids", "yes", "no")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("layer width must be positive")
        self.key_ids = np.full(width, EMPTY_ID, dtype=np.int64)
        self.yes = np.zeros(width, dtype=np.int64)
        self.no = np.zeros(width, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.key_ids)

    def __iter__(self) -> Iterator[BucketView]:
        for index in range(len(self.key_ids)):
            yield BucketView(self, index)

    def occupied_count(self) -> int:
        """Number of non-empty buckets (a bucket is empty iff its key is unset)."""
        return int(np.count_nonzero(self.key_ids != EMPTY_ID))

    def locked_count(self, threshold: float) -> int:
        """Buckets whose ``NO`` reached the threshold while ``YES`` exceeds it."""
        return int(np.count_nonzero((self.no >= threshold) & (self.yes > threshold)))

    def total_value(self) -> int:
        """Total value absorbed by the layer (``Σ YES + Σ NO``)."""
        return int(self.yes.sum() + self.no.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BucketArrayLayer(width={len(self)}, occupied={self.occupied_count()})"
