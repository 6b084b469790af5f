"""The mice filter: a saturating CU sketch replacing the first layer (§3.3).

Most keys in a skewed stream are "mice" — their total value is tiny, yet each
of them casts negative votes that push layer-1 buckets towards their lock
threshold.  The accuracy optimisation of §3.3 therefore replaces the first
(largest) layer with a compact CU-style filter whose counters saturate at a
small cap: mice keys are absorbed entirely by the filter, while any value
beyond the cap overflows into the Error-Sensible layers.

The filter counter plays the role of a ``NO`` counter: its reading is both an
estimate contribution and an error contribution, and because it can never
exceed the cap the extra error it introduces is bounded (the paper's
"small, manageable errors").  With 2-bit counters (the evaluation default) a
bucket of the first layer is replaced by a counter 36× narrower.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import EncodedKeyBatch, HashFamily
from repro.kernels import resolve_backend
from repro.kernels.scalar import saturating_apply


class MiceFilter:
    """Saturating conservative-update filter in front of the bucket layers.

    Parameters
    ----------
    memory_bytes:
        Memory reserved for the filter (20 % of the sketch budget by default).
    counter_bits:
        Width of each counter; the cap is ``2^bits − 1`` (2 bits → cap 3).
    arrays:
        Number of CU arrays (2 in the evaluation, see Figure 16's
        "2-array mice filter").
    seed:
        Hash-family seed.
    """

    def __init__(self, memory_bytes: float, counter_bits: int = 2, arrays: int = 2,
                 seed: int = 0) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if counter_bits <= 0 or counter_bits > 32:
            raise ValueError("counter_bits must be in 1..32")
        if arrays <= 0:
            raise ValueError("arrays must be positive")
        total_counters = max(arrays, int(memory_bytes * 8 // counter_bits))
        self.counter_bits = counter_bits
        self.cap = (1 << counter_bits) - 1
        self.arrays = arrays
        self.width = max(1, total_counters // arrays)
        self._family = HashFamily(seed)
        self._hashes = self._family.draw_many(arrays, self.width)
        self._tables = np.zeros((arrays, self.width), dtype=np.int64)
        self._kernel = resolve_backend()

    # ------------------------------------------------------------------ API
    def absorb(self, key: object, value: int) -> int:
        """Absorb up to ``cap`` units of ``<key, value>``; return the leftover.

        The filter performs a conservative update towards ``min + taken`` so
        that, like CU, it never overestimates more than necessary.  The
        returned leftover (possibly 0) must be inserted into the bucket
        layers by the caller.
        """
        if value <= 0:
            raise ValueError("inserted value must be positive")
        return saturating_apply(
            self._tables, [hash_fn(key) for hash_fn in self._hashes], value, self.cap
        )

    def query(self, key: object) -> int:
        """The filter's contribution to the estimate (and to the MPE)."""
        return int(
            min(row[hash_fn(key)] for row, hash_fn in zip(self._tables, self._hashes))
        )

    def absorb_batch(self, batch: EncodedKeyBatch, values: np.ndarray) -> np.ndarray:
        """Batch :meth:`absorb`: vectorized hashing, kernel-applied updates.

        The saturating conservative update is order-dependent (an item's
        leftover depends on the counters its predecessors left behind), so
        the counter updates go through the conflict-free update kernel,
        which keeps the leftovers bit-identical to scalar absorbs in stream
        order.

        Returns the leftover value of every item as an ``int64`` array.
        """
        if values.size and int(values.min()) <= 0:
            raise ValueError("inserted value must be positive")
        indexes = np.stack([hash_fn.index_batch(batch) for hash_fn in self._hashes])
        return self._kernel.saturating_update(self._tables, indexes, values, self.cap)

    def query_batch(self, batch: EncodedKeyBatch) -> np.ndarray:
        """Batch :meth:`query`: the filter readings of every key, vectorized."""
        readings = np.stack(
            [
                row[hash_fn.index_batch(batch)]
                for row, hash_fn in zip(self._tables, self._hashes)
            ]
        )
        return readings.min(axis=0)

    # ------------------------------------------------------------- helpers
    def state_snapshot(self) -> np.ndarray:
        """The counter matrix — the whole mutable state of the filter (a copy)."""
        return self._tables.copy()

    def state_restore(self, tables: np.ndarray) -> None:
        """Overwrite the counters from a snapshot (shape-validated, copied)."""
        tables = np.asarray(tables)
        if tables.shape != self._tables.shape:
            raise ValueError(
                f"cannot restore mice-filter snapshot: tables have shape "
                f"{tables.shape}, expected {self._tables.shape}"
            )
        self._tables = tables.astype(np.int64, copy=True)

    def copy_into(self, other: "MiceFilter") -> None:
        """Overwrite ``other``'s counters with this filter's (same geometry)."""
        np.copyto(other._tables, self._tables)

    def memory_bytes(self) -> float:
        """Actual memory used by the filter counters."""
        return self.arrays * self.width * self.counter_bits / 8

    def hash_calls(self) -> int:
        """Hash evaluations performed so far (2 per filtered operation)."""
        return self._family.total_calls()

    def reset_hash_calls(self) -> None:
        """Zero the hash-call counters."""
        self._family.reset_counters()

    def saturation(self) -> float:
        """Fraction of counters at the cap — a diagnostic of filter pressure."""
        total = self._tables.size
        if not total:
            return 0.0
        return int(np.count_nonzero(self._tables >= self.cap)) / total

    def parameters(self) -> dict:
        """Filter geometry for experiment reports."""
        return {
            "arrays": self.arrays,
            "width": self.width,
            "counter_bits": self.counter_bits,
            "cap": self.cap,
        }
