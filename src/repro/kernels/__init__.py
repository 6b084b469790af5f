"""Conflict-free update kernels for the order-dependent insert paths.

The batch-first datapath (PR 1) vectorized hashing and the whole-array
sketches (CM, Count), but the order-dependent families — CU's conservative
update, the mice filter, ReliableSketch's bucket layers, Elastic's heavy
part — still replayed their counter updates item by item in Python.  This
package removes that last per-item loop while staying bit-identical to the
scalar insert order:

* :mod:`repro.kernels.scalar` — the shared single-item transitions (and
  the interned-key-id sentinels) every backend is pinned to;
* :mod:`repro.kernels.python_backend` — per-item replay, the reference;
* :mod:`repro.kernels.numpy_backend` — pure-NumPy conflict-free grouping,
  the default: a batch is drained in rounds in which no two updates
  collide on any counter cell, each round applied as closed-form array
  expressions;
* :mod:`repro.kernels.dispatch` — the two-backend registry
  (:func:`resolve_backend`, and :func:`use_backend` to switch the default
  for the sketches built inside a ``with`` block).
"""

from repro.kernels.dispatch import (
    BACKEND_NAMES,
    KernelBackend,
    default_backend_name,
    resolve_backend,
    use_backend,
)
from repro.kernels.interning import KeyInterner, KeyInternerOverflowError
from repro.kernels.scalar import EMPTY_ID, UNKNOWN_ID

__all__ = [
    "KeyInterner",
    "KeyInternerOverflowError",
    "BACKEND_NAMES",
    "KernelBackend",
    "default_backend_name",
    "resolve_backend",
    "use_backend",
    "EMPTY_ID",
    "UNKNOWN_ID",
]
