"""Runtime dispatch of the conflict-free update kernels.

Two backends implement one contract (seven update functions operating on
the sketches' numeric state; see :mod:`repro.kernels.python_backend` for
the reference semantics):

* ``"numpy-grouped"`` — pure-NumPy conflict-free grouping rounds, the
  default;
* ``"python-replay"`` — per-item Python loops, the reference the
  kernel-parity tests compare against.

Each sketch binds :func:`resolve_backend` ``()`` at construction;
:func:`use_backend` temporarily switches the default for the sketches
built inside it.  Every backend is bit-identical to the scalar insert
loop, so the choice only changes speed.  Each backend is one cached
:class:`KernelBackend` instance, shared by every sketch that binds it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.kernels import numpy_backend, python_backend

#: The backend names; the first one is the default.
BACKEND_NAMES = ("numpy-grouped", "python-replay")


@dataclass(frozen=True)
class KernelBackend:
    """One kernel implementation: a name plus the update entry points."""

    name: str
    cu_update: Callable
    saturating_update: Callable
    reliable_layer_update: Callable
    elastic_update: Callable
    coco_update: Callable
    hashpipe_update: Callable
    precision_update: Callable


def _backend_from_module(name: str, module) -> KernelBackend:
    return KernelBackend(
        name=name,
        cu_update=module.cu_update,
        saturating_update=module.saturating_update,
        reliable_layer_update=module.reliable_layer_update,
        elastic_update=module.elastic_update,
        coco_update=module.coco_update,
        hashpipe_update=module.hashpipe_update,
        precision_update=module.precision_update,
    )


_BACKENDS = {
    name: _backend_from_module(name, module)
    for name, module in zip(BACKEND_NAMES, (numpy_backend, python_backend))
}
_default_name = BACKEND_NAMES[0]


def resolve_backend(name: str | None = None) -> KernelBackend:
    """The backend called ``name``, or with ``None`` the current default.

    An unknown name raises ``ValueError``.
    """
    if name is None:
        name = _default_name
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
        ) from None


def default_backend_name() -> str:
    """The name of the backend newly built sketches bind."""
    return _default_name


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Make ``name`` the default backend inside the ``with`` block.

    Only affects sketches *constructed* inside the block — each sketch
    binds its backend at construction time.  The previous default comes
    back on exit, also when the block raises.
    """
    global _default_name
    previous = _default_name
    _default_name = resolve_backend(name).name
    try:
        yield
    finally:
        _default_name = previous
