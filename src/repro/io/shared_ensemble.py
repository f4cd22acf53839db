"""Zero-copy hazard ensembles for parallel analysis workers.

The sweep engine historically shipped each group's ensemble to its pool
workers by pickling it into the pool initializer -- a full serialized
copy of every realization per worker.  The ensemble's analysis-relevant
content is just the ``(n_realizations, n_assets)`` depth matrix (plus
names and provenance), so this module ships *that* instead, by
reference:

- :func:`publish_shared_ensemble` copies the depth matrix into a
  :mod:`multiprocessing.shared_memory` segment once and returns a
  handle whose small JSON-able *descriptor* is all that crosses the
  process boundary.
- :func:`attach_shared_ensemble` turns the descriptor back into a
  :class:`~repro.hazards.base.MatrixEnsemble` whose depth matrix *is*
  the shared buffer (the batched executor reads it in place) and whose
  row views are built only if a scalar fallback ever iterates them.

Lifecycle: the publishing (parent) process owns the segment and must
``close()`` + ``unlink()`` it -- the sweep engine does so in a
``finally`` so worker crashes and ``KeyboardInterrupt`` cannot leak
segments, and an ``atexit`` hook sweeps anything still live at
interpreter shutdown.  Workers only ever *attach*: their handles are
deregistered from the ``multiprocessing`` resource tracker (which would
otherwise unlink the segment when the first worker exits and warn about
leaks for the rest), so a worker dying mid-task never destroys the data
under its siblings.
"""

from __future__ import annotations

import atexit
from typing import Mapping

import numpy as np

from repro.errors import SerializationError
from repro.hazards.base import MatrixEnsemble

__all__ = [
    "SharedEnsembleHandle",
    "publish_shared_ensemble",
    "attach_shared_ensemble",
    "shareable_ensemble",
]


def shareable_ensemble(ensemble: object) -> bool:
    """Whether an ensemble can ship to workers by depth-grid reference.

    A cheap capability probe -- the ensemble exposes ``asset_names`` and
    a depth grid -- replacing the old full ``pickle.dumps`` probe of the
    ensemble (serializing 100k realizations just to throw the bytes
    away cost more than some analyses).
    """
    return bool(getattr(ensemble, "asset_names", None)) and callable(
        getattr(ensemble, "depth_view", None)
    )


# ----------------------------------------------------------------------
# Shared-memory publication (owner side)
# ----------------------------------------------------------------------
class SharedEnsembleHandle:
    """The owner's grip on a published segment.

    ``descriptor`` is the small JSON-able payload workers attach from.
    ``close()`` releases this process's mapping; ``unlink()`` destroys
    the segment (idempotent -- an already-gone segment is fine, so the
    engine's ``finally`` and the ``atexit`` sweep cannot collide).
    """

    def __init__(self, shm, descriptor: dict) -> None:
        self._shm = shm
        self.descriptor = descriptor
        _LIVE.add(self)

    def close(self) -> None:
        if self._shm is not None:
            try:
                self._shm.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def unlink(self) -> None:
        _LIVE.discard(self)
        if self._shm is not None:
            try:
                self._shm.unlink()
            except (FileNotFoundError, OSError):
                pass
            self._shm = None


#: Handles published by this process and not yet unlinked; swept at
#: interpreter exit so an exception path that skipped its ``finally``
#: still cannot leak a segment past the process's lifetime.
_LIVE: set[SharedEnsembleHandle] = set()


@atexit.register
def _cleanup_live_handles() -> None:  # pragma: no cover - exit hook
    for handle in list(_LIVE):
        handle.close()
        handle.unlink()


def publish_shared_ensemble(ensemble: object) -> SharedEnsembleHandle | None:
    """Copy the ensemble's depth grid into shared memory, once.

    Returns ``None`` when the ensemble exposes no depth grid (the
    caller then falls back to pickling, as before).  The caller owns
    the returned handle and must ``close()`` + ``unlink()`` it.
    """
    from multiprocessing import shared_memory

    if not shareable_ensemble(ensemble):
        return None
    source = np.ascontiguousarray(ensemble.depth_view())  # type: ignore[attr-defined]
    shm = shared_memory.SharedMemory(create=True, size=max(1, source.nbytes))
    try:
        target = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        target[...] = source
        descriptor = {
            "kind": "shm",
            "name": shm.name,
            "shape": [int(n) for n in source.shape],
            "dtype": str(source.dtype),
            "scenario_name": getattr(ensemble, "scenario_name", "shared"),
            "seed": getattr(ensemble, "seed", None),
            "asset_names": list(ensemble.asset_names),  # type: ignore[attr-defined]
        }
    except Exception:
        shm.close()
        shm.unlink()
        raise
    return SharedEnsembleHandle(shm, descriptor)


# ----------------------------------------------------------------------
# Attachment (worker side)
# ----------------------------------------------------------------------
def _attach_untracked(name: str):
    """Attach to a segment without enrolling in the resource tracker.

    Python 3.13+ has ``track=False`` for exactly this.  Older runtimes
    auto-register every attachment, which is doubly wrong here: the
    tracker would unlink the segment when the first worker exits, and
    registration is set-idempotent while unregistration is not, so two
    workers registering then deregistering the same name crash the
    tracker daemon with a ``KeyError``.  Suppress registration for the
    duration of the attach instead -- the *owner* process keeps sole
    responsibility for the segment's lifetime.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    real_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register


def attach_shared_ensemble(descriptor: Mapping) -> MatrixEnsemble:
    """Rebuild an ensemble from a descriptor, without copying the data.

    The descriptor's ``kind`` must be ``"shm"``: the depth matrix maps
    the published segment in place.
    """
    kind = descriptor.get("kind")
    if kind != "shm":
        raise SerializationError(
            f"unknown shared-ensemble descriptor kind {kind!r}"
        )
    shape = tuple(int(n) for n in descriptor["shape"])
    shm = _attach_untracked(str(descriptor["name"]))
    depths = np.ndarray(shape, dtype=np.dtype(descriptor["dtype"]), buffer=shm.buf)
    return MatrixEnsemble(
        str(descriptor.get("scenario_name", "shared")),
        depths,
        list(descriptor["asset_names"]),
        descriptor.get("seed"),
        owner=shm,
    )
