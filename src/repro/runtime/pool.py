"""The one supervised process pool behind every parallel pass.

Ensemble generation (:class:`~repro.runtime.controller.RunController`,
one task per row block) and batch studies
(:class:`~repro.runtime.supervisor.StudySupervisor`, one task per study)
both run their tasks through :class:`WorkerPool`.  The pool owns the
mechanics; each caller owns only its accounting -- what a failure is
charged to, whether it retries, and what is resubmitted.

Contract:

* :meth:`WorkerPool.submit` queues ``task_fn(*args)`` under a caller key
  (unique among the tasks in flight).
* :meth:`WorkerPool.poll` waits at most ``poll_interval_s`` and returns
  every task that settled as ``(key, result)`` or ``(key, exception)``,
  so the caller regains control at least that often (a time budget can
  fire while a task runs, not only when one settles).
* A collapsed pool (``BrokenProcessPool``, e.g. a worker killed
  mid-task) destroys the evidence of which task killed it: every key in
  flight comes back as a :class:`~repro.errors.WorkerCrashError`.
* A task running longer than ``timeout_s`` comes back as a
  :class:`~repro.errors.WorkerTimeoutError`, for that key only.  A hung
  worker cannot be cancelled, only abandoned, so the pool is torn down
  and the other tasks in flight rerun with their original arguments,
  uncharged.
* A torn-down pool is rebuilt, with the same initializer, when there is
  work to put on it again: each rebuild bumps ``<name>.pool_rebuilds``
  and emits one ``pool_rebuild`` event carrying ``pool=<name>``.

:func:`classify_failure` is the failure taxonomy both callers share.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Generic, Hashable, TypeVar

from repro.errors import (
    ReproError,
    RuntimeControlError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs.observer import current as current_observer

#: A caller's task key: a row block for generation, a grid position for
#: studies.
K = TypeVar("K", bound=Hashable)


def classify_failure(exc: BaseException) -> RuntimeControlError | None:
    """Map a task failure to the retry taxonomy; ``None`` means fatal.

    A :class:`RuntimeControlError` retries only if it is ``retryable``;
    any other :class:`ReproError` is a deterministic modeling error that
    no retry can fix; anything else -- a dead worker, a collapsed pool,
    an unexpected exception -- might be environmental, so it becomes a
    retryable :class:`WorkerCrashError`.
    """
    if isinstance(exc, RuntimeControlError):
        return exc if exc.retryable else None
    if isinstance(exc, ReproError):
        return None
    return WorkerCrashError(f"task raised {type(exc).__name__}: {exc}")


class WorkerPool(Generic[K]):
    """A process pool that survives collapses and hung workers.

    ``name`` labels the rebuild counter and event (``runtime`` for
    generation, ``supervisor`` for studies).  Use it as a context
    manager: leaving the block terminates every worker.
    """

    def __init__(
        self,
        name: str,
        task_fn: Callable,
        jobs: int,
        *,
        initializer: Callable | None = None,
        initargs: tuple = (),
        timeout_s: float | None = None,
        poll_interval_s: float = 0.05,
    ) -> None:
        self.name = name
        self.rebuilds = 0
        self._task_fn = task_fn
        self._jobs = max(1, jobs)
        self._initializer = initializer
        self._initargs = initargs
        self._timeout_s = timeout_s
        self._poll_interval_s = poll_interval_s
        self._executor: ProcessPoolExecutor | None = None
        self._built = False
        self._tasks: dict[Future, tuple[K, tuple]] = {}
        self._running_since: dict[Future, float] = {}

    def __len__(self) -> int:
        """Tasks in flight."""
        return len(self._tasks)

    def __enter__(self) -> "WorkerPool[K]":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Abandon every task in flight and stop the workers hard."""
        self._tasks.clear()
        self._running_since.clear()
        if self._executor is not None:
            terminate_pool(self._executor)
            self._executor = None

    def submit(self, key: K, *args) -> None:
        """Queue ``task_fn(*args)``; it settles under ``key``."""
        if self._executor is None:
            if self._built:
                self.rebuilds += 1
                obs = current_observer()
                obs.inc(f"{self.name}.pool_rebuilds")
                obs.event("pool_rebuild", pool=self.name)
            self._executor = ProcessPoolExecutor(
                max_workers=self._jobs,
                initializer=self._initializer,
                initargs=self._initargs,
            )
            self._built = True
        try:
            future = self._executor.submit(self._task_fn, *args)
        except BrokenProcessPool as exc:
            # The pool died since the last poll: settle this task with
            # the collapse so the next poll handles it like any other.
            future = Future()
            future.set_exception(exc)
        self._tasks[future] = (key, args)

    def poll(self) -> list[tuple[K, object]]:
        """Wait up to ``poll_interval_s``; return the tasks that settled."""
        if not self._tasks:
            return []
        done = wait(
            self._tasks, timeout=self._poll_interval_s, return_when=FIRST_COMPLETED
        ).done
        settled: list[tuple[K, object]] = []
        crashed: list[K] = []
        for future in done:
            key = self._tasks.pop(future)[0]
            self._running_since.pop(future, None)
            try:
                settled.append((key, future.result()))
            except BrokenProcessPool:
                crashed.append(key)
            except Exception as exc:
                settled.append((key, exc))
        if crashed:
            crashed += [key for key, _args in self._tasks.values()]
            self.close()
            collapse = WorkerCrashError(f"{self.name} worker pool collapsed mid-task")
            return settled + [(key, collapse) for key in crashed]
        hung = self._hung_task()
        if hung is not None:
            timeout = WorkerTimeoutError(
                f"{self.name} task still running after its "
                f"{self._timeout_s:.3g}s deadline"
            )
            settled.append((self._tasks.pop(hung)[0], timeout))
            survivors = list(self._tasks.values())
            self.close()
            for key, args in survivors:
                self.submit(key, *args)
        return settled

    def _hung_task(self) -> Future | None:
        """The first task running past the timeout, if one is set."""
        if self._timeout_s is None:
            return None
        now = time.monotonic()
        for future in self._tasks:
            if future.running():
                self._running_since.setdefault(future, now)
        for future, started in self._running_since.items():
            if now - started > self._timeout_s:
                return future
        return None


def terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Stop a pool hard: cancel queued work and kill live workers.

    ``shutdown`` alone would wait on a hung worker forever, so any
    still-live worker processes are terminated outright (private
    attribute, guarded -- a missing attribute degrades to a plain
    shutdown).
    """
    # Snapshot the workers first: shutdown() drops the executor's
    # reference to them, and a hung worker left running keeps the
    # executor's manager thread -- and interpreter exit -- waiting on it.
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # already gone
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except (OSError, ValueError, AssertionError):
            pass
