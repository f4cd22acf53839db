"""Fault-isolated supervision for batch study execution.

The sweep engine's original pool loop called ``future.result()`` bare:
one poisoned study aborted the whole sweep and discarded every
in-flight result, and a silently-hung worker could stall the sweep
forever.  :class:`StudySupervisor` wraps per-study execution the way
:class:`~repro.runtime.controller.RunController` wraps per-realization
execution, on the same :class:`~repro.runtime.pool.WorkerPool` and the
same failure taxonomy (:func:`~repro.runtime.pool.classify_failure`):

* a failing study becomes a recorded :class:`StudyFailure` -- exception
  type, message, attempt count -- instead of a sweep abort;
* unexpected failures (worker crashes, collapsed pools, hung studies)
  are retried with the :class:`~repro.runtime.controller.RetryPolicy`
  backoff, while deterministic :class:`~repro.errors.ReproError`\\ s
  fail immediately (no retry can fix a modeling error);
* a collapsed pool (``BrokenProcessPool``) charges every study in
  flight and is rebuilt for the retries;
* a per-study ``deadline_s`` bounds any one study on the pooled path
  (the pool is torn down and rebuilt around the hung worker), and a
  whole-run ``budget_s`` bounds the batch: once it expires, studies
  still running or not yet started fail fast with
  :class:`~repro.errors.SweepBudgetError` instead of running half a
  grid past its deadline;
* ``strict=True`` preserves raise-on-failure semantics -- the first
  terminal failure raises :class:`~repro.errors.StudyFailureError`
  naming the study that died -- while ``strict=False`` degrades
  gracefully: the caller receives every completed result plus the
  failure records.

The supervisor is deliberately generic over *what* a study is: tasks
carry an opaque payload and the caller supplies the runner (serial) or
task function + pool initializer (pooled), so the sweep engine and the
study service can share one failure taxonomy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.errors import (
    RuntimeControlError,
    StudyFailureError,
    SweepBudgetError,
)
from repro.obs.observer import current as current_observer
from repro.runtime.controller import RetryPolicy
from repro.runtime.pool import WorkerPool, classify_failure


@dataclass(frozen=True)
class SupervisedTask:
    """One unit of supervised work: identity plus an opaque payload."""

    #: The caller's index for this task (e.g. the sweep grid position).
    position: int
    #: Human-readable identity, used in failure records and messages.
    label: str
    #: Stable identity hash (e.g. the study config hash); "" if unknown.
    study_hash: str
    #: What the runner / task function receives.
    payload: object


@dataclass(frozen=True)
class StudyFailure:
    """The record a failed study leaves behind instead of an exception.

    ``attempts`` counts executions actually charged to the study; a
    study that never ran (the sweep budget expired first) has zero.
    """

    position: int
    study_hash: str
    label: str
    error_type: str
    message: str
    attempts: int

    def summary(self) -> dict:
        """JSON-friendly form (lands in manifests and service journals)."""
        return {
            "position": self.position,
            "study_hash": self.study_hash,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


class StudySupervisor:
    """Retry, deadline, budget, and failure-isolation for study batches.

    One supervisor instance spans one batch (e.g. one ``run_sweep``
    call): the time budget starts at construction and attempt counts
    are charged per task position across pool rebuilds.
    """

    def __init__(
        self,
        *,
        policy: RetryPolicy | None = None,
        strict: bool = True,
        deadline_s: float | None = None,
        budget_s: float | None = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise RuntimeControlError("study deadline must be positive")
        if budget_s is not None and budget_s <= 0:
            raise RuntimeControlError("sweep budget must be positive")
        self.policy = policy or RetryPolicy()
        self.strict = strict
        self.deadline_s = deadline_s
        self.budget_s = budget_s
        self.attempts: dict[int, int] = {}
        self.pool_rebuilds = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Budget
    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def budget_exhausted(self) -> bool:
        return self.budget_s is not None and self.elapsed_s() >= self.budget_s

    def budget_failure(self, task: SupervisedTask) -> StudyFailure:
        message = (
            f"sweep time budget ({self.budget_s:.3g}s) exhausted after "
            f"{self.elapsed_s():.3g}s; study {task.label!r} did not run to "
            f"completion"
        )
        if self.strict:
            raise SweepBudgetError(message)
        return self._record_failure(task, SweepBudgetError(message))

    # ------------------------------------------------------------------
    # Failure accounting
    # ------------------------------------------------------------------
    def _charge(self, task: SupervisedTask, exc: BaseException) -> bool:
        """Charge one attempt; ``True`` if the study may retry."""
        attempts = self.attempts.get(task.position, 0) + 1
        self.attempts[task.position] = attempts
        obs = current_observer()
        obs.inc("supervisor.study_attempts")
        if classify_failure(exc) is None:
            return False
        if attempts > self.policy.max_retries:
            return False
        obs.inc("supervisor.study_retries")
        obs.event(
            "study_retry",
            study=task.label,
            attempt=attempts,
            error=type(exc).__name__,
        )
        return True

    def _record_failure(
        self, task: SupervisedTask, exc: BaseException
    ) -> StudyFailure:
        failure = StudyFailure(
            position=task.position,
            study_hash=task.study_hash,
            label=task.label,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=self.attempts.get(task.position, 0),
        )
        obs = current_observer()
        obs.inc("supervisor.studies_failed")
        obs.event(
            "study_failure",
            study=task.label,
            study_hash=task.study_hash,
            error=failure.error_type,
            attempts=failure.attempts,
        )
        return failure

    def _terminal(
        self, task: SupervisedTask, exc: BaseException
    ) -> StudyFailure:
        """A study is out of options: raise (strict) or record (lenient)."""
        if self.strict:
            attempts = self.attempts.get(task.position, 0)
            raise StudyFailureError(
                f"study {task.label!r} (hash {task.study_hash or '?'}) "
                f"failed after {max(attempts, 1)} attempt(s): "
                f"{type(exc).__name__}: {exc}",
                failure=self._record_failure(task, exc),
            ) from exc
        return self._record_failure(task, exc)

    # ------------------------------------------------------------------
    # Serial execution
    # ------------------------------------------------------------------
    def run_serial(
        self,
        tasks: Sequence[SupervisedTask],
        runner: Callable[[object], object],
    ) -> Iterator[tuple[SupervisedTask, object]]:
        """Run tasks inline, yielding ``(task, result-or-StudyFailure)``.

        Per-study deadlines are not enforceable inline (nothing can
        preempt the running call); the budget is checked between
        studies, so a batch never *starts* work past its budget.
        """
        for task in tasks:
            if self.budget_exhausted():
                yield task, self.budget_failure(task)
                continue
            while True:
                try:
                    result = runner(task.payload)
                except Exception as exc:
                    if not self._charge(task, exc):
                        yield task, self._terminal(task, exc)
                        break
                    time.sleep(
                        self.policy.backoff_s(self.attempts[task.position])
                    )
                else:
                    yield task, result
                    break

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def run_pool(
        self,
        tasks: Sequence[SupervisedTask],
        jobs: int,
        task_fn: Callable,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> Iterator[tuple[SupervisedTask, object]]:
        """Run tasks on a :class:`~repro.runtime.pool.WorkerPool`.

        Yields ``(task, result-or-StudyFailure)`` as each study settles.
        ``deadline_s`` is the pool's task timeout; attempt counts are
        kept per study across pool rebuilds.  The budget is checked at
        every poll, so it also fires while a study runs: the pool is
        torn down and every unsettled study fails with
        :class:`~repro.errors.SweepBudgetError`.
        """
        remaining = {task.position: task for task in tasks}
        pool: WorkerPool[int] = WorkerPool(
            "supervisor",
            task_fn,
            min(jobs, len(remaining)),
            initializer=initializer,
            initargs=initargs,
            timeout_s=self.deadline_s,
            poll_interval_s=self.policy.poll_interval_s,
        )
        try:
            with pool:
                if not self.budget_exhausted():
                    for task in remaining.values():
                        pool.submit(task.position, task.payload)
                while pool and not self.budget_exhausted():
                    retry: list[SupervisedTask] = []
                    for position, outcome in pool.poll():
                        task = remaining[position]
                        if not isinstance(outcome, BaseException):
                            del remaining[position]
                            yield task, outcome
                        elif self._charge(task, outcome):
                            retry.append(task)
                        else:
                            del remaining[position]
                            yield task, self._terminal(task, outcome)
                    if retry:
                        time.sleep(
                            self.policy.backoff_s(
                                max(self.attempts[t.position] for t in retry)
                            )
                        )
                        for task in retry:
                            pool.submit(task.position, task.payload)
        finally:
            self.pool_rebuilds += pool.rebuilds
        for position in sorted(remaining):
            yield remaining[position], self.budget_failure(remaining[position])
