"""The fault-tolerant run controller for the parallel realization pass.

:class:`RunController` owns what used to be an unsupervised
``ProcessPoolExecutor.map``.  Its unit of work is a *row block*: up to
:data:`BLOCK_ROWS` realizations that one call to the generator's
``realize_block`` surges, smooths and maps together (:func:`run_block`).
Inline runs (``n_jobs=1``) execute the blocks in process; pooled runs
submit one task per block.  Either way the controller retries retryable
failures with capped exponential backoff, enforces a per-task timeout on
hung workers, survives a collapsed pool (``BrokenProcessPool`` after a
worker is killed), validates every returned row, and streams completed
rows into a :class:`~repro.runtime.checkpoint.CheckpointStore` so an
interrupted run resumes from its shards to a bit-identical ensemble.

Failure taxonomy (see :mod:`repro.errors`):

* **retryable** -- :class:`WorkerCrashError` (worker died or its task
  raised an unexpected exception), :class:`WorkerTimeoutError` (task
  exceeded ``task_timeout_s``), :class:`CorruptResultError` (payload
  failed validation).  Each retry is charged to a realization index;
  after ``max_retries`` charges the run flushes its checkpoint and
  raises :class:`RetryExhaustedError`.
* **fatal** -- any :class:`~repro.errors.ReproError` raised by the task
  itself: a deterministic modeling error that no retry will fix is
  surfaced immediately (after flushing the checkpoint).

Charges stay per realization index.  A failure that belongs to one row
-- a fault raised for that index, or a corrupt (non-finite) row --
charges only that index and resubmits only it.  A failure of the whole
task charges every index in its block: an exception out of
``realize_block`` itself, a block running past the timeout, and a pool
collapse, which charges every index of every in-flight block because the
collapse destroys the evidence of which task killed the worker.  The
pool is then rebuilt and the unfinished indices are cut into new blocks.

Determinism: realization ``i`` consumes only the serial parameter pass's
``params[i]`` and a generator freshly derived from
``SeedSequence(seed).spawn(count)[i]`` at every (re)submission, and each
row of a block is bitwise independent of the rows beside it, so retries,
block boundaries, worker counts, pool rebuilds, and resume all produce
the same bits.

Transport: every block comes back as a :class:`BlockOutcome` whose
``depths`` is the block's ``(B x A)`` array -- computed in process when
inline, returned through the result pipe when pooled -- and settling
writes its rows into the run's ``(R x A)`` depth matrix, which becomes
the ensemble.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import (
    CorruptResultError,
    ReproError,
    RetryExhaustedError,
    RuntimeControlError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.hazards.hurricane.ensemble import (
    EnsembleGenerator,
    HurricaneEnsemble,
    StormParameters,
    params_to_row,
)
from repro.obs.observer import current as current_observer
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultPlan, InjectedCrash

#: Realizations per unit of work.  The smoothing pass and, when pooled,
#: the task submit and result transfer are paid once per block; 64 rows
#: amortize them while keeping blocks small enough to spread over
#: workers.  Pooled runs cut smaller blocks when that is what gives
#: every worker one (see :func:`row_blocks`).
BLOCK_ROWS = 64


def row_blocks(indices: Sequence[int], n_jobs: int = 1) -> list[tuple[int, ...]]:
    """Cut ``indices`` into consecutive blocks of at most :data:`BLOCK_ROWS`.

    Blocks shrink when there are too few indices for one block per each
    of ``n_jobs`` workers.
    """
    indices = list(indices)
    size = max(1, min(BLOCK_ROWS, -(-len(indices) // n_jobs)))
    return [tuple(indices[i : i + size]) for i in range(0, len(indices), size)]


@dataclass(frozen=True)
class BlockOutcome:
    """One row block's result, computed in process or by a worker.

    ``indices`` are the rows that ran, in block order; a row whose
    scripted fault raised before the block ran is in ``failures``
    instead.  ``depths`` holds the ``(len(indices) x A)`` rows that ran.
    ``timings`` carries the block's hazard sub-layer seconds.
    """

    indices: tuple[int, ...]
    failures: dict[int, BaseException]
    timings: dict[str, float]
    depths: np.ndarray


def run_block(
    generator: EnsembleGenerator,
    faults: FaultPlan | None,
    indices: Sequence[int],
    attempts: Sequence[int],
    params: Sequence[StormParameters],
    seqs: Sequence[np.random.SeedSequence],
    inline: bool = False,
) -> BlockOutcome:
    """The unit of work: one row block through ``realize_block``.

    ``attempts``, ``params`` and ``seqs`` line up with ``indices``.  Each
    row's dropout rng is derived afresh from its seed sequence.  Scripted
    faults fire per index before the block runs; a row whose fault raises
    is reported in ``failures`` and left out.  ``corrupt`` faults poison
    their row after it is computed, for validation to catch.
    """
    failures: dict[int, BaseException] = {}
    if faults is not None:
        for index, attempt in zip(indices, attempts):
            try:
                faults.apply_before(index, attempt, inline=inline)
            except InjectedCrash as exc:
                failures[index] = exc
    rows = [k for k, index in enumerate(indices) if index not in failures]
    ran = tuple(indices[k] for k in rows)
    timings: dict[str, float] = {}
    depths = generator.realize_block(
        ran,
        [params[k] for k in rows],
        [np.random.default_rng(seqs[k]) for k in rows],
        timings=timings,
    )
    expected = (len(ran), len(generator.asset_order))
    if depths.shape != expected:
        raise CorruptResultError(
            f"block of {len(ran)} rows returned depths shaped {depths.shape}, "
            f"expected {expected}"
        )
    if faults is not None:
        for k, row in zip(rows, depths):
            faults.mangle_row(indices[k], attempts[k], row)
    return BlockOutcome(indices=ran, failures=failures, timings=timings, depths=depths)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the controller fights for each realization."""

    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    task_timeout_s: float | None = None
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise RuntimeControlError("max_retries cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise RuntimeControlError("backoff durations cannot be negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise RuntimeControlError("task timeout must be positive")
        if self.poll_interval_s <= 0:
            raise RuntimeControlError("poll interval must be positive")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), capped."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2 ** max(0, attempt - 1)))

    @classmethod
    def from_options(
        cls,
        max_retries: int | None = None,
        task_timeout_s: float | None = None,
    ) -> "RetryPolicy | None":
        """A policy from optional knobs, or ``None`` when both are unset.

        The CLI, facade, and sweep engine all accept independent
        ``--max-retries`` / ``--task-timeout`` options; this is the one
        place that turns them into a policy (``None`` means "use the
        controller's default policy").
        """
        if max_retries is None and task_timeout_s is None:
            return None
        kwargs: dict = {}
        if max_retries is not None:
            kwargs["max_retries"] = max_retries
        if task_timeout_s is not None:
            kwargs["task_timeout_s"] = task_timeout_s
        return cls(**kwargs)


class RunController:
    """Supervises the realization pass of one ensemble generation run."""

    def __init__(
        self,
        generator: EnsembleGenerator,
        count: int,
        seed: int,
        n_jobs: int = 1,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        checkpoint: CheckpointStore | None = None,
    ) -> None:
        if count < 1:
            raise RuntimeControlError("run needs at least one realization")
        if n_jobs < 1:
            raise RuntimeControlError("n_jobs must be at least 1")
        self.generator = generator
        self.count = count
        self.seed = seed
        self.n_jobs = n_jobs
        self.policy = policy or RetryPolicy()
        self.faults = faults
        self.checkpoint = checkpoint
        self._asset_order: tuple[str, ...] = tuple(generator.asset_order)
        # The run's (R x A) depth matrix and (R x 7) parameter table;
        # settled rows are written in place and the pair becomes the
        # ensemble.
        self._rows = np.empty((0, len(self._asset_order)))
        self._params = np.empty((0, 0))
        self._timings: dict[str, float] = {}
        self.retries_by_index: dict[int, int] = {}
        self.pool_rebuilds = 0
        self.resumed_realizations = 0
        self._obs = current_observer()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> HurricaneEnsemble:
        """Produce the full ensemble, resuming from shards if asked."""
        obs = self._obs = current_observer()
        with obs.span("ensemble.parameter_pass", count=self.count):
            params = self.generator.sample_all_parameters(self.count, self.seed)
            seqs = np.random.SeedSequence(self.seed).spawn(self.count)
        self._params = np.array([params_to_row(p) for p in params])
        self._rows = np.empty((self.count, len(self._asset_order)))
        resumed: list[int] = []
        if self.checkpoint is not None:
            if resume:
                with obs.span("ensemble.checkpoint_load"):
                    resumed = self.checkpoint.load(expected_params=self._params)
                self._rows[resumed] = self.checkpoint.rows(resumed)[0]
                self.resumed_realizations = len(resumed)
                if resumed:
                    obs.inc("runtime.checkpoint.resumed", len(resumed))
                    obs.event(
                        "checkpoint_resume",
                        realizations=len(resumed),
                        of=self.count,
                    )
            else:
                self.checkpoint.reset()
        done = set(resumed)
        pending = [i for i in range(self.count) if i not in done]
        self._timings = {}
        try:
            with obs.span(
                "ensemble.realization_pass",
                count=len(pending),
                n_jobs=self.n_jobs,
            ):
                if self.n_jobs == 1:
                    self._run_inline(pending, params, seqs)
                else:
                    self._run_pool(pending, params, seqs)
                # Hazard sub-layers: one aggregate leaf each, summed over
                # blocks (worker seconds on pooled runs).
                for name, seconds in self._timings.items():
                    obs.record_span(name, seconds, realizations=len(pending))
        finally:
            self._flush()
        obs.inc("runtime.realizations_completed", len(pending))
        return HurricaneEnsemble(
            self.generator.scenario.name,
            self._rows,
            self._asset_order,
            self.seed,
            self._params,
        )

    def _flush(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint.flush()

    # ------------------------------------------------------------------
    # Settling blocks
    # ------------------------------------------------------------------
    def _settle(self, block, outcome) -> list[int]:
        """Validate and record one finished block.

        Returns the indices to resubmit, each already charged.  A payload
        that does not account for exactly the block's indices is corrupt
        as a whole; otherwise each faulted or non-finite row charges only
        its own index.
        """
        if not self._well_formed(block, outcome):
            return self._fail(
                block, CorruptResultError(f"block at {block[0]} returned a malformed result")
            )
        retry: list[int] = []
        for index, exc in outcome.failures.items():
            retry += self._fail([index], exc)
        ran = list(outcome.indices)
        self._rows[ran] = outcome.depths
        finite = np.isfinite(outcome.depths).all(axis=1).tolist()
        good = [index for index, ok in zip(ran, finite) if ok]
        if good and self.checkpoint is not None:
            self.checkpoint.record(good, self._rows[good], self._params[good])
        for index, ok in zip(ran, finite):
            if not ok:
                retry += self._fail(
                    [index], CorruptResultError(f"task {index} returned non-finite depths")
                )
        return retry

    @staticmethod
    def _well_formed(block, outcome) -> bool:
        """Whether a payload accounts for exactly the block's indices."""
        return isinstance(outcome, BlockOutcome) and sorted(
            outcome.indices + tuple(outcome.failures)
        ) == sorted(block)

    def _observe_block(self, outcome, seconds: float, settled: int) -> None:
        """Fold one block's timings in: sub-layer sums and, per settled
        row, the block's seconds per row it ran."""
        for name, value in outcome.timings.items():
            self._timings[name] = self._timings.get(name, 0.0) + value
        if settled and self._obs.enabled:
            rows = max(1, len(outcome.indices))
            self._obs.observe("runtime.realization_s", seconds / rows, count=settled)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _classify(self, exc: BaseException) -> RuntimeControlError | None:
        """Map a task failure to the taxonomy; ``None`` means fatal."""
        if isinstance(exc, RuntimeControlError):
            return exc if exc.retryable else None
        if isinstance(exc, ReproError):
            return None  # deterministic modeling error: retries cannot help
        if isinstance(exc, BrokenProcessPool):
            return WorkerCrashError(f"worker pool collapsed: {exc}")
        return WorkerCrashError(f"task raised {type(exc).__name__}: {exc}")

    def _fail(self, indices, exc: BaseException) -> list[int]:
        """Charge ``exc`` to each index and return them for resubmission.

        A fatal ``exc`` is re-raised at once, after flushing the
        checkpoint.
        """
        error = self._classify(exc)
        if error is None:
            self._flush()
            raise exc
        for index in indices:
            self._charge(index, error)
        return list(indices)

    def _charge(self, index: int, error: RuntimeControlError) -> None:
        """Charge one retryable failure; raise once the budget is spent."""
        attempts = self.retries_by_index.get(index, 0) + 1
        self.retries_by_index[index] = attempts
        self._obs.inc("runtime.retries")
        self._obs.inc(f"runtime.retries.{type(error).__name__}")
        self._obs.event(
            "retry",
            realization=index,
            attempt=attempts,
            error=type(error).__name__,
        )
        if attempts > self.policy.max_retries:
            self._flush()
            raise RetryExhaustedError(
                f"realization {index} failed {attempts} times "
                f"(max_retries={self.policy.max_retries}); last error: {error}"
            ) from error

    def _attempt_of(self, index: int) -> int:
        return self.retries_by_index.get(index, 0)

    def _backoff(self, indices) -> None:
        time.sleep(self.policy.backoff_s(max(self._attempt_of(i) for i in indices)))

    def _task_args(self, block, params, seqs) -> tuple:
        return (
            block,
            [self._attempt_of(i) for i in block],
            [params[i] for i in block],
            [seqs[i] for i in block],
        )

    # ------------------------------------------------------------------
    # Inline (n_jobs == 1) execution
    # ------------------------------------------------------------------
    def _run_inline(self, pending, params, seqs) -> None:
        for block in row_blocks(pending):
            while block:
                started = time.perf_counter()
                try:
                    outcome = run_block(
                        self.generator,
                        self.faults,
                        *self._task_args(block, params, seqs),
                        inline=True,
                    )
                except Exception as exc:
                    retry = self._fail(block, exc)
                else:
                    seconds = time.perf_counter() - started
                    retry = self._settle(block, outcome)
                    self._observe_block(outcome, seconds, len(block) - len(retry))
                if retry:
                    self._backoff(retry)
                block = tuple(retry)

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _run_pool(self, pending, params, seqs) -> None:
        remaining = set(pending)
        while remaining:
            executor = ProcessPoolExecutor(
                max_workers=self.n_jobs,
                initializer=_init_worker,
                initargs=(self.generator, self.faults),
            )
            try:
                rebuild = self._drive_pool(executor, remaining, params, seqs)
            finally:
                self._terminate_pool(executor)
            if rebuild:
                self.pool_rebuilds += 1
                self._obs.inc("runtime.pool_rebuilds")
                self._obs.event("pool_rebuild", remaining=len(remaining))

    def _drive_pool(self, executor, remaining, params, seqs) -> bool:
        """Run blocks on one pool; ``True`` means the pool must be rebuilt."""
        futures: dict[Future, tuple[int, ...]] = {}
        # Submit-to-completion latency per future (includes queueing).
        submitted_at: dict[Future, float] = {}

        def submit(indices) -> None:
            for block in row_blocks(sorted(indices), self.n_jobs):
                future = executor.submit(
                    _run_block_task, *self._task_args(block, params, seqs)
                )
                futures[future] = block
                submitted_at[future] = time.perf_counter()

        submit(remaining)
        running_since: dict[Future, float] = {}
        while futures:
            done, _ = wait(
                futures, timeout=self.policy.poll_interval_s,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            retry_now: list[int] = []
            for future in done:
                block = futures.pop(future)
                started = submitted_at.pop(future)
                try:
                    outcome = future.result()
                except Exception as exc:
                    broken = broken or isinstance(exc, BrokenProcessPool)
                    retry_now += self._fail(block, exc)
                    continue
                seconds = time.perf_counter() - started
                retry = self._settle(block, outcome)
                self._observe_block(outcome, seconds, len(block) - len(retry))
                remaining.difference_update(block)
                remaining.update(retry)
                retry_now += retry
            if broken:
                # The collapse destroyed any evidence of which in-flight
                # block killed the worker: charge every index in them all.
                # (retry_now indices were already charged above; all stay
                # in ``remaining`` and rerun on the rebuilt pool.)
                collapse = WorkerCrashError("worker pool collapsed mid-task")
                for block in futures.values():
                    self._fail(block, collapse)
                return True
            if retry_now:
                self._backoff(retry_now)
                try:
                    submit(retry_now)
                except BrokenProcessPool:
                    return True  # already charged; rerun on the rebuilt pool
            if self._hung_task(futures, running_since):
                return True
        return False

    def _hung_task(self, futures, running_since) -> bool:
        """Charge a block running past the timeout; ``True`` if one hung."""
        timeout = self.policy.task_timeout_s
        if timeout is None:
            return False
        now = time.monotonic()
        for future in futures:
            if future.running() and future not in running_since:
                running_since[future] = now
        for future, started in running_since.items():
            if future in futures and now - started > timeout:
                block = futures[future]
                self._fail(
                    block,
                    WorkerTimeoutError(
                        f"block at realization {block[0]} ({len(block)} rows) "
                        f"still running after {timeout:.3g}s"
                    ),
                )
                return True
        return False

    @staticmethod
    def _terminate_pool(executor: ProcessPoolExecutor) -> None:
        terminate_pool(executor)


def terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Stop a pool hard: cancel queued work and kill live workers.

    ``shutdown`` alone would wait on a hung worker forever, so any
    still-live worker processes are terminated outright (private
    attribute, guarded -- a missing attribute degrades to a plain
    shutdown).  Shared by :class:`RunController` (realization pass) and
    :class:`~repro.runtime.supervisor.StudySupervisor` (study pass).
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


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
_WORKER_GENERATOR: EnsembleGenerator | None = None
_WORKER_FAULTS: FaultPlan | None = None


def _init_worker(generator: EnsembleGenerator, faults: FaultPlan | None) -> None:
    """Install the (already-built) generator and fault plan in a worker."""
    global _WORKER_GENERATOR, _WORKER_FAULTS
    _WORKER_GENERATOR = generator
    _WORKER_FAULTS = faults


def _run_block_task(indices, attempts, params, seqs) -> BlockOutcome:
    """One pooled block; its ``(B x A)`` depths travel back in the outcome."""
    generator = _WORKER_GENERATOR
    assert generator is not None, "worker pool not initialized"
    return run_block(generator, _WORKER_FAULTS, indices, attempts, params, seqs)
