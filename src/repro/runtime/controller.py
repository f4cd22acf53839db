"""The fault-tolerant run controller for the parallel realization pass.

:class:`RunController` owns what used to be an unsupervised
``ProcessPoolExecutor.map``.  Its unit of work is a *row block*: up to
:data:`BLOCK_ROWS` realizations that one call to the generator's
``realize_block`` surges, smooths and maps together (:func:`run_block`).
Inline runs (``n_jobs=1``) execute the blocks in process; pooled runs
submit one task per block to a :class:`~repro.runtime.pool.WorkerPool`,
which times out hung workers and survives a collapsed pool.  Either way
the controller retries retryable failures with capped exponential
backoff, validates every returned row, and streams completed
rows into a :class:`~repro.runtime.checkpoint.CheckpointStore` so an
interrupted run resumes from its shards to a bit-identical ensemble.

Failure taxonomy (:func:`~repro.runtime.pool.classify_failure`):

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
collapse destroys the evidence of which task killed the worker.  Charged
indices are cut into new blocks; blocks that were only caught in a
timed-out pool's teardown rerun as they were, uncharged.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import (
    CorruptResultError,
    RetryExhaustedError,
    RuntimeControlError,
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
from repro.runtime.pool import WorkerPool, classify_failure

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
    def _fail(self, indices, exc: BaseException) -> list[int]:
        """Charge ``exc`` to each index and return them for resubmission.

        A fatal ``exc`` is re-raised at once, after flushing the
        checkpoint.
        """
        error = classify_failure(exc)
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
        """Run blocks on a :class:`~repro.runtime.pool.WorkerPool`.

        Keys are the blocks themselves (disjoint while in flight).  A
        failed block charges each of its indices; retried indices are
        cut into new blocks.
        """
        pool: WorkerPool[tuple[int, ...]] = WorkerPool(
            "runtime",
            _run_block_task,
            self.n_jobs,
            initializer=_init_worker,
            initargs=(self.generator, self.faults),
            timeout_s=self.policy.task_timeout_s,
            poll_interval_s=self.policy.poll_interval_s,
        )
        # Submit-to-completion latency per block (includes queueing).
        submitted_at: dict[tuple[int, ...], float] = {}

        def submit(indices) -> None:
            for block in row_blocks(sorted(indices), self.n_jobs):
                pool.submit(block, *self._task_args(block, params, seqs))
                submitted_at[block] = time.perf_counter()

        try:
            with pool:
                submit(pending)
                while pool:
                    retry: list[int] = []
                    for block, outcome in pool.poll():
                        started = submitted_at.pop(block)
                        if isinstance(outcome, BaseException):
                            retry += self._fail(block, outcome)
                            continue
                        seconds = time.perf_counter() - started
                        settled = self._settle(block, outcome)
                        self._observe_block(outcome, seconds, len(block) - len(settled))
                        retry += settled
                    if retry:
                        self._backoff(retry)
                        submit(retry)
        finally:
            self.pool_rebuilds += pool.rebuilds


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
