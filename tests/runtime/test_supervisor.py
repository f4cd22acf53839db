"""The study supervisor: fault isolation, retry, deadlines, budgets."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import (
    ConfigurationError,
    RuntimeControlError,
    StudyFailureError,
    SweepBudgetError,
)
from repro.obs.observer import Observability, activate
from repro.runtime.controller import RetryPolicy
from repro.runtime.supervisor import (
    StudyFailure,
    StudySupervisor,
    SupervisedTask,
)

FAST = RetryPolicy(
    max_retries=2,
    backoff_base_s=0.01,
    backoff_cap_s=0.02,
    poll_interval_s=0.02,
)

NO_RETRY = RetryPolicy(
    max_retries=0,
    backoff_base_s=0.01,
    backoff_cap_s=0.02,
    poll_interval_s=0.02,
)


def make_tasks(payloads):
    return [
        SupervisedTask(
            position=i, label=f"study-{i}", study_hash=f"hash{i}", payload=p
        )
        for i, p in enumerate(payloads)
    ]


# ----------------------------------------------------------------------
# Worker-side task functions (module level: must cross a process fork)
# ----------------------------------------------------------------------
def _square(payload):
    return payload * payload


def _crash_once_then_square(payload):
    """Dies hard on the first attempt, succeeds on the retry.

    The payload is ``(sentinel_path, value)``: the first execution
    creates the sentinel and kills its own process (a real worker
    crash, not an exception); later attempts find the sentinel and
    compute normally.
    """
    sentinel, value = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("crashed here")
        os._exit(1)
    return value * value


def _poison(payload):
    raise ConfigurationError(f"deterministic modeling error for {payload}")


def _hang_or_square(payload):
    if payload == "hang":
        time.sleep(60.0)
    return payload


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
class TestValidation:
    def test_rejects_non_positive_deadline(self):
        with pytest.raises(RuntimeControlError, match="deadline"):
            StudySupervisor(deadline_s=0)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(RuntimeControlError, match="budget"):
            StudySupervisor(budget_s=-1)


# ----------------------------------------------------------------------
# Serial supervision
# ----------------------------------------------------------------------
class TestSerial:
    def test_success_yields_results_in_order(self):
        supervisor = StudySupervisor(policy=FAST, strict=False)
        outcomes = list(
            supervisor.run_serial(make_tasks([1, 2, 3]), lambda p: p * 10)
        )
        assert [(t.position, r) for t, r in outcomes] == [
            (0, 10),
            (1, 20),
            (2, 30),
        ]

    def test_deterministic_error_fails_without_retry(self):
        supervisor = StudySupervisor(policy=FAST, strict=False)

        def runner(payload):
            if payload == "bad":
                raise ConfigurationError("modeling error")
            return payload

        outcomes = dict(
            (t.position, r)
            for t, r in supervisor.run_serial(
                make_tasks(["ok", "bad", "ok2"]), runner
            )
        )
        failure = outcomes[1]
        assert isinstance(failure, StudyFailure)
        assert failure.error_type == "ConfigurationError"
        assert failure.attempts == 1  # ReproError: no retry can fix it
        # Fault isolation: the studies around it still completed.
        assert outcomes[0] == "ok"
        assert outcomes[2] == "ok2"

    def test_retryable_error_retries_then_succeeds(self):
        supervisor = StudySupervisor(policy=FAST, strict=False)
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return payload

        ((task, result),) = list(
            supervisor.run_serial(make_tasks(["x"]), flaky)
        )
        assert result == "x"
        assert calls["n"] == 3
        assert supervisor.attempts[task.position] == 2  # charged failures

    def test_strict_raises_naming_the_study(self):
        supervisor = StudySupervisor(policy=NO_RETRY, strict=True)
        with pytest.raises(StudyFailureError) as excinfo:
            list(supervisor.run_serial(make_tasks(["bad"]), _poison))
        message = str(excinfo.value)
        assert "study-0" in message  # the failing study is named
        assert "hash0" in message
        assert "ConfigurationError" in message
        assert isinstance(excinfo.value.failure, StudyFailure)
        assert isinstance(excinfo.value.__cause__, ConfigurationError)

    def test_budget_fails_unstarted_studies_fast(self):
        supervisor = StudySupervisor(policy=FAST, strict=False, budget_s=0.05)

        def slow(payload):
            time.sleep(0.08)
            return payload

        outcomes = list(supervisor.run_serial(make_tasks([1, 2, 3]), slow))
        # The first study runs (budget intact at its start); by the
        # second check the budget is gone and the rest never execute.
        assert outcomes[0][1] == 1
        for _, outcome in outcomes[1:]:
            assert isinstance(outcome, StudyFailure)
            assert outcome.error_type == "SweepBudgetError"
            assert outcome.attempts == 0  # never ran at all

    def test_budget_strict_raises(self):
        supervisor = StudySupervisor(strict=True, budget_s=0.01)
        time.sleep(0.02)
        with pytest.raises(SweepBudgetError):
            list(supervisor.run_serial(make_tasks([1]), _square))


# ----------------------------------------------------------------------
# Pooled supervision
# ----------------------------------------------------------------------
class TestPool:
    def test_success_runs_every_task(self):
        supervisor = StudySupervisor(policy=FAST, strict=False)
        outcomes = dict(
            (t.position, r)
            for t, r in supervisor.run_pool(make_tasks([2, 3, 4]), 2, _square)
        )
        assert outcomes == {0: 4, 1: 9, 2: 16}

    def test_killed_worker_is_retried_and_pool_rebuilt(self, tmp_path):
        supervisor = StudySupervisor(policy=FAST, strict=False)
        obs = Observability()
        sentinel = str(tmp_path / "crashed")
        payloads = [(str(tmp_path / "never"), 5), (sentinel, 7)]
        # Make only task 1 crash: pre-create task 0's sentinel.
        with open(payloads[0][0], "w") as handle:
            handle.write("no crash")
        with activate(obs):
            outcomes = dict(
                (t.position, r)
                for t, r in supervisor.run_pool(
                    make_tasks(payloads), 2, _crash_once_then_square
                )
            )
        assert outcomes[0] == 25
        assert outcomes[1] == 49  # crashed once, retried, succeeded
        assert supervisor.pool_rebuilds >= 1
        counters = obs.metrics.snapshot()["counters"]
        assert counters["supervisor.pool_rebuilds"] >= 1
        assert counters["supervisor.study_retries"] >= 1

    def test_poison_study_fails_but_others_complete(self):
        supervisor = StudySupervisor(policy=FAST, strict=False)
        tasks = make_tasks([1, 2, 3])
        poisoned = SupervisedTask(
            position=1, label="poisoned", study_hash="deadbeef", payload=2
        )
        tasks[1] = poisoned

        outcomes = {}
        for task, outcome in supervisor.run_pool(tasks, 2, _square_or_poison):
            outcomes[task.position] = outcome
        failure = outcomes[1]
        assert isinstance(failure, StudyFailure)
        assert failure.label == "poisoned"
        assert failure.attempts == 1  # deterministic: exactly one attempt
        assert outcomes[0] == 1
        assert outcomes[2] == 9

    def test_hung_study_hits_its_deadline(self):
        supervisor = StudySupervisor(
            policy=NO_RETRY, strict=False, deadline_s=0.3
        )
        outcomes = dict(
            (t.position, r)
            for t, r in supervisor.run_pool(
                make_tasks(["ok", "hang"]), 2, _hang_or_square
            )
        )
        assert outcomes[0] == "ok"
        failure = outcomes[1]
        assert isinstance(failure, StudyFailure)
        assert failure.error_type == "WorkerTimeoutError"
        assert "deadline" in failure.message

    def test_pool_budget_fails_remaining(self):
        supervisor = StudySupervisor(strict=False, budget_s=0.01)
        time.sleep(0.02)
        outcomes = dict(
            (t.position, r)
            for t, r in supervisor.run_pool(make_tasks([1, 2]), 2, _square)
        )
        for outcome in outcomes.values():
            assert isinstance(outcome, StudyFailure)
            assert outcome.error_type == "SweepBudgetError"

    def test_pool_budget_expires_mid_study(self):
        """The budget fires while a study runs, not only when one settles."""
        before = set(multiprocessing.active_children())
        supervisor = StudySupervisor(policy=FAST, strict=False, budget_s=0.3)
        started = time.monotonic()
        outcomes = dict(
            (t.position, r)
            for t, r in supervisor.run_pool(
                make_tasks(["ok", "hang"]), 2, _hang_or_square
            )
        )
        assert time.monotonic() - started < 5.0
        assert outcomes[0] == "ok"
        failure = outcomes[1]
        assert isinstance(failure, StudyFailure)
        assert failure.error_type == "SweepBudgetError"
        assert set(multiprocessing.active_children()) <= before


def _square_or_poison(payload):
    if payload == 2:
        raise ConfigurationError("poisoned study")
    return payload * payload
