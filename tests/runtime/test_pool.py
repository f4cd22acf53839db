"""The supervised worker pool: taxonomy, collapse, timeout, polling."""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs.observer import Observability, activate
from repro.runtime.pool import WorkerPool, classify_failure


def _echo(value, seconds=0.0, log=None):
    """Return ``value`` after ``seconds``; the value ``"die"`` kills the
    worker outright.  ``log`` records every start."""
    if log is not None:
        with open(log, "a") as handle:
            handle.write(f"{value}\n")
    if value == "die":
        os._exit(1)
    time.sleep(seconds)
    return value


def _drain(pool, limit_s=30.0):
    """Poll until nothing is in flight; every settled (key, outcome)."""
    settled = []
    deadline = time.monotonic() + limit_s
    while pool and time.monotonic() < deadline:
        settled += pool.poll()
    return settled


class TestClassifyFailure:
    def test_retryable_control_error_is_kept(self):
        error = WorkerTimeoutError("slow")
        assert classify_failure(error) is error

    @pytest.mark.parametrize(
        "exc", [RetryExhaustedError("spent"), ConfigurationError("modeling")]
    )
    def test_fatal_errors_are_none(self, exc):
        assert classify_failure(exc) is None

    @pytest.mark.parametrize(
        "exc", [BrokenProcessPool("gone"), OSError("transient"), KeyError("x")]
    )
    def test_everything_else_is_a_worker_crash(self, exc):
        error = classify_failure(exc)
        assert isinstance(error, WorkerCrashError)
        assert error.retryable


class TestWorkerPool:
    def test_poll_returns_within_the_interval(self):
        with WorkerPool("runtime", _echo, 1, poll_interval_s=0.05) as pool:
            pool.submit("k", "v", 60.0)
            started = time.monotonic()
            assert pool.poll() == []
            assert time.monotonic() - started < 2.0
            assert len(pool) == 1

    def test_collapse_crashes_every_key_in_flight(self):
        obs = Observability()
        with activate(obs), WorkerPool("supervisor", _echo, 2) as pool:
            pool.submit("a", "die")
            pool.submit("b", "v", 60.0)
            settled = dict(_drain(pool))
            assert set(settled) == {"a", "b"}
            assert all(isinstance(e, WorkerCrashError) for e in settled.values())
            assert pool.rebuilds == 0  # nothing resubmitted yet
        counters = obs.metrics.snapshot()["counters"]
        assert "supervisor.pool_rebuilds" not in counters

    def test_collapse_rebuilds_for_the_retry(self):
        obs = Observability()
        with activate(obs):
            with WorkerPool("runtime", _echo, 1) as pool:
                pool.submit("a", "first")
                assert dict(_drain(pool)) == {"a": "first"}
                pool.submit("b", "die")
                ((key, error),) = _drain(pool)
                assert key == "b" and isinstance(error, WorkerCrashError)
                pool.submit("b", "second")
                assert dict(_drain(pool)) == {"b": "second"}
                assert pool.rebuilds == 1
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.pool_rebuilds"] == 1
        (event,) = obs.events.of_kind("pool_rebuild")
        assert event["pool"] == "runtime"

    def test_timeout_charges_only_the_hung_key(self, tmp_path):
        log = str(tmp_path / "starts.log")
        with WorkerPool(
            "supervisor", _echo, 2, timeout_s=1.0, poll_interval_s=0.02
        ) as pool:
            pool.submit("hang", "h", 60.0, log)
            settled = []
            started = time.monotonic()
            while time.monotonic() - started < 0.8:
                settled += pool.poll()
            # Still running when the hung task times out, well inside
            # its own deadline: it must rerun, not be charged.
            pool.submit("late", "l", 0.6, log)
            settled += _drain(pool)
            outcomes = dict(settled)
            assert isinstance(outcomes["hang"], WorkerTimeoutError)
            assert "deadline" in str(outcomes["hang"])
            assert outcomes["late"] == "l"
            assert pool.rebuilds == 1
        with open(log) as handle:
            starts = handle.read().split()
        assert starts.count("h") == 1
        assert starts.count("l") == 2  # rerun with its original arguments
