"""The run controller: retries, timeouts, validation, pool survival."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.errors import (
    HazardError,
    RetryExhaustedError,
    RuntimeControlError,
)
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.runtime.controller import RetryPolicy, RunController
from repro.runtime.pool import terminate_pool
from repro.runtime.faults import FaultPlan

COUNT = 16
SEED = 555

FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.02)


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def reference(generator):
    """The oracle: an unsupervised serial run."""
    params = generator.sample_all_parameters(COUNT, SEED)
    rngs = generator._realization_rngs(COUNT, SEED)
    return [
        generator.realize(i, p, rng) for i, (p, rng) in enumerate(zip(params, rngs))
    ]


def depths(realizations) -> np.ndarray:
    names = list(realizations[0].inundation.depths_m)
    return np.array([[r.inundation.depths_m[n] for n in names] for r in realizations])


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.35)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.35)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.35)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"task_timeout_s": 0.0},
            {"poll_interval_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(RuntimeControlError):
            RetryPolicy(**kwargs)


class TestCleanRuns:
    def test_inline_matches_reference(self, generator, reference):
        controller = RunController(generator, COUNT, SEED, n_jobs=1)
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))

    def test_pooled_matches_reference(self, generator, reference):
        controller = RunController(generator, COUNT, SEED, n_jobs=3)
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.pool_rebuilds == 0
        assert controller.retries_by_index == {}

    def test_rejects_bad_dimensions(self, generator):
        with pytest.raises(RuntimeControlError):
            RunController(generator, 0, SEED)
        with pytest.raises(RuntimeControlError):
            RunController(generator, COUNT, SEED, n_jobs=0)


class TestRetries:
    def test_crash_is_retried_inline(self, generator, reference):
        plan = FaultPlan().crash(2, times=2)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=1,
            policy=RetryPolicy(max_retries=3, **FAST), faults=plan,
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.retries_by_index[2] == 2

    def test_corrupt_payload_is_caught_and_retried(self, generator, reference):
        plan = FaultPlan().corrupt(4, times=1)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=2,
            policy=RetryPolicy(max_retries=2, **FAST), faults=plan,
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.retries_by_index[4] == 1

    def test_exhausted_retries_raise(self, generator):
        plan = FaultPlan().crash(1, times=99)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=1,
            policy=RetryPolicy(max_retries=1, **FAST), faults=plan,
        )
        with pytest.raises(RetryExhaustedError):
            controller.run()

    def test_fatal_model_error_is_not_retried(self, generator, monkeypatch):
        """A deterministic ReproError from the task surfaces immediately."""

        def explode(indices, params, rngs, timings=None):
            raise HazardError("deterministic modeling bug")

        monkeypatch.setattr(generator, "realize_block", explode)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=1, policy=RetryPolicy(max_retries=5, **FAST)
        )
        with pytest.raises(HazardError):
            controller.run()
        assert controller.retries_by_index == {}


class TestPoolFaults:
    def test_killed_worker_collapses_pool_but_run_survives(
        self, generator, reference
    ):
        plan = FaultPlan().kill(3, times=1)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=2,
            policy=RetryPolicy(max_retries=3, **FAST), faults=plan,
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.pool_rebuilds >= 1

    def test_hung_worker_is_timed_out_and_replaced(self, generator, reference):
        plan = FaultPlan().hang(5, times=1, hang_s=60.0)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=2,
            policy=RetryPolicy(max_retries=3, task_timeout_s=1.0, **FAST),
            faults=plan,
        )
        ensemble = controller.run()
        assert np.array_equal(ensemble.depth_matrix(), depths(reference))
        assert controller.pool_rebuilds >= 1
        assert controller.retries_by_index[5] >= 1

    def test_terminate_pool_kills_a_hung_worker(self):
        """``shutdown()`` drops the executor's worker list, so the workers
        must be taken first: a hung one left alive would hold interpreter
        exit until its sleep ends."""
        executor = ProcessPoolExecutor(max_workers=1)
        future = executor.submit(time.sleep, 60.0)
        deadline = time.monotonic() + 30.0
        while not future.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert future.running()
        (worker,) = executor._processes.values()
        terminate_pool(executor)
        worker.join(timeout=10.0)
        assert not worker.is_alive()
