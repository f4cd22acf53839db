"""Pooled generation's single transport: row blocks come back as arrays.

Pooled workers return each row block's ``(B x A)`` depths in its
:class:`BlockOutcome`, and the parent writes them into the run's depth
matrix, which becomes the ensemble; the deprecated ``transport``
argument of ``generate()`` has no effect.  These tests pin the pooled
path's guarantees: bitwise identity with the inline run and the per-row
oracle, an ensemble that holds the run's matrix itself, the in-worker
shape guard, and fault-tolerance parity (crash, corrupt row, hung block,
pool rebuild and resume all end in the oracle's bits).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CorruptResultError, RetryExhaustedError, RuntimeControlError
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.runtime import controller as controller_mod
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.controller import BlockOutcome, RetryPolicy, RunController
from repro.runtime.faults import FaultPlan
from repro.sampling.generation import PlanSampledGenerator
from repro.sampling.plans import resolve_sampling

COUNT = 12
SEED = 9090
FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.02)


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def oracle(generator):
    """The unsupervised serial reference."""
    params = generator.sample_all_parameters(COUNT, SEED)
    rngs = generator._realization_rngs(COUNT, SEED)
    return [
        generator.realize(i, p, rng) for i, (p, rng) in enumerate(zip(params, rngs))
    ]


def _depths(realizations) -> np.ndarray:
    names = list(realizations[0].inundation.depths_m)
    return np.array([[r.inundation.depths_m[n] for n in names] for r in realizations])


def _pooled(generator, **kwargs) -> tuple[RunController, object]:
    controller = RunController(generator, COUNT, SEED, n_jobs=2, **kwargs)
    return controller, controller.run()


class TestTransportSelection:
    def test_unknown_transport_rejected(self, generator):
        with pytest.raises(RuntimeControlError, match="transport"):
            generator.generate(count=COUNT, seed=SEED, transport="carrier-pigeon")

    def test_plan_sampled_generator_runs_inplace(self, generator):
        """A plan-sampled generator runs pooled through the same path and
        matches its inline run."""
        sampled = PlanSampledGenerator(generator, resolve_sampling("stratified"))
        assert sampled.asset_order == generator.asset_order
        inline = RunController(sampled, COUNT, SEED, n_jobs=1).run()
        pooled = RunController(sampled, COUNT, SEED, n_jobs=2).run()
        assert np.array_equal(pooled.depth_view(), inline.depth_view())
        assert np.array_equal(pooled.param_view(), inline.param_view())


class TestBitwiseIdentity:
    def test_inplace_pickle_and_inline_agree(self, generator, oracle):
        """The deprecated transport values only warn: every run is the
        one pooled path and matches the inline run and the oracle."""
        inline = RunController(generator, COUNT, SEED, n_jobs=1).run()
        runs = [inline]
        for transport in ("inplace", "pickle"):
            with pytest.warns(DeprecationWarning, match="transport"):
                runs.append(
                    generator.generate(
                        count=COUNT, seed=SEED, n_jobs=3, transport=transport
                    )
                )
        reference = _depths(oracle)
        for ensemble in runs:
            assert np.array_equal(ensemble.depth_view(), reference)
            assert [r.params for r in ensemble] == [r.params for r in oracle]
            assert [r.index for r in ensemble] == list(range(COUNT))

    def test_inplace_primes_the_depth_cache(self, generator, oracle):
        """The pooled ensemble *is* the run's matrix: no cache to prime,
        no rebuild, and a private array rather than a shared segment."""
        _, ensemble = _pooled(generator)
        view = ensemble.depth_view()
        assert view is ensemble.depth_view()
        assert np.array_equal(view, _depths(oracle))
        assert view.flags.owndata
        assert list(ensemble.asset_names) == list(generator.asset_order)


class TestFaultParity:
    def test_corrupt_row_is_caught_and_overwritten(self, generator, oracle):
        ctl, ensemble = _pooled(
            generator,
            policy=RetryPolicy(max_retries=2, **FAST),
            faults=FaultPlan().corrupt(5, times=1),
        )
        assert ctl.retries_by_index == {5: 1}
        assert np.array_equal(ensemble.depth_view(), _depths(oracle))
        assert np.isfinite(ensemble.depth_view()).all()

    def test_crashed_row_is_retried_alone(self, generator, oracle):
        ctl, ensemble = _pooled(
            generator,
            policy=RetryPolicy(max_retries=2, **FAST),
            faults=FaultPlan().crash(4, times=2),
        )
        assert ctl.retries_by_index == {4: 2}
        assert np.array_equal(ensemble.depth_view(), _depths(oracle))

    def test_killed_worker_survives_on_the_pooled_path(self, generator, oracle):
        ctl, ensemble = _pooled(
            generator,
            policy=RetryPolicy(max_retries=3, **FAST),
            faults=FaultPlan().kill(3, times=1),
        )
        assert ctl.pool_rebuilds >= 1
        assert np.array_equal(ensemble.depth_view(), _depths(oracle))

    def test_hung_block_is_charged_and_rerun(self, generator, oracle):
        ctl, ensemble = _pooled(
            generator,
            policy=RetryPolicy(max_retries=1, task_timeout_s=1.0, **FAST),
            faults=FaultPlan().hang(2, times=1, hang_s=60.0),
        )
        # Two workers: blocks 0..5 and 6..11; the hung block's rows pay.
        assert ctl.retries_by_index == {i: 1 for i in range(6)}
        assert ctl.pool_rebuilds == 1
        assert np.array_equal(ensemble.depth_view(), _depths(oracle))

    def test_resume_from_shards_is_bit_identical(self, generator, oracle, tmp_path):
        names = generator.asset_order
        key = generator.cache_key(COUNT, SEED)

        def store():
            return CheckpointStore(
                tmp_path / "run", key, COUNT, SEED, "oahu", shard_size=4,
                asset_names=names,
            )

        # Index 11 never succeeds; its retries' backoff outlasts the
        # other block, which settles into the shards before the run dies.
        with pytest.raises(RetryExhaustedError):
            _pooled(
                generator,
                policy=RetryPolicy(max_retries=3, **FAST),
                faults=FaultPlan().crash(11, times=99),
                checkpoint=store(),
            )
        ctl = RunController(generator, COUNT, SEED, n_jobs=2, checkpoint=store())
        ensemble = ctl.run(resume=True)
        assert ctl.resumed_realizations == COUNT - 1
        assert np.array_equal(ensemble.depth_view(), _depths(oracle))
        assert [r.params for r in ensemble] == [r.params for r in oracle]


def _install_worker(monkeypatch, generator):
    """Stand up the worker globals of a pooled run in-process."""
    monkeypatch.setattr(controller_mod, "_WORKER_GENERATOR", generator)
    monkeypatch.setattr(controller_mod, "_WORKER_FAULTS", None)


def _run_block(generator, indices):
    params = generator.sample_all_parameters(COUNT, SEED)
    seqs = np.random.SeedSequence(SEED).spawn(COUNT)
    return controller_mod._run_block_task(
        indices,
        [0] * len(indices),
        [params[i] for i in indices],
        [seqs[i] for i in indices],
    )


class TestBlockWrite:
    """The worker-side block shape guard, exercised in-process."""

    def test_wrong_width_block_never_lands(self, monkeypatch, generator):
        _install_worker(monkeypatch, generator)
        monkeypatch.setattr(
            generator, "realize_block",
            lambda indices, params, rngs, timings=None: np.ones((len(indices), 2)),
        )
        # The task raises instead of returning rows the parent could write.
        with pytest.raises(CorruptResultError, match="shaped"):
            _run_block(generator, (1, 2))


class TestShardWrite:
    """What a block task hands back, exercised in-process."""

    def test_good_row_lands_and_returns_a_light_shard(
        self, monkeypatch, generator, oracle
    ):
        """The payload is the block's own (B x A) rows and nothing else."""
        _install_worker(monkeypatch, generator)
        outcome = _run_block(generator, (1,))
        assert isinstance(outcome, BlockOutcome)
        assert outcome.indices == (1,) and outcome.failures == {}
        assert outcome.depths.shape == (1, len(generator.asset_order))
        assert np.array_equal(outcome.depths[0], _depths(oracle)[1])

    def test_foreign_index_passes_through_unwritten(
        self, monkeypatch, generator, oracle
    ):
        _install_worker(monkeypatch, generator)
        outcome = _run_block(generator, (1, 2))
        # Exactly the block's rows, in block order: no row of another index.
        assert outcome.indices == (1, 2)
        assert np.array_equal(outcome.depths, _depths(oracle)[1:3])
