"""The in-place shared-memory generation transport.

Pooled runs default to workers writing each row block's depths straight
into a parent-owned :class:`DepthShardBoard` and returning only a light
:class:`BlockOutcome`.  These tests pin the transport's guarantees:
bitwise identity with both the pickled baseline and the inline oracle,
the primed depth-matrix cache, the in-worker shape guard, and
fault-tolerance parity (a corrupt row is caught by the same validation
path and overwritten by the retry).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CorruptResultError, RuntimeControlError
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.io.shared_ensemble import DepthShardBoard
from repro.runtime import controller as controller_mod
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


class TestTransportSelection:
    def test_unknown_transport_rejected(self, generator):
        with pytest.raises(RuntimeControlError, match="transport"):
            RunController(generator, COUNT, SEED, transport="carrier-pigeon")

    def test_plan_sampled_generator_runs_inplace(self, generator):
        """Plan-sampled generation keeps the in-place transport: forced, it
        runs instead of refusing; under ``auto`` it no longer falls back
        to pickling (which would leave the depth cache lazy)."""
        sampled = PlanSampledGenerator(generator, resolve_sampling("stratified"))
        assert sampled.asset_order == generator.asset_order
        inline = RunController(sampled, COUNT, SEED, n_jobs=1).run()
        for transport in ("inplace", "auto"):
            pooled = RunController(
                sampled, COUNT, SEED, n_jobs=2, transport=transport
            ).run()
            assert hasattr(pooled, "_depth_cache")
            assert np.array_equal(pooled.depth_matrix(), inline.depth_matrix())


class TestBitwiseIdentity:
    def test_inplace_pickle_and_inline_agree(self, generator, oracle):
        inline = RunController(generator, COUNT, SEED, n_jobs=1).run()
        inplace = RunController(
            generator, COUNT, SEED, n_jobs=3, transport="inplace"
        ).run()
        pickled = RunController(
            generator, COUNT, SEED, n_jobs=3, transport="pickle"
        ).run()
        reference = _depths(oracle)
        for ensemble in (inline, inplace, pickled):
            assert np.array_equal(ensemble.depth_matrix(), reference)
        assert [r.params for r in inplace] == [r.params for r in pickled]
        assert [r.index for r in inplace] == list(range(COUNT))

    def test_inplace_primes_the_depth_cache(self, generator, oracle):
        ensemble = RunController(
            generator, COUNT, SEED, n_jobs=2, transport="inplace"
        ).run()
        assert hasattr(ensemble, "_depth_cache")
        primed, columns = ensemble._depth_cache
        assert np.array_equal(primed, _depths(oracle))
        assert list(columns) == list(generator.asset_order)
        # The cache must be a private copy: the segment is gone by now.
        assert primed.base is None or primed.flags.owndata

    def test_pickled_transport_stays_lazy(self, generator):
        ensemble = RunController(
            generator, COUNT, SEED, n_jobs=2, transport="pickle"
        ).run()
        assert not hasattr(ensemble, "_depth_cache")


class TestFaultParity:
    def test_corrupt_row_is_caught_and_overwritten(self, generator, oracle):
        plan = FaultPlan().corrupt(5, times=1)
        ctl = RunController(
            generator, COUNT, SEED, n_jobs=2, transport="inplace",
            policy=RetryPolicy(max_retries=2, **FAST), faults=plan,
        )
        ensemble = ctl.run()
        assert ctl.retries_by_index[5] == 1
        assert np.array_equal(ensemble.depth_matrix(), _depths(oracle))
        assert np.isfinite(ensemble._depth_cache[0]).all()

    def test_killed_worker_survives_on_inplace_transport(self, generator, oracle):
        plan = FaultPlan().kill(3, times=1)
        ctl = RunController(
            generator, COUNT, SEED, n_jobs=2, transport="inplace",
            policy=RetryPolicy(max_retries=3, **FAST), faults=plan,
        )
        ensemble = ctl.run()
        assert ctl.pool_rebuilds >= 1
        assert np.array_equal(ensemble.depth_matrix(), _depths(oracle))


def _install_board(monkeypatch, generator):
    """Stand up the worker globals of a pooled in-place run in-process."""
    board = DepthShardBoard.create(4, tuple(generator.asset_order))
    monkeypatch.setattr(controller_mod, "_WORKER_BOARD", board)
    monkeypatch.setattr(controller_mod, "_WORKER_GENERATOR", generator)
    monkeypatch.setattr(controller_mod, "_WORKER_FAULTS", None)
    return board


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
        board = _install_board(monkeypatch, generator)
        monkeypatch.setattr(
            generator, "realize_block",
            lambda indices, params, rngs, timings=None: np.ones((len(indices), 2)),
        )
        try:
            with pytest.raises(CorruptResultError, match="shaped"):
                _run_block(generator, (1, 2))
            assert not board.view.any()  # nothing landed on the board
        finally:
            board.close()
            board.unlink()


class TestShardWrite:
    """A block task's writes onto the board, exercised in-process."""

    def test_good_row_lands_and_returns_a_light_shard(
        self, monkeypatch, generator, oracle
    ):
        board = _install_board(monkeypatch, generator)
        try:
            outcome = _run_block(generator, (1,))
            assert isinstance(outcome, BlockOutcome)
            assert outcome.indices == (1,) and outcome.failures == {}
            # The depths travel through the board, not the payload.
            assert outcome.depths is None and outcome.realizations is None
            assert np.array_equal(board.view[1], _depths(oracle)[1])
        finally:
            board.close()
            board.unlink()

    def test_foreign_index_passes_through_unwritten(
        self, monkeypatch, generator, oracle
    ):
        board = _install_board(monkeypatch, generator)
        try:
            _run_block(generator, (1, 2))
            assert np.array_equal(board.view[1:3], _depths(oracle)[1:3])
            # Rows of indices outside the block are never touched.
            assert not board.view[0].any() and not board.view[3].any()
        finally:
            board.close()
            board.unlink()


class TestBoardRoundTrip:
    def test_attach_sees_owner_writes_and_vice_versa(self):
        board = DepthShardBoard.create(3, ("x", "y"))
        try:
            attached = DepthShardBoard.attach(board.descriptor)
            attached.view[2, :] = (1.5, 2.5)
            assert board.view[2].tolist() == [1.5, 2.5]
            snap = board.snapshot()
            attached.view[2, 0] = 9.0
            assert snap[2, 0] == 1.5  # snapshot is a private copy
            attached.close()
        finally:
            board.close()
            board.unlink()
