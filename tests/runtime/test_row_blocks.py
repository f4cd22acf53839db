"""Row blocks as the controller's unit of work, against the per-row oracle.

Every run here must reproduce, bit for bit, the depth matrix of an
unsupervised loop of one-row ``realize`` calls -- whatever the block
boundaries, worker count, retries or resume point -- and
charge retries per realization index: a faulted or corrupt row charges
only itself, a hung block charges each of its rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hazards.hurricane.ensemble import params_to_row
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.controller import BLOCK_ROWS, RetryPolicy, RunController, row_blocks
from repro.runtime.faults import FaultPlan

#: Two full blocks and a short third one.
COUNT = 2 * BLOCK_ROWS + 5
SEED = 4242
FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.02)


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def oracle(generator):
    """One-row ``realize`` calls, unsupervised and in index order."""
    params = generator.sample_all_parameters(COUNT, SEED)
    rngs = generator._realization_rngs(COUNT, SEED)
    return [generator.realize(i, p, rng) for i, (p, rng) in enumerate(zip(params, rngs))]


@pytest.fixture(scope="module")
def oracle_depths(generator, oracle):
    return np.array(
        [[r.inundation.depths_m[n] for n in generator.asset_order] for r in oracle]
    )


def assert_matches(ensemble, oracle, oracle_depths):
    assert np.array_equal(ensemble.depth_matrix(), oracle_depths)
    assert [r.params for r in ensemble] == [r.params for r in oracle]
    # The ensemble holds the run's matrix itself, with exactly the per-row bits.
    assert np.array_equal(ensemble.depth_view(), oracle_depths)
    assert ensemble.depth_view() is ensemble.depth_view()


class TestRowBlocks:
    def test_blocks_cover_in_order_and_cap_the_size(self):
        blocks = row_blocks(range(COUNT))
        assert [len(b) for b in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 5]
        assert [i for b in blocks for i in b] == list(range(COUNT))

    def test_blocks_shrink_to_feed_every_worker(self):
        assert [len(b) for b in row_blocks(range(10), n_jobs=3)] == [4, 4, 2]
        assert row_blocks([7], n_jobs=4) == [(7,)]
        assert row_blocks([]) == []


class TestBlockCounts:
    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_count_off_the_block_grid_matches_oracle(
        self, generator, oracle, oracle_depths, n_jobs
    ):
        ensemble = RunController(generator, COUNT, SEED, n_jobs=n_jobs).run()
        assert_matches(ensemble, oracle, oracle_depths)

    def test_transports_produce_the_same_bits(self, generator, oracle_depths):
        """Pooled ``generate()`` (the one transport) gives the oracle's bits."""
        ensemble = generator.generate(count=COUNT, seed=SEED, n_jobs=2)
        assert np.array_equal(ensemble.depth_view(), oracle_depths)


class TestResumeMidBlock:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_checkpoint_ending_mid_block(
        self, generator, oracle, oracle_depths, tmp_path, n_jobs
    ):
        key = generator.cache_key(COUNT, SEED)
        names = generator.asset_order
        store = CheckpointStore(
            tmp_path / "run", key, COUNT, SEED, "oahu", asset_names=names
        )
        done = BLOCK_ROWS + 10  # the second block is a third done
        params = np.array([params_to_row(r.params) for r in oracle])
        store.record(range(done), oracle_depths[:done], params[:done])
        store.flush()

        resumed = CheckpointStore(
            tmp_path / "run", key, COUNT, SEED, "oahu", asset_names=names
        )
        controller = RunController(
            generator, COUNT, SEED, n_jobs=n_jobs, checkpoint=resumed
        )
        ensemble = controller.run(resume=True)
        assert controller.resumed_realizations == done
        assert_matches(ensemble, oracle, oracle_depths)


class TestPerIndexCharges:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["crash", "corrupt"])
    def test_fault_on_block_edges_charges_only_its_row(
        self, generator, oracle, oracle_depths, n_jobs, kind
    ):
        first, last = BLOCK_ROWS, 2 * BLOCK_ROWS - 1  # edges of block two
        plan = FaultPlan()
        for index in (first, last):
            getattr(plan, kind)(index)
        controller = RunController(
            generator, COUNT, SEED, n_jobs=n_jobs,
            policy=RetryPolicy(max_retries=1, **FAST), faults=plan,
        )
        ensemble = controller.run()
        assert controller.retries_by_index == {first: 1, last: 1}
        assert_matches(ensemble, oracle, oracle_depths)

    def test_hung_block_charges_each_of_its_rows(self, generator, oracle):
        count = 16  # two workers: blocks 0..7 and 8..15
        plan = FaultPlan().hang(5, times=1, hang_s=60.0)
        controller = RunController(
            generator, count, SEED, n_jobs=2,
            policy=RetryPolicy(max_retries=1, task_timeout_s=1.0, **FAST),
            faults=plan,
        )
        ensemble = controller.run()
        assert controller.retries_by_index == {i: 1 for i in range(8)}
        assert controller.pool_rebuilds == 1
        expected = np.array(
            [
                [r.inundation.depths_m[n] for n in generator.asset_order]
                for r in oracle[:count]
            ]
        )
        assert np.array_equal(ensemble.depth_matrix(), expected)
