"""Property tests pinning the stochastic RNG-draw contract.

PR 10 extends the batched executor to stochastic stages under one
contract: a non-deterministic stage consumes a *fixed number of uniform
draws per realization, in realization-major order* -- so the executor's
single ``rng.random((n, K))`` block (C-contiguous, one row per
realization, column-sliced per stage in chain order) replays exactly the
scalar loop's stream.  Hypothesis drives LogisticFragility chains and
the randomized ProbabilisticAttacker across seeds, realization counts,
steepnesses, and budgets, demanding *bitwise* identity with the
per-realization oracle; the regression tests at the bottom pin each
piece of the contract (draw shape, draw order, stream advancement)
against hand-replayed generators, so a refactor that silently reorders
or resizes draws fails here before it reaches an ensemble.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attacker import ProbabilisticAttacker
from repro.core.chain import available_chains, get_chain
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import STATE_ORDER
from repro.core.threat import CyberAttackBudget, ThreatScenario
from repro.geo import build_oahu_catalog
from repro.hazards.fragility import LogisticFragility
from repro.hazards.base import MatrixEnsemble
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_KAHE, PLACEMENT_WAIAU
from tests.oracle import oracle_profile, oracle_states

CATALOG_NAMES = build_oahu_catalog().names
PLACEMENTS = {"waiau": PLACEMENT_WAIAU, "kahe": PLACEMENT_KAHE}
#: Every registered chain: each inherits the analysis-level fragility
#: model and attacker, so each runs the stochastic lane.
CHAINS = tuple(available_chains())


def _ensemble(depth_seed: int, n_realizations: int) -> MatrixEnsemble:
    rng = np.random.default_rng(depth_seed)
    depths = rng.uniform(0.0, 1.4, size=(n_realizations, len(CATALOG_NAMES)))
    return MatrixEnsemble(
        scenario_name="rng-contract",
        depths=depths,
        asset_names=list(CATALOG_NAMES),
        seed=0,
    )


@settings(max_examples=25, deadline=None)
@given(
    depth_seed=st.integers(min_value=0, max_value=2**31),
    n_realizations=st.integers(min_value=1, max_value=40),
    analysis_seed=st.integers(min_value=0, max_value=2**31),
    steepness=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    p_intrusion=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    p_isolation=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    intrusions=st.integers(min_value=0, max_value=6),
    isolations=st.integers(min_value=0, max_value=4),
    chain_name=st.sampled_from(CHAINS),
    placement_name=st.sampled_from(sorted(PLACEMENTS)),
    arch_index=st.integers(min_value=0, max_value=len(PAPER_CONFIGURATIONS) - 1),
)
def test_stochastic_batched_equals_per_realization(
    depth_seed,
    n_realizations,
    analysis_seed,
    steepness,
    p_intrusion,
    p_isolation,
    intrusions,
    isolations,
    chain_name,
    placement_name,
    arch_index,
):
    """LogisticFragility + ProbabilisticAttacker: batch == scalar, bitwise."""
    ensemble = _ensemble(depth_seed, n_realizations)
    scenario = ThreatScenario(
        name="stochastic-property",
        budget=CyberAttackBudget(intrusions=intrusions, isolations=isolations),
    )
    kwargs = dict(
        fragility=LogisticFragility(steepness_per_m=steepness),
        attacker=ProbabilisticAttacker(
            p_intrusion=p_intrusion, p_isolation=p_isolation
        ),
        seed=analysis_seed,
        chain=get_chain(chain_name),
    )
    analysis = CompoundThreatAnalysis(ensemble, **kwargs)
    args = (
        PAPER_CONFIGURATIONS[arch_index],
        PLACEMENTS[placement_name],
        scenario,
    )
    assert analysis.chain.batch_plan(analysis._batch_context(*args)).ok
    oracle = oracle_profile(ensemble, *args, **kwargs)
    assert analysis.run(*args).counts == oracle.counts


@settings(max_examples=20, deadline=None)
@given(
    depth_seed=st.integers(min_value=0, max_value=2**31),
    n_realizations=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31),
    steepness=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
)
def test_batched_codes_replay_the_scalar_stream(
    depth_seed, n_realizations, seed, steepness
):
    """Per-realization severity codes match under an explicit shared rng."""
    ensemble = _ensemble(depth_seed, n_realizations)
    analysis = CompoundThreatAnalysis(
        ensemble,
        fragility=LogisticFragility(steepness_per_m=steepness),
        attacker=ProbabilisticAttacker(p_intrusion=0.5, p_isolation=0.5),
        chain=get_chain("grid-coupled"),
    )
    architecture = PAPER_CONFIGURATIONS[1]
    scenario = ThreatScenario(
        name="codes", budget=CyberAttackBudget(intrusions=3, isolations=2)
    )
    bctx = analysis._batch_context(architecture, PLACEMENT_WAIAU, scenario)
    plan = analysis.chain.batch_plan(bctx)
    assert plan.ok and plan.total_draws > 0
    codes = analysis.chain.run_batch(bctx, np.random.default_rng(seed), plan)
    expected = oracle_states(
        ensemble,
        architecture,
        PLACEMENT_WAIAU,
        scenario,
        chain=analysis.chain,
        fragility=analysis.fragility,
        attacker=analysis.attacker,
        seed=seed,
    )
    assert [STATE_ORDER[int(c)] for c in codes] == expected


def test_identity_holds_across_generation_worker_counts(tmp_path):
    """One stochastic analysis, three worker counts, one answer.

    Worker count is a pure scheduling knob: the generated ensembles are
    bit-identical (spawned per-realization rngs), so the stochastic
    batched analysis -- seeded per cell -- must agree bit for bit too.
    """
    from repro.hazards.hurricane.standard import standard_oahu_generator

    generator = standard_oahu_generator()
    profiles = []
    for n_jobs in (1, 2, 3):
        ensemble = generator.generate(count=10, seed=424, n_jobs=n_jobs)
        analysis = CompoundThreatAnalysis(
            ensemble,
            fragility=LogisticFragility(steepness_per_m=4.0),
            attacker=ProbabilisticAttacker(p_intrusion=0.6, p_isolation=0.7),
            seed=11,
        )
        profiles.append(
            analysis.run(
                PAPER_CONFIGURATIONS[0],
                PLACEMENT_WAIAU,
                ThreatScenario(
                    name="workers",
                    budget=CyberAttackBudget(intrusions=2, isolations=2),
                ),
            )
        )
    assert profiles[0].counts == profiles[1].counts == profiles[2].counts


# ----------------------------------------------------------------------
# Draw-order regression: the contract itself, pinned
# ----------------------------------------------------------------------
def test_block_draw_equals_row_major_scalar_draws():
    """The contract's foundation: one (n, K) block == n scalar K-draws.

    The executor draws ``rng.random((n, K))`` once; the scalar loop
    draws ``rng.random(K)`` n times.  PCG64 fills C-contiguous output in
    row-major order, so the two consume the identical stream -- if this
    ever changes (dtype, layout, generator), every stochastic batch
    result changes with it, and this test names the culprit directly.
    """
    block = np.random.default_rng(99).random((7, 5))
    scalar = np.random.default_rng(99)
    for row in block:
        assert np.array_equal(row, scalar.random(5))


def test_fragility_consumes_one_vector_draw_in_mapping_order():
    """failed_assets: exactly len(depths) uniforms, asset i <- draw i."""
    model = LogisticFragility(steepness_per_m=3.0)
    depths = {"a": 0.4, "b": 0.55, "c": 0.7, "d": 0.2}
    rng = np.random.default_rng(5)
    failed = model.failed_assets(depths, rng)
    replay = np.random.default_rng(5)
    draws = replay.random(len(depths))
    expected = frozenset(
        name
        for (name, depth), u in zip(depths.items(), draws)
        if u < model.failure_probability(depth)
    )
    assert failed == expected
    # Both generators sit at the same stream position afterwards.
    assert rng.bit_generator.state == replay.bit_generator.state


def test_attacker_consumes_intrusions_then_isolations():
    """sample_budget: one intrusion block then one isolation block."""
    attacker = ProbabilisticAttacker(p_intrusion=0.5, p_isolation=0.5)
    budget = CyberAttackBudget(intrusions=4, isolations=3)
    assert attacker.batch_draws(budget) == 7
    rng = np.random.default_rng(21)
    realized = attacker.sample_budget(budget, rng)
    replay = np.random.default_rng(21)
    intr = replay.random(budget.intrusions)
    iso = replay.random(budget.isolations)
    assert realized.intrusions == int(np.sum(intr < 0.5))
    assert realized.isolations == int(np.sum(iso < 0.5))
    assert rng.bit_generator.state == replay.bit_generator.state


def test_draw_blocks_slice_one_block_in_chain_order(small_ensemble):
    """The executor's per-stage blocks are column slices of one draw."""
    analysis = CompoundThreatAnalysis(
        small_ensemble,
        fragility=LogisticFragility(),
        attacker=ProbabilisticAttacker(p_intrusion=0.5, p_isolation=0.5),
    )
    scenario = ThreatScenario(
        name="slices", budget=CyberAttackBudget(intrusions=2, isolations=1)
    )
    bctx = analysis._batch_context(
        PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, scenario
    )
    plan = analysis.chain.batch_plan(bctx)
    assert plan.ok
    n_assets = len(small_ensemble.asset_names)
    assert plan.stage_draws == (n_assets, 3, 0)
    assert plan.total_draws == n_assets + 3
    n = len(small_ensemble)
    blocks = plan.draw_blocks(n, np.random.default_rng(17))
    flat = np.random.default_rng(17).random((n, plan.total_draws))
    assert np.array_equal(blocks[0], flat[:, :n_assets])
    assert np.array_equal(blocks[1], flat[:, n_assets:])
    assert blocks[2] is None


def test_zero_draw_plan_never_touches_the_rng():
    """Deterministic chains must keep the historical no-rng behavior."""
    from repro.core.batch import ChainBatchPlan

    plan = ChainBatchPlan(ok=True, stage_draws=(0, 0, 0))
    assert plan.total_draws == 0
    assert plan.draw_blocks(5, None) == (None, None, None)
    with pytest.raises(Exception, match="rng"):
        ChainBatchPlan(ok=True, stage_draws=(2, 0)).draw_blocks(5, None)
