"""Unit tests for the fused batched kernels and executor selection.

The exhaustive comparisons here are the ground truth behind the batched
path's bitwise-identity claim: every reachable (flooded, isolated,
intrusions) site pattern is pushed through both the scalar and the
vectorized code, for every paper architecture.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.attacker import WorstCaseAttacker
from repro.core.chain import (
    ClassificationStage,
    CyberAttackStage,
    HazardImpactStage,
    NoOpStage,
    ThreatChain,
)
from repro.core.evaluator import evaluate, evaluate_batch
from repro.core.outcomes import OperationalProfile
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import STATE_ORDER
from repro.core.system_state import SiteStatus, SystemState
from repro.core.threat import PAPER_SCENARIOS, CyberAttackBudget
from repro.errors import AnalysisError, HazardError
from repro.hazards.fragility import LogisticFragility, ThresholdFragility
from repro.hazards.base import MatrixEnsemble
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_WAIAU
from tests.oracle import oracle_profile


def _site_patterns(architecture, max_intrusions=None):
    """Every reachable per-site (flooded, isolated, intrusions) grid."""
    per_site = []
    for spec in architecture.sites:
        cap = spec.replicas if max_intrusions is None else min(
            spec.replicas, max_intrusions
        )
        per_site.append(
            [
                (f, i, k)
                for f in (False, True)
                for i in (False, True)
                for k in range(cap + 1)
            ]
        )
    return list(itertools.product(*per_site))


def _arrays(patterns, n_sites):
    flooded = np.zeros((len(patterns), n_sites), dtype=bool)
    isolated = np.zeros((len(patterns), n_sites), dtype=bool)
    intrusions = np.zeros((len(patterns), n_sites), dtype=np.int64)
    for r, pattern in enumerate(patterns):
        for s, (f, i, k) in enumerate(pattern):
            flooded[r, s] = f
            isolated[r, s] = i
            intrusions[r, s] = k
    return flooded, isolated, intrusions


def _state(architecture, pattern):
    sites = tuple(
        SiteStatus(
            asset_name=f"site-{s}",
            spec=spec,
            flooded=f,
            isolated=i,
            intrusions=k,
        )
        for s, (spec, (f, i, k)) in enumerate(zip(architecture.sites, pattern))
    )
    return SystemState(architecture, sites)


@pytest.mark.parametrize(
    "architecture", PAPER_CONFIGURATIONS, ids=lambda a: a.name
)
def test_evaluate_batch_matches_scalar_exhaustively(architecture):
    patterns = _site_patterns(architecture)
    codes = evaluate_batch(
        architecture, *_arrays(patterns, len(architecture.sites))
    )
    for r, pattern in enumerate(patterns):
        expected = evaluate(_state(architecture, pattern))
        assert STATE_ORDER[int(codes[r])] is expected, pattern


@pytest.mark.parametrize(
    "architecture", PAPER_CONFIGURATIONS, ids=lambda a: a.name
)
@pytest.mark.parametrize(
    "budget",
    [s.budget for s in PAPER_SCENARIOS]
    + [CyberAttackBudget(intrusions=3, isolations=2)],
    ids=lambda b: f"i{b.intrusions}-l{b.isolations}",
)
def test_attack_batch_matches_scalar_exhaustively(architecture, budget):
    attacker = WorstCaseAttacker()
    # Cap enumerated pre-attack intrusions to keep the grid small; the
    # interesting transitions all live at low counts.
    patterns = _site_patterns(architecture, max_intrusions=2)
    flooded, isolated, intrusions = _arrays(patterns, len(architecture.sites))
    out_iso, out_intr = attacker.attack_batch(
        architecture, flooded, isolated, intrusions, budget
    )
    for r, pattern in enumerate(patterns):
        attacked = attacker.attack(_state(architecture, pattern), budget, None)
        for s, site in enumerate(attacked.sites):
            assert out_iso[r, s] == site.isolated, (pattern, s)
            assert out_intr[r, s] == site.intrusions, (pattern, s)


# ----------------------------------------------------------------------
# Executor selection and fallback
# ----------------------------------------------------------------------
def _tiny_ensemble(n=6, n_assets=4, seed=3):
    rng = np.random.default_rng(seed)
    names = [f"asset-{i}" for i in range(n_assets)]
    depths = rng.uniform(0.0, 1.2, size=(n, n_assets))
    return MatrixEnsemble(
        scenario_name="tiny", depths=depths, asset_names=names, seed=seed
    )


def _observed_run(analysis, *args):
    """Run one cell under a live observer; return (profile, observer)."""
    from repro.obs import Observability, activate

    obs = Observability()
    with activate(obs):
        profile = analysis.run(*args)
    return profile, obs


def _executor(obs) -> str:
    (root,) = obs.tracer.roots
    assert root.name == "analysis.run"
    return root.meta["executor"]


def test_stochastic_fragility_batches_bitwise_identically(small_ensemble):
    """LogisticFragility runs batched now, under the RNG-draw contract."""
    analysis = CompoundThreatAnalysis(
        small_ensemble, fragility=LogisticFragility(), seed=5
    )
    bctx = analysis._batch_context(
        PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0]
    )
    plan = analysis.chain.batch_plan(bctx)
    assert plan.ok
    # One draw per asset per realization, charged to the hazard stage.
    assert plan.stage_draws[0] == len(small_ensemble.asset_names)
    assert plan.total_draws == len(small_ensemble.asset_names)
    args = (PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0])
    profile, obs = _observed_run(analysis, *args)
    assert _executor(obs) == "batched"
    oracle = oracle_profile(
        small_ensemble, *args, fragility=LogisticFragility(), seed=5
    )
    assert profile.counts == oracle.counts


def test_fragility_without_contract_falls_back(small_ensemble):
    """A model that disclaims batch_sampling keeps the per-realization loop."""

    class LegacySampler(LogisticFragility):
        batch_sampling = False

    analysis = CompoundThreatAnalysis(
        small_ensemble, fragility=LegacySampler(), seed=5
    )
    args = (PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0])
    plan = analysis.chain.batch_plan(analysis._batch_context(*args))
    assert not plan.ok
    assert plan.stage == "fragility"
    assert "batch-sampling contract" in plan.reason
    profile, obs = _observed_run(analysis, *args)
    assert _executor(obs) == "per-realization"
    assert profile.total == len(small_ensemble)
    oracle = oracle_profile(
        small_ensemble, *args, fragility=LegacySampler(), seed=5
    )
    assert profile.counts == oracle.counts


def test_silent_fallback_emits_counter_and_reason(small_ensemble):
    """Per-realization fallbacks are observable: counter, reason, event."""

    class LegacySampler(LogisticFragility):
        batch_sampling = False

    analysis = CompoundThreatAnalysis(
        small_ensemble, fragility=LegacySampler(), seed=5
    )
    _, obs = _observed_run(
        analysis, PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0]
    )
    counters = obs.metrics.snapshot()["counters"]
    assert counters["batch.fallback"] == 1
    assert counters["batch.fallback.reason.stage.fragility"] == 1
    assert "pipeline.batched_runs" not in counters
    assert counters["pipeline.realizations"] == len(small_ensemble)
    events = [e for e in obs.events.to_list() if e["kind"] == "batch.fallback"]
    assert len(events) == 1
    assert "batch-sampling contract" in events[0]["reason"]
    # The fallback is timed per stage like the batched pass.
    (root,) = obs.tracer.roots
    assert [c.name for c in root.children] == [
        "pipeline.stage.fragility",
        "pipeline.stage.cyberattack",
        "pipeline.stage.classification",
    ]


def test_custom_stage_without_batch_support_falls_back(small_ensemble):
    class TracingStage:
        name = "tracing"
        deterministic = True

        def apply(self, state, ctx, rng):
            return state

    chain = ThreatChain(
        name="custom-tracing",
        stages=(HazardImpactStage(), TracingStage(), ClassificationStage()),
    )
    analysis = CompoundThreatAnalysis(small_ensemble, chain=chain)
    args = (PAPER_CONFIGURATIONS[1], PLACEMENT_WAIAU, PAPER_SCENARIOS[1])
    plan = analysis.chain.batch_plan(analysis._batch_context(*args))
    assert not plan.ok and plan.stage == "tracing"
    profile, obs = _observed_run(analysis, *args)
    assert _executor(obs) == "per-realization"
    counters = obs.metrics.snapshot()["counters"]
    assert counters["batch.fallback.reason.stage.tracing"] == 1
    assert profile.counts == oracle_profile(small_ensemble, *args, chain=chain).counts


def test_stage_with_apply_batch_and_no_batch_support_batches_draw_free():
    """``batch_support`` is optional; a ``supports_batch`` is never read."""

    class PassThroughStage:
        name = "pass-through"
        deterministic = True

        def apply(self, state, ctx, rng):
            return state

        def apply_batch(self, batch, ctx, rng):
            return batch

        def supports_batch(self, ctx):  # ignored since 2.0.0
            return False

    ensemble = _tiny_ensemble()
    chain = ThreatChain(
        name="custom-pass-through",
        stages=(HazardImpactStage(), PassThroughStage(), ClassificationStage()),
    )
    analysis = CompoundThreatAnalysis(ensemble, chain=chain)
    args = (PAPER_CONFIGURATIONS[1], PLACEMENT_WAIAU, PAPER_SCENARIOS[1])
    plan = analysis.chain.batch_plan(analysis._batch_context(*args))
    assert plan.ok and plan.stage_draws == (0, 0, 0)
    profile, obs = _observed_run(analysis, *args)
    assert _executor(obs) == "batched"
    assert profile.counts == oracle_profile(ensemble, *args, chain=chain).counts


def test_ensemble_without_depth_grid_falls_back():
    class ListEnsemble:
        """Realizations only -- no depth grid to batch over."""

        def __init__(self, inner):
            self._inner = inner

        def __len__(self):
            return len(self._inner)

        def __iter__(self):
            return iter(self._inner)

        def __getitem__(self, index):
            return self._inner[index]

    inner = _tiny_ensemble()
    wrapped = CompoundThreatAnalysis(ListEnsemble(inner))
    args = (PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[3])
    assert wrapped._batch_context(*args) is None
    profile, obs = _observed_run(wrapped, *args)
    assert _executor(obs) == "per-realization"
    counters = obs.metrics.snapshot()["counters"]
    assert counters["batch.fallback.reason.no_depth_grid"] == 1
    (event,) = [e for e in obs.events.to_list() if e["kind"] == "batch.fallback"]
    assert "depth grid" in event["reason"]
    direct = CompoundThreatAnalysis(inner)
    assert profile.counts == direct.run(*args).counts
    assert profile.counts == oracle_profile(inner, *args).counts


def test_noop_chain_classifies_base_state_on_both_paths():
    ensemble = _tiny_ensemble()
    chain = ThreatChain(name="custom-noop", stages=(NoOpStage(),))
    args = (PAPER_CONFIGURATIONS[2], PLACEMENT_WAIAU, PAPER_SCENARIOS[0])
    batched, obs = _observed_run(
        CompoundThreatAnalysis(ensemble, chain=chain), *args
    )
    assert _executor(obs) == "batched"
    assert batched.counts == oracle_profile(ensemble, *args, chain=chain).counts


def test_batched_matrix_shares_one_failure_matrix_across_cells():
    calls = 0

    class CountingThreshold(ThresholdFragility):
        def failure_matrix(self, depths):
            nonlocal calls
            calls += 1
            return super().failure_matrix(depths)

    ensemble = _tiny_ensemble()
    analysis = CompoundThreatAnalysis(ensemble, fragility=CountingThreshold())
    analysis.run_matrix(
        list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS)
    )
    assert calls == 1


def test_attack_stage_with_explicit_attacker_batches():
    ensemble = _tiny_ensemble()
    chain = ThreatChain(
        name="custom-explicit-attacker",
        stages=(
            HazardImpactStage(),
            CyberAttackStage(attacker=WorstCaseAttacker()),
            ClassificationStage(),
        ),
    )
    args = (PAPER_CONFIGURATIONS[4], PLACEMENT_WAIAU, PAPER_SCENARIOS[3])
    batched, obs = _observed_run(
        CompoundThreatAnalysis(ensemble, chain=chain), *args
    )
    assert _executor(obs) == "batched"
    assert batched.counts == oracle_profile(ensemble, *args, chain=chain).counts


# ----------------------------------------------------------------------
# Supporting kernels
# ----------------------------------------------------------------------
def test_from_state_codes_rejects_out_of_range():
    with pytest.raises(AnalysisError, match="state code"):
        OperationalProfile.from_state_codes(np.array([0, 1, 7]))


def test_from_state_codes_counts():
    profile = OperationalProfile.from_state_codes(np.array([0, 0, 2, 3]))
    assert profile.count(STATE_ORDER[0]) == 2
    assert profile.count(STATE_ORDER[2]) == 1
    assert profile.count(STATE_ORDER[3]) == 1


def test_failure_matrix_requires_rng_for_probabilistic_models():
    depths = np.array([[0.5, 0.6]])
    with pytest.raises(HazardError, match="rng"):
        LogisticFragility().failure_matrix(depths)
    # Threshold stays a pure comparison.
    mask = ThresholdFragility(threshold_m=0.55).failure_matrix(depths)
    assert mask.tolist() == [[False, True]]
