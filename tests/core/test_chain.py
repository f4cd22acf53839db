"""The composable threat chain: executor, registry, built-in stages."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attacker import WorstCaseAttacker
from repro.core.chain import (
    CHAIN_GRID_COUPLED,
    CHAIN_PAPER,
    ChainContext,
    ClassificationStage,
    CyberAttackStage,
    HazardImpactStage,
    InterdependencyStage,
    NoOpStage,
    Stage,
    ThreatChain,
    available_chains,
    get_chain,
    register_chain,
    resolve_chain,
)
from repro.core.evaluator import evaluate
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState as S
from repro.core.system_state import initial_state
from repro.core.threat import PAPER_SCENARIOS
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.geo import DRFORTRESS, HONOLULU_CC, WAIAU_CC
from repro.hazards.fragility import ThresholdFragility
from repro.hazards.hurricane.ensemble import (
    HurricaneEnsemble,
    HurricaneRealization,
    StormParameters,
)
from repro.hazards.hurricane.inundation import InundationField
from repro.scada.architectures import PAPER_CONFIGURATIONS, get_architecture
from repro.scada.placement import PLACEMENT_WAIAU

PARAMS = StormParameters(
    landfall=GeoPoint(21.3, -158.0), heading_deg=335.0,
    central_pressure_mb=972.0, rmw_km=30.0, forward_speed_kmh=18.0,
    track_offset_km=0.0,
)

#: The four substations that power the WAN's points of presence.
POP_SUBSTATIONS = (
    "Iwilei Substation",
    "Ewa Nui Substation",
    "Wahiawa Substation",
    "Kaneohe Substation",
)


def realization(index: int, flooded: set[str]) -> HurricaneRealization:
    depths = {
        name: (1.0 if name in flooded else 0.0)
        for name in (HONOLULU_CC, WAIAU_CC, DRFORTRESS, *POP_SUBSTATIONS)
    }
    return HurricaneRealization(index, PARAMS, InundationField(depths))


def toy_ensemble() -> HurricaneEnsemble:
    """10 realizations: 8 calm, 1 flooding both CCs, 1 flooding one CC."""
    reals = [realization(i, set()) for i in range(8)]
    reals.append(realization(8, {HONOLULU_CC}))
    reals.append(realization(9, {HONOLULU_CC, WAIAU_CC}))
    return HurricaneEnsemble.from_realizations("toy", reals)


class TestRegistry:
    def test_presets_are_registered(self):
        assert {"paper", "grid-coupled", "earthquake"} <= set(available_chains())

    def test_get_chain_returns_the_registered_object(self):
        assert get_chain("paper") is CHAIN_PAPER
        assert get_chain("grid-coupled") is CHAIN_GRID_COUPLED

    def test_unknown_chain_lists_the_registered_names(self):
        with pytest.raises(ConfigurationError, match="paper"):
            get_chain("no-such-chain")

    def test_duplicate_registration_requires_replace(self):
        chain = ThreatChain("paper", (NoOpStage(),))
        with pytest.raises(ConfigurationError, match="already registered"):
            register_chain(chain)
        try:
            register_chain(chain, replace=True)
            assert get_chain("paper") is chain
        finally:
            register_chain(CHAIN_PAPER, replace=True)

    def test_resolve_chain(self):
        assert resolve_chain(None) is CHAIN_PAPER
        assert resolve_chain("grid-coupled") is CHAIN_GRID_COUPLED
        custom = ThreatChain("custom", (NoOpStage(),))
        assert resolve_chain(custom) is custom
        with pytest.raises(ConfigurationError, match="ThreatChain"):
            resolve_chain(42)


class TestChainValidation:
    def test_empty_chain_is_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one stage"):
            ThreatChain("empty", ())

    def test_non_stage_is_rejected(self):
        with pytest.raises(ConfigurationError, match="Stage protocol"):
            ThreatChain("bad", (object(),))

    def test_builtin_stages_satisfy_the_protocol(self):
        for stage in (*CHAIN_PAPER.stages, InterdependencyStage(), NoOpStage()):
            assert isinstance(stage, Stage)


class _StochasticStage:
    name = "coinflip"
    deterministic = False

    def apply(self, state, ctx, rng):
        return state if state is not None else ctx.base_state()


class TestIntrospection:
    def test_stage_names_and_spec(self):
        assert CHAIN_PAPER.stage_names() == (
            "fragility", "cyberattack", "classification",
        )
        spec = CHAIN_GRID_COUPLED.spec()
        assert spec["name"] == "grid-coupled"
        assert [s["name"] for s in spec["stages"]] == [
            "fragility", "interdependency", "cyberattack", "classification",
        ]
        assert all(s["deterministic"] for s in spec["stages"])

    def test_spec_records_each_stage_deterministic_flag(self):
        chain = ThreatChain(
            "mixed",
            (HazardImpactStage(), _StochasticStage(), ClassificationStage()),
        )
        assert [s["deterministic"] for s in chain.spec()["stages"]] == [
            True, False, True,
        ]


class TestPaperChainEquivalence:
    def test_outcomes_match_a_hand_rolled_loop(self):
        ensemble = toy_ensemble()
        arch = get_architecture("6+6+6")
        scenario = PAPER_SCENARIOS[-1]  # hurricane+intrusion+isolation
        analysis = CompoundThreatAnalysis(ensemble)
        fragility = ThresholdFragility()
        attacker = WorstCaseAttacker()
        for r in ensemble:
            outcome = analysis.outcome(arch, PLACEMENT_WAIAU, r, scenario)
            failed = r.failed_assets(fragility, None)
            post_disaster = initial_state(arch, PLACEMENT_WAIAU, failed)
            post_attack = attacker.attack(post_disaster, scenario.budget, None)
            assert outcome.realization_index == r.index
            assert outcome.post_disaster == post_disaster
            assert outcome.post_attack == post_attack
            assert outcome.state == evaluate(post_attack)

    def test_classification_fallback_without_a_classification_stage(self):
        ensemble = toy_ensemble()
        truncated = ThreatChain(
            "truncated", (HazardImpactStage(), CyberAttackStage())
        )
        full = CompoundThreatAnalysis(ensemble)
        bare = CompoundThreatAnalysis(ensemble, chain=truncated)
        arch = get_architecture("2")
        for scenario in PAPER_SCENARIOS:
            a = full.run(arch, PLACEMENT_WAIAU, scenario)
            b = bare.run(arch, PLACEMENT_WAIAU, scenario)
            for state in S:
                assert a.count(state) == b.count(state)


class TestNoOpInsertionProperty:
    """Inserting an identity stage anywhere changes no outcome."""

    @settings(max_examples=25, deadline=None)
    @given(
        position=st.integers(min_value=0, max_value=3),
        scenario_i=st.integers(min_value=0, max_value=len(PAPER_SCENARIOS) - 1),
        arch_i=st.integers(min_value=0, max_value=len(PAPER_CONFIGURATIONS) - 1),
    )
    def test_noop_insertion_preserves_every_outcome(
        self, position, scenario_i, arch_i
    ):
        ensemble = toy_ensemble()
        stages = list(CHAIN_PAPER.stages)
        stages.insert(position, NoOpStage())
        padded = ThreatChain("padded", tuple(stages))
        baseline = CompoundThreatAnalysis(ensemble)
        extended = CompoundThreatAnalysis(ensemble, chain=padded)
        arch = PAPER_CONFIGURATIONS[arch_i]
        scenario = PAPER_SCENARIOS[scenario_i]
        for r in ensemble:
            a = baseline.outcome(arch, PLACEMENT_WAIAU, r, scenario)
            b = extended.outcome(arch, PLACEMENT_WAIAU, r, scenario)
            assert a == b


class TestInterdependencyStage:
    def _context(self, arch="6+6+6"):
        architecture = get_architecture(arch)
        return ChainContext(
            architecture, PLACEMENT_WAIAU, PAPER_SCENARIOS[0]
        )

    def test_no_damage_leaves_state_untouched(self):
        stage = InterdependencyStage()
        ctx = self._context()
        ctx.extras["failed_assets"] = frozenset()
        state = stage.apply(ctx.base_state(), ctx, None)
        assert not any(s.isolated for s in state.sites)
        summary = ctx.extras["interdependency"]
        assert summary["scada_operational"] is True
        assert summary["dead_pops"] == ()
        assert summary["served_fraction"] == pytest.approx(1.0)

    def test_killing_every_pop_substation_isolates_the_sites(self):
        stage = InterdependencyStage()
        ctx = self._context()
        ctx.extras["failed_assets"] = frozenset(POP_SUBSTATIONS)
        state = stage.apply(ctx.base_state(), ctx, None)
        summary = ctx.extras["interdependency"]
        assert set(summary["dead_pops"]) == {
            "pop-honolulu", "pop-kapolei", "pop-wahiawa", "pop-kaneohe",
        }
        assert summary["scada_operational"] is False
        # With every PoP dark the WAN has no multi-site group left, so
        # sites outside the largest surviving group become isolated.
        assert any(s.isolated for s in state.sites)

    def test_coupling_is_memoized_per_damage_pattern(self):
        stage = InterdependencyStage()
        ctx = self._context()
        for _ in range(3):
            ctx.extras.clear()
            ctx.extras["failed_assets"] = frozenset(POP_SUBSTATIONS[:1])
            stage.apply(ctx.base_state(), ctx, None)
        assert len(stage._coupling_cache) == 1

    def test_non_bus_asset_names_are_ignored(self):
        stage = InterdependencyStage()
        ctx = self._context()
        ctx.extras["failed_assets"] = frozenset({HONOLULU_CC})
        state = stage.apply(ctx.base_state(), ctx, None)
        assert ctx.extras["interdependency"]["out_buses"] == ()
        assert not any(s.isolated for s in state.sites)


class TestGridCoupledChain:
    def test_toy_ensemble_runs_end_to_end(self):
        analysis = CompoundThreatAnalysis(
            toy_ensemble(), chain="grid-coupled"
        )
        arch = get_architecture("2")
        profile = analysis.run(arch, PLACEMENT_WAIAU, PAPER_SCENARIOS[0])
        assert sum(profile.count(s) for s in S) == 10
