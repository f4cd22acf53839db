"""Tests for the analysis pipeline on hand-built ensembles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attacker import ProbabilisticAttacker
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState as S
from repro.core.threat import (
    HURRICANE,
    HURRICANE_INTRUSION,
    HURRICANE_INTRUSION_ISOLATION,
    HURRICANE_ISOLATION,
    PAPER_SCENARIOS,
)
from repro.geo.coords import GeoPoint
from repro.geo import DRFORTRESS, HONOLULU_CC, WAIAU_CC
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


def realization(index: int, flooded: set[str]) -> HurricaneRealization:
    depths = {
        name: (1.0 if name in flooded else 0.0)
        for name in (HONOLULU_CC, WAIAU_CC, DRFORTRESS)
    }
    return HurricaneRealization(index, PARAMS, InundationField(depths))


def toy_ensemble() -> HurricaneEnsemble:
    """10 realizations: 9 calm, 1 flooding both control centers."""
    reals = [realization(i, set()) for i in range(9)]
    reals.append(realization(9, {HONOLULU_CC, WAIAU_CC}))
    return HurricaneEnsemble.from_realizations("toy", reals)


class TestPipelineOnToyEnsemble:
    def test_hurricane_scenario(self):
        analysis = CompoundThreatAnalysis(toy_ensemble())
        for arch in PAPER_CONFIGURATIONS:
            p = analysis.run(arch, PLACEMENT_WAIAU, HURRICANE)
            assert p.probability(S.GREEN) == 0.9
            assert p.probability(S.RED) == 0.1

    def test_intrusion_scenario_splits_families(self):
        analysis = CompoundThreatAnalysis(toy_ensemble())
        weak = analysis.run(get_architecture("2"), PLACEMENT_WAIAU, HURRICANE_INTRUSION)
        assert weak.probability(S.GRAY) == 0.9
        assert weak.probability(S.RED) == 0.1
        strong = analysis.run(get_architecture("6"), PLACEMENT_WAIAU, HURRICANE_INTRUSION)
        assert strong.probability(S.GREEN) == 0.9

    def test_isolation_scenario(self):
        analysis = CompoundThreatAnalysis(toy_ensemble())
        single = analysis.run(get_architecture("6"), PLACEMENT_WAIAU, HURRICANE_ISOLATION)
        assert single.probability(S.RED) == 1.0
        pb = analysis.run(get_architecture("6-6"), PLACEMENT_WAIAU, HURRICANE_ISOLATION)
        assert pb.probability(S.ORANGE) == 0.9
        multi = analysis.run(get_architecture("6+6+6"), PLACEMENT_WAIAU, HURRICANE_ISOLATION)
        assert multi.probability(S.GREEN) == 0.9

    def test_full_compound_scenario(self):
        analysis = CompoundThreatAnalysis(toy_ensemble())
        best = analysis.run(
            get_architecture("6+6+6"), PLACEMENT_WAIAU, HURRICANE_INTRUSION_ISOLATION
        )
        assert best.probability(S.GREEN) == 0.9
        assert best.probability(S.RED) == 0.1

    def test_outcome_trace(self):
        analysis = CompoundThreatAnalysis(toy_ensemble())
        outcome = analysis.outcome(
            get_architecture("6-6"),
            PLACEMENT_WAIAU,
            toy_ensemble()[9],
            HURRICANE_INTRUSION,
        )
        assert outcome.realization_index == 9
        assert outcome.post_disaster.sites[0].flooded
        assert outcome.state is S.RED

    def test_run_matrix_shape(self):
        analysis = CompoundThreatAnalysis(toy_ensemble())
        matrix = analysis.run_matrix(
            PAPER_CONFIGURATIONS, PLACEMENT_WAIAU, PAPER_SCENARIOS
        )
        assert len(matrix.to_rows()) == 20
        assert matrix.scenario_names == [s.name for s in PAPER_SCENARIOS]

    def test_empty_ensemble_impossible(self):
        # HurricaneEnsemble itself rejects empty construction, so the
        # pipeline can rely on a non-empty ensemble.
        from repro.errors import HazardError

        with pytest.raises(HazardError):
            HurricaneEnsemble.from_realizations("empty", ())


class TestProbabilisticPipeline:
    def test_half_power_attacker_interpolates(self):
        attacker = ProbabilisticAttacker(p_intrusion=0.5)
        analysis = CompoundThreatAnalysis(toy_ensemble(), attacker=attacker, seed=3)
        p = analysis.run(get_architecture("2"), PLACEMENT_WAIAU, HURRICANE_INTRUSION)
        # Roughly half the calm realizations end gray, the rest green.
        assert 0.2 < p.probability(S.GRAY) < 0.7
        assert p.probability(S.GREEN) == pytest.approx(
            0.9 - p.probability(S.GRAY), abs=1e-9
        )

    def test_seed_reproducibility(self):
        attacker = ProbabilisticAttacker(p_intrusion=0.5)
        runs = [
            CompoundThreatAnalysis(toy_ensemble(), attacker=attacker, seed=11)
            .run(get_architecture("2"), PLACEMENT_WAIAU, HURRICANE_INTRUSION)
            for _ in range(2)
        ]
        assert runs[0].almost_equal(runs[1])
