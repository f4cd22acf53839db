"""Extension: the compound threat model under a different disaster.

The paper's threat model is disaster-generic; this bench runs the same
five architectures through an earthquake ensemble and contrasts the
result structure with the hurricane's: the quake's radial correlation
means the Waiau backup is *sometimes* useful (orange appears under the
hurricane-only scenario), unlike the fully correlated flood.
"""

from __future__ import annotations

from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState as S
from repro.core.threat import PAPER_SCENARIOS
from repro.geo import HONOLULU_CC, WAIAU_CC, build_oahu_catalog
from repro.hazards.earthquake import (
    EarthquakeGenerator,
    seismic_fragility,
    standard_oahu_fault,
)
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_WAIAU
from repro.viz import profile_chart

REALIZATIONS = 500


def run_earthquake_study():
    generator = EarthquakeGenerator(build_oahu_catalog(), standard_oahu_fault())
    ensemble = generator.generate(count=REALIZATIONS, seed=42)
    analysis = CompoundThreatAnalysis(ensemble, fragility=seismic_fragility())
    matrix = analysis.run_matrix(
        PAPER_CONFIGURATIONS, PLACEMENT_WAIAU, PAPER_SCENARIOS
    )
    return ensemble, matrix


def test_extension_earthquake_compound_threat(benchmark):
    ensemble, matrix = benchmark.pedantic(run_earthquake_study, rounds=1, iterations=1)

    print()
    print(
        f"Earthquake compound threat ({REALIZATIONS} realizations, "
        "M6.0-7.8 offshore fault):"
    )
    p_hon = ensemble.failure_probability(HONOLULU_CC)
    p_wai = ensemble.failure_probability(WAIAU_CC)
    print(f"  P(Honolulu CC fails) = {p_hon:.1%}, P(Waiau fails) = {p_wai:.1%}")
    print(profile_chart(
        matrix.scenario_profiles("hurricane"),
        title="Earthquake only (same pipeline, different hazard)",
    ))

    # The structural contrast with the hurricane: partial correlation
    # makes the backup worth something even at Waiau.
    quake_2_2 = matrix.get("hurricane", "2-2")
    assert quake_2_2.probability(S.ORANGE) > 0.0
    # And the architecture ordering from Table I still holds.
    full = matrix.scenario_profiles("hurricane+intrusion+isolation")
    assert full["6+6+6"].dominates(full["6-6"])
    assert full["6-6"].dominates(full["6"])
    assert full["6+6+6"].probability(S.GREEN) > 0.85
