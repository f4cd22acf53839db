"""Extension: what would it take to fully withstand the compound threat?

The paper's conclusion is that *no existing architecture* guarantees a
green state under hurricane + intrusion + isolation.  The framework can
answer the natural follow-up: what deployment would?  Quorum arithmetic
says surviving two site losses (one flooded + one isolated) with one
global replication group requires five sites -- any two of five sites
hold less than half the replicas, so four-site deployments can never ride
out two losses.  A five-site "6+6+6+6+6" placed to avoid the correlated
Honolulu/Waiau pair achieves 100% green under the full threat model.
"""

from __future__ import annotations


from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState as S
from repro.core.threat import PAPER_SCENARIOS
from repro.geo import ALOHANAP, DRFORTRESS, HONOLULU_CC, KAHE_CC, WAIAU_CC
from repro.scada.architectures import CONFIG_6_6_6, active_multisite
from repro.scada.placement import Placement

FIVE_SITE = active_multisite(6, num_sites=5, data_center_sites=2)

#: Five sites with only one (Honolulu) exposed to the hurricane: the
#: H-POWER plant hosts a hardened control room (the Kahe-style siting
#: option the paper's Section VII contemplates).
PLACEMENT_FIVE = Placement(
    primary=HONOLULU_CC,
    backup=KAHE_CC,
    extra_backups=("H-POWER Plant",),
    data_centers=(DRFORTRESS, ALOHANAP),
)

#: The same five-site architecture with the correlated pair included.
PLACEMENT_FIVE_CORRELATED = Placement(
    primary=HONOLULU_CC,
    backup=WAIAU_CC,
    extra_backups=(KAHE_CC,),
    data_centers=(DRFORTRESS, ALOHANAP),
)


def run_all_scenarios(analysis, architecture, placement):
    return {
        scenario.name: analysis.run(architecture, placement, scenario)
        for scenario in PAPER_SCENARIOS
    }


def test_extension_five_site_deployment(benchmark, standard_ensemble):
    analysis = CompoundThreatAnalysis(standard_ensemble)
    profiles = benchmark.pedantic(
        run_all_scenarios,
        args=(analysis, FIVE_SITE, PLACEMENT_FIVE),
        rounds=1,
        iterations=1,
    )

    print()
    print('Beyond the paper: "6+6+6+6+6" (30 replicas, 5 sites, 1 exposed):')
    for name, profile in profiles.items():
        print(f"  {name:32s} {profile.summary()}")

    # Fully green under every scenario, including the full compound
    # threat the paper shows no existing architecture withstands.
    for name, profile in profiles.items():
        assert profile.probability(S.GREEN) == 1.0, name

    # Counterfactuals that make the result meaningful:
    # (a) the paper's best configuration cannot do this even at its best
    #     placement (the isolation of a second site still kills it when
    #     the hurricane took Honolulu);
    best_paper = analysis.run(
        CONFIG_6_6_6,
        Placement(primary=HONOLULU_CC, backup=KAHE_CC, data_centers=(DRFORTRESS,)),
        PAPER_SCENARIOS[-1],
    )
    assert best_paper.probability(S.GREEN) < 1.0
    # (b) five sites *including* the correlated pair still fail: the
    # hurricane takes two sites at once and the isolation a third.
    correlated = run_all_scenarios(analysis, FIVE_SITE, PLACEMENT_FIVE_CORRELATED)
    assert correlated["hurricane+intrusion+isolation"].probability(S.GREEN) < 1.0
    print(
        "  (counterfactual with the correlated Honolulu+Waiau pair: "
        f"{correlated['hurricane+intrusion+isolation'].summary()})"
    )
