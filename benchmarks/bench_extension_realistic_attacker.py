"""Extension: realistic attacker power (paper Section VII open question).

Sweeps the attacker's link-flooding capacity and intrusion skill through
the resource-constrained attacker.  The worst-case model is the limit of
infinite resources; the sweep shows where the paper's pessimism actually
binds: below the WAN's 20 Gb/s minimum cut, isolation attacks simply
never land.
"""

from __future__ import annotations

from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.realistic import ResourceConstrainedAttacker
from repro.core.states import OperationalState as S
from repro.core.threat import HURRICANE_INTRUSION_ISOLATION
from repro.geo import DRFORTRESS, HONOLULU_CC, WAIAU_CC, build_oahu_catalog
from repro.network.topology import build_site_wan
from repro.scada.architectures import CONFIG_6_6
from repro.scada.placement import PLACEMENT_WAIAU

CAPACITIES_GBPS = [0.0, 10.0, 20.0, 40.0]
SKILLS = [0.25, 1.0]
REALIZATIONS = 300


def sweep(standard_ensemble):
    ensemble = standard_ensemble.subset(REALIZATIONS)
    wan = build_site_wan(
        build_oahu_catalog(), [HONOLULU_CC, WAIAU_CC, DRFORTRESS]
    )
    rows = []
    for skill in SKILLS:
        for capacity in CAPACITIES_GBPS:
            attacker = ResourceConstrainedAttacker(
                wan, flood_capacity_gbps=capacity, p_intrusion=skill
            )
            analysis = CompoundThreatAnalysis(ensemble, attacker=attacker, seed=11)
            profile = analysis.run(
                CONFIG_6_6, PLACEMENT_WAIAU, HURRICANE_INTRUSION_ISOLATION
            )
            rows.append(
                {
                    "skill": skill,
                    "capacity": capacity,
                    "green": profile.probability(S.GREEN),
                    "orange": profile.probability(S.ORANGE),
                    "red": profile.probability(S.RED),
                    "gray": profile.probability(S.GRAY),
                }
            )
    return rows


def test_extension_realistic_attacker(benchmark, standard_ensemble):
    rows = benchmark.pedantic(sweep, args=(standard_ensemble,), rounds=1, iterations=1)

    print()
    print('Realistic attacker sweep ("6-6", full compound scenario):')
    print(f"  {'p_intr':>6s} {'Gb/s':>6s} {'green':>7s} {'orange':>7s} {'red':>7s} {'gray':>7s}")
    for row in rows:
        print(
            f"  {row['skill']:6.2f} {row['capacity']:6.0f} "
            f"{row['green']:7.1%} {row['orange']:7.1%} "
            f"{row['red']:7.1%} {row['gray']:7.1%}"
        )

    by_key = {(row["skill"], row["capacity"]): row for row in rows}
    # Below the 20 Gb/s min cut the isolation never lands: "6-6" stays
    # green wherever the hurricane spared the primary.
    assert by_key[(1.0, 0.0)]["green"] > 0.85
    assert by_key[(1.0, 10.0)]["green"] == by_key[(1.0, 0.0)]["green"]
    # At or above the cut, the worst-case result is recovered: orange.
    assert by_key[(1.0, 20.0)]["orange"] > 0.85
    assert by_key[(1.0, 20.0)]["green"] == 0.0
    # Lower intrusion skill cannot change the isolation outcome for an
    # intrusion-tolerant architecture (f=1 absorbs the intrusion anyway).
    assert abs(by_key[(0.25, 20.0)]["orange"] - by_key[(1.0, 20.0)]["orange"]) < 1e-9
