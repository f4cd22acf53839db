"""Ablation: control-site placement sweep (paper Section VII).

Ranks every candidate backup location for "6-6" and "6+6+6" under the
availability objective; the paper's finding -- Kahe converts the 9.5%
red band into failovers / continuous service, Waiau adds nothing -- must
fall out of the sweep.
"""

from __future__ import annotations

from repro.core.threat import PAPER_SCENARIOS
from repro.geo import HONOLULU_CC, KAHE_CC, WAIAU_CC, build_oahu_catalog
from repro.scada.architectures import CONFIG_6_6, CONFIG_6_6_6
from repro.siting.candidates import control_site_candidates
from repro.siting.objectives import GREEN_OBJECTIVE, OPERATIONAL_OBJECTIVE
from repro.siting.optimizer import PlacementOptimizer


def test_ablation_siting_sweep(benchmark, analysis):
    catalog = build_oahu_catalog()
    candidates = control_site_candidates(catalog, include_plants=True)
    optimizer = PlacementOptimizer(
        analysis, CONFIG_6_6, PAPER_SCENARIOS, OPERATIONAL_OBJECTIVE
    )

    ranked = benchmark(
        optimizer.rank_backups, HONOLULU_CC, candidates
    )

    print()
    print('Backup-site sweep for "6-6" (P(green or orange), all scenarios):')
    for i, result in enumerate(ranked, 1):
        print(f"  {i:2d}. {result.placement.backup:32s} {result.score:.4f}")

    scores = {r.placement.backup: r.score for r in ranked}
    assert scores[KAHE_CC] > scores[WAIAU_CC]
    assert ranked[0].score == scores[KAHE_CC]  # Kahe ties the top group

    # For 6+6+6 the green objective itself separates the candidates.
    optimizer_666 = PlacementOptimizer(
        analysis, CONFIG_6_6_6, PAPER_SCENARIOS, GREEN_OBJECTIVE
    )
    ranked_666 = optimizer_666.rank_backups(
        HONOLULU_CC, [WAIAU_CC, KAHE_CC], data_centers=("DRFortress Data Center",)
    )
    print('Backup-site sweep for "6+6+6" (P(green)):')
    for i, result in enumerate(ranked_666, 1):
        print(f"  {i:2d}. {result.placement.backup:32s} {result.score:.4f}")
    assert ranked_666[0].placement.backup == KAHE_CC
