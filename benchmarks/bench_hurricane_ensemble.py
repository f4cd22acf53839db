"""The hurricane model (paper Section V-A): ensemble generation.

Benchmarks generating realizations through the full surge + inundation
pipeline and prints the data-level statistics the paper reports: the
Honolulu flooding probability (9.5%) and the perfect Honolulu/Waiau
correlation.
"""

from __future__ import annotations

import numpy as np

from repro.geo import (
    ALOHANAP,
    DRFORTRESS,
    HONOLULU_CC,
    KAHE_CC,
    WAIAU_CC,
)
from repro.hazards.hurricane.standard import standard_oahu_generator


def test_ensemble_generation(benchmark):
    generator = standard_oahu_generator()
    # Benchmark a 100-realization slice (the full 1000 scales linearly).
    count = 100
    ensemble = benchmark(generator.generate, count, 20220522)
    assert len(ensemble) == count
    if benchmark.stats is not None:  # absent under --benchmark-disable
        rate = count / benchmark.stats.stats.mean
        benchmark.extra_info["realizations_per_sec"] = rate
        print(f"\nensemble generation: {rate:,.0f} realizations/sec")


def test_standard_ensemble_statistics(benchmark, standard_ensemble):
    def statistics():
        return {
            "p_honolulu": standard_ensemble.flood_probability(HONOLULU_CC),
            "p_waiau_given_honolulu": standard_ensemble.conditional_flood_probability(
                WAIAU_CC, HONOLULU_CC
            ),
            "p_kahe": standard_ensemble.flood_probability(KAHE_CC),
            "p_drfortress": standard_ensemble.flood_probability(DRFORTRESS),
            "p_alohanap": standard_ensemble.flood_probability(ALOHANAP),
        }

    stats = benchmark(statistics)
    print()
    print("Hurricane ensemble statistics (1000 realizations, paper Section V-A/VI-A):")
    print(f"  P(Honolulu CC floods)             = {stats['p_honolulu']:.1%}  (paper: 9.5%)")
    print(f"  P(Waiau floods | Honolulu floods) = {stats['p_waiau_given_honolulu']:.0%}  (paper: 100%)")
    print(f"  P(Kahe floods)                    = {stats['p_kahe']:.1%}  (paper: least impacted)")
    print(f"  P(DRFortress floods)              = {stats['p_drfortress']:.1%}")
    print(f"  P(AlohaNAP floods)                = {stats['p_alohanap']:.1%}")

    assert 0.07 <= stats["p_honolulu"] <= 0.12
    assert stats["p_waiau_given_honolulu"] == 1.0
    assert stats["p_kahe"] == 0.0

    hon = np.array([r.depth_at(HONOLULU_CC) > 0.5 for r in standard_ensemble])
    wai = np.array([r.depth_at(WAIAU_CC) > 0.5 for r in standard_ensemble])
    assert np.array_equal(hon, wai)
