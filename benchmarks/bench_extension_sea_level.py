"""Extension: compound threats under sea-level rise.

Compound threats sit at the intersection of climate and security; the
natural planning question is how the case study's numbers move as mean
sea level rises.  The sweep re-runs the hurricane ensemble with a static
sea-level offset and tracks the headline flood probability -- the climate
trajectory of the paper's 9.5%.
"""

from __future__ import annotations

from repro.geo import HONOLULU_CC, WAIAU_CC, build_oahu_catalog, build_oahu_region
from repro.hazards.hurricane.ensemble import EnsembleGenerator
from repro.hazards.hurricane.inundation import ExtensionParams
from repro.hazards.hurricane.standard import OAHU_SOUTH_SHORE_BASIN, standard_oahu_scenario
from repro.hazards.hurricane.surge import SurgeModelParams

OFFSETS_M = [0.0, 0.3, 0.6, 1.0]
REALIZATIONS = 300


def sweep():
    region = build_oahu_region()
    catalog = build_oahu_catalog()
    scenario = standard_oahu_scenario()
    ext = ExtensionParams(basins=(OAHU_SOUTH_SHORE_BASIN,))
    rows = []
    for offset in OFFSETS_M:
        generator = EnsembleGenerator(
            region=region,
            catalog=catalog,
            scenario=scenario,
            surge_params=SurgeModelParams(sea_level_offset_m=offset),
            extension_params=ext,
        )
        ensemble = generator.generate(count=REALIZATIONS, seed=20220522)
        rows.append(
            {
                "offset": offset,
                "p_flood": ensemble.flood_probability(HONOLULU_CC),
                "identical": ensemble.flood_probability(HONOLULU_CC)
                == ensemble.flood_probability(WAIAU_CC),
            }
        )
    return rows


def test_extension_sea_level_rise(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print(f"Sea-level rise sweep ({REALIZATIONS} realizations per offset):")
    print(f"  {'SLR':>6s} {'P(Honolulu CC floods)':>22s}")
    for row in rows:
        print(f"  {row['offset']:5.1f}m {row['p_flood']:22.1%}")

    probs = [row["p_flood"] for row in rows]
    # Monotone: higher base sea level floods the control center more.
    assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
    # A metre of SLR multiplies the compound-threat exposure severalfold.
    assert probs[-1] > 2.0 * probs[0]
    # The correlated-failure structure (shared basin + equal elevations)
    # is sea-level independent.
    assert all(row["identical"] for row in rows)
