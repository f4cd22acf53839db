"""Property test: the batched executor equals the per-realization oracle.

The batched path's contract is *bitwise identity* -- not statistical
agreement -- with looping ``ThreatChain.run`` over the ensemble (the
oracle in ``tests/oracle.py``).  Hypothesis
drives randomized fragility thresholds, attack budgets, asset subsets,
and depth grids through every registered preset chain, both placements,
and every paper architecture, comparing element-wise severity codes and
the aggregated profiles.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import StudyConfig
from repro.core.chain import available_chains, get_chain
from repro.core.outcomes import OperationalProfile
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import STATE_ORDER
from repro.core.threat import CyberAttackBudget, ThreatScenario
from repro.geo import build_oahu_catalog
from repro.hazards.fragility import ThresholdFragility
from repro.hazards.base import MatrixEnsemble
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_KAHE, PLACEMENT_WAIAU
from tests.oracle import oracle_matrix, oracle_states

CATALOG_NAMES = build_oahu_catalog().names
PLACEMENTS = {"waiau": PLACEMENT_WAIAU, "kahe": PLACEMENT_KAHE}
N_REALIZATIONS = 12


def _ensemble(depth_seed: int, n_assets: int) -> MatrixEnsemble:
    """A randomized ensemble over a prefix of the real asset catalog.

    Shorter prefixes drop placed control sites from the hazard data,
    exercising the never-floods column mapping on both executors.
    """
    names = CATALOG_NAMES[:n_assets]
    rng = np.random.default_rng(depth_seed)
    depths = rng.uniform(0.0, 1.4, size=(N_REALIZATIONS, len(names)))
    return MatrixEnsemble(
        scenario_name="property", depths=depths, asset_names=list(names), seed=0
    )


@settings(max_examples=30, deadline=None)
@given(
    depth_seed=st.integers(min_value=0, max_value=2**31),
    n_assets=st.integers(min_value=1, max_value=len(CATALOG_NAMES)),
    threshold=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    intrusions=st.integers(min_value=0, max_value=8),
    isolations=st.integers(min_value=0, max_value=4),
    chain_name=st.sampled_from(available_chains()),
    placement_name=st.sampled_from(sorted(PLACEMENTS)),
    arch_index=st.integers(min_value=0, max_value=len(PAPER_CONFIGURATIONS) - 1),
)
def test_batched_equals_per_realization(
    depth_seed,
    n_assets,
    threshold,
    intrusions,
    isolations,
    chain_name,
    placement_name,
    arch_index,
):
    ensemble = _ensemble(depth_seed, n_assets)
    placement = PLACEMENTS[placement_name]
    architecture = PAPER_CONFIGURATIONS[arch_index]
    scenario = ThreatScenario(
        "property",
        CyberAttackBudget(intrusions=intrusions, isolations=isolations),
    )
    fragility = ThresholdFragility(threshold_m=threshold)

    analysis = CompoundThreatAnalysis(
        ensemble, fragility=fragility, chain=chain_name
    )

    # Element-wise severity codes, in ensemble order.
    chain = get_chain(chain_name)
    bctx = analysis._batch_context(architecture, placement, scenario)
    assert bctx is not None and chain.batch_plan(bctx).ok
    codes = chain.run_batch(bctx, None)
    states = oracle_states(
        ensemble, architecture, placement, scenario,
        chain=chain_name, fragility=fragility,
    )
    for i, state in enumerate(states):
        assert state.severity == int(codes[i]), (
            f"realization {i}: scalar {state} != "
            f"batched {STATE_ORDER[int(codes[i])]}"
        )

    # And the aggregated profile through the public entry point.
    profile = analysis.run(architecture, placement, scenario)
    assert profile.counts == OperationalProfile.from_states(states).counts


@settings(max_examples=10, deadline=None)
@given(
    depth_seed=st.integers(min_value=0, max_value=2**31),
    threshold=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)
def test_run_study_equals_the_oracle(depth_seed, threshold):
    """The public facade's matrix equals the oracle's, cell by cell."""
    from repro.api import run_study

    ensemble = _ensemble(depth_seed, len(CATALOG_NAMES))
    fragility = ThresholdFragility(threshold_m=threshold)
    config = StudyConfig(
        ensemble=ensemble, fragility=fragility, observability=False
    )
    study = run_study(config)
    oracle = oracle_matrix(
        ensemble,
        config.resolve_configurations(),
        config.resolve_placement(),
        config.resolve_scenarios(),
        fragility=fragility,
    )
    for scenario in study.matrix.scenario_names:
        for arch in study.matrix.architecture_names:
            assert (
                study.matrix.get(scenario, arch).counts
                == oracle.get(scenario, arch).counts
            )
