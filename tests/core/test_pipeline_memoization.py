"""Fragility evaluation in the analysis pipeline.

A fragility model that declares itself deterministic runs on the
batched executor (one failure matrix per model, shared across cells);
a chain stage with no batched pass sends the matrix to the
per-realization loop, which keeps no failed-asset memo.  Both must give
the same profiles, and the pipeline must equal a by-hand recomputation
of every outcome.
"""

from __future__ import annotations

import numpy as np

from repro.core.chain import CHAIN_PAPER, ThreatChain
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.threat import PAPER_SCENARIOS
from repro.hazards.fragility import PAPER_FAILURE_THRESHOLD_M, FragilityModel
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_WAIAU


class CountingFragility(FragilityModel):
    """The paper's threshold rule, with an invocation counter."""

    deterministic = True

    def __init__(self, threshold_m: float = PAPER_FAILURE_THRESHOLD_M) -> None:
        self.threshold_m = threshold_m
        self.failed_assets_calls = 0
        self.failure_matrix_rows = 0

    def failure_probability(self, depth_m: float) -> float:
        return 1.0 if depth_m > self.threshold_m else 0.0

    def failed_assets(self, depths_m, rng=None):
        self.failed_assets_calls += 1
        return super().failed_assets(depths_m, rng)

    def failure_matrix(self, depths):
        self.failure_matrix_rows += depths.shape[0]
        return super().failure_matrix(depths)


class UncachedCountingFragility(CountingFragility):
    """Same rule, but not declared deterministic: runs per realization."""

    deterministic = False


class _PassthroughStage:
    """A custom stage with no batched pass: forces per-realization runs."""

    name = "passthrough"
    deterministic = True

    def apply(self, state, ctx, rng):
        return state if state is not None else ctx.base_state()


def _profiles(matrix):
    return {
        (s, a): matrix.get(s, a)
        for s in [sc.name for sc in PAPER_SCENARIOS]
        for a in [arch.name for arch in PAPER_CONFIGURATIONS]
    }


def test_run_matrix_evaluates_fragility_once_per_realization(small_ensemble):
    # The batched executor evaluates one failure matrix for the model and
    # shares it across every (scenario, architecture) cell.
    fragility = CountingFragility()
    analysis = CompoundThreatAnalysis(small_ensemble, fragility=fragility)
    analysis.run_matrix(
        list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS)
    )
    assert fragility.failure_matrix_rows == len(small_ensemble)
    assert fragility.failed_assets_calls == 0


def test_unmemoized_pays_the_full_matrix_cost(small_ensemble):
    # The per-realization loop re-evaluates fragility in every cell.
    fragility = CountingFragility()
    chain = ThreatChain(
        "passthrough-prefix", (_PassthroughStage(), *CHAIN_PAPER.stages)
    )
    analysis = CompoundThreatAnalysis(
        small_ensemble, fragility=fragility, chain=chain
    )
    analysis.run_matrix(
        list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS)
    )
    cells = len(PAPER_CONFIGURATIONS) * len(PAPER_SCENARIOS)
    assert fragility.failed_assets_calls == len(small_ensemble) * cells
    assert fragility.failure_matrix_rows == 0


def test_memoized_profiles_equal_unmemoized(small_ensemble):
    memoized = CompoundThreatAnalysis(
        small_ensemble, fragility=CountingFragility()
    ).run_matrix(list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS))
    unmemoized = CompoundThreatAnalysis(
        small_ensemble, fragility=UncachedCountingFragility()
    ).run_matrix(list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS))
    assert _profiles(memoized) == _profiles(unmemoized)


def test_default_fragility_matches_pre_memoization_run(small_ensemble):
    # The default ThresholdFragility never consumes the rng, so the
    # batched run() equals a by-hand recomputation of every outcome.
    analysis = CompoundThreatAnalysis(small_ensemble)
    profile = analysis.run(
        PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, PAPER_SCENARIOS[0]
    )
    rng = np.random.default_rng(0)
    states = [
        analysis.outcome(
            PAPER_CONFIGURATIONS[0], PLACEMENT_WAIAU, r, PAPER_SCENARIOS[0], rng
        ).state
        for r in small_ensemble
    ]
    from repro.core.outcomes import OperationalProfile

    assert profile == OperationalProfile.from_states(states)
