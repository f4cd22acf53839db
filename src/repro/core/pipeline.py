"""The analysis and evaluation pipeline (paper Fig. 5).

Workflow per realization::

    geospatial SCADA topology + hurricane realization
        -> post-natural-disaster system state       (fragility model)
        -> post-attack system state                 (worst-case attacker)
        -> operational state                        (Table I evaluator)

and per (architecture, placement, scenario): the operational profile over
the whole ensemble.

The workflow itself is owned by :mod:`repro.core.chain`:
:class:`CompoundThreatAnalysis` resolves a
:class:`~repro.core.chain.ThreatChain` (default ``"paper"``, the exact
pipeline above) and runs each cell through it -- as one fused batched
pass (:meth:`~repro.core.chain.ThreatChain.run_batch`) whenever the
chain's batch plan allows, else as a loop over
:meth:`~repro.core.chain.ThreatChain.run`.  The class keeps the
ensemble/fragility/attacker wiring, the failure-matrix memo, and the
matrix/profile aggregation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.attacker import WorstCaseAttacker
from repro.core.batch import BatchContext, ChainBatchPlan
from repro.core.chain import (
    Attacker,
    ChainContext,
    RealizationOutcome,
    ThreatChain,
    resolve_chain,
)
from repro.core.outcomes import OperationalProfile, ScenarioMatrix
from repro.core.threat import ThreatScenario
from repro.errors import AnalysisError
from repro.hazards.base import HazardEnsemble, HazardRealization
from repro.hazards.fragility import FragilityModel, ThresholdFragility
from repro.obs.observer import current as current_observer
from repro.scada.architectures import ArchitectureSpec
from repro.scada.placement import Placement

__all__ = [
    "Attacker",
    "RealizationOutcome",
    "CompoundThreatAnalysis",
]


class CompoundThreatAnalysis:
    """The paper's data-centric analysis framework.

    Parameters
    ----------
    ensemble:
        Hazard realizations (the natural-disaster input data); any
        hazard type satisfying :class:`~repro.hazards.base.HazardEnsemble`
        plugs in (hurricane surge, earthquake, ...).
    fragility:
        How inundation depth maps to asset failure; defaults to the
        paper's 0.5 m threshold rule.
    attacker:
        The cyberattack model; defaults to the worst-case attacker.
    seed:
        Seeds the rng handed to stochastic stages (a fresh
        ``default_rng(seed)`` per matrix cell), keeping runs
        reproducible.
    chain:
        The threat chain to run each realization through: a registered
        name, a :class:`~repro.core.chain.ThreatChain`, or ``None`` for
        the paper's exact three-stage pipeline.
    weights:
        Optional per-realization importance weights (one per ensemble
        member, in index order).  When given, every profile is a
        :class:`~repro.sampling.weighted.WeightedProfile` aggregating
        the reweighted outcome tallies; ``None`` (the default) keeps
        the historical unweighted :class:`OperationalProfile` path
        byte for byte.
    matrix_cache:
        An externally owned batched-executor memo (model token ->
        failure/probability grid).  Sound for stochastic fragility too
        -- the cached grids are pure functions of the shared depth grid;
        sampled outcomes are never stored -- so the sweep engine shares
        one per ensemble group.

    Each cell runs on one of two executors, chosen by the chain's
    :meth:`~repro.core.chain.ThreatChain.batch_plan` alone: the fused
    batched pass when the ensemble exposes a depth grid and every stage
    can batch (stochastic models included, via the RNG-draw contract),
    else a loop of :meth:`~repro.core.chain.ThreatChain.run` over the
    realizations (counter ``batch.fallback`` records why).  Both give
    bitwise-identical profiles for the built-in chains.
    """

    def __init__(
        self,
        ensemble: HazardEnsemble,
        fragility: FragilityModel | None = None,
        attacker: Attacker | None = None,
        seed: int = 0,
        chain: ThreatChain | str | None = None,
        weights: np.ndarray | None = None,
        matrix_cache: dict[object, np.ndarray] | None = None,
    ) -> None:
        if len(ensemble) == 0:
            raise AnalysisError("ensemble must contain realizations")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (len(ensemble),):
                raise AnalysisError(
                    f"weights shape {weights.shape} does not match "
                    f"ensemble size {len(ensemble)}"
                )
        self.weights = weights
        self.ensemble = ensemble
        self.fragility = fragility or ThresholdFragility()
        self.attacker = attacker or WorstCaseAttacker()
        self.chain = resolve_chain(chain)
        self._seed = seed
        # Batched-executor memos, shared across every matrix cell: the
        # ensemble's depth grid is resolved once, and failure matrices /
        # probability grids are cached per fragility model.
        # Both entry kinds are pure functions of (depths, model) -- the
        # stochastic path samples fresh draws *against* the cached
        # probability grid, never caching outcomes -- so the sweep
        # engine may pass one externally owned ``matrix_cache`` per
        # shared ensemble and every study reuses the grids.
        self._batch_depths: tuple[list[str], np.ndarray] | None = None
        self._batch_probed = False
        self._failure_matrix_cache: dict[object, np.ndarray] = (
            {} if matrix_cache is None else matrix_cache
        )

    def _depth_grid(self) -> tuple[list[str], np.ndarray] | None:
        """The ensemble's (asset names, depth matrix), probed once.

        ``None`` when the ensemble does not expose a per-asset intensity
        grid -- every cell then runs on the per-realization loop.
        """
        if not self._batch_probed:
            self._batch_probed = True
            names = getattr(self.ensemble, "asset_names", None)
            view = getattr(self.ensemble, "depth_view", None)
            if names and callable(view):
                depths = np.asarray(view())
                if depths.ndim == 2 and depths.shape == (
                    len(self.ensemble),
                    len(names),
                ):
                    self._batch_depths = (list(names), depths)
        return self._batch_depths

    def _batch_context(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
    ) -> BatchContext | None:
        """A batch context for one cell, or ``None`` when unavailable."""
        grid = self._depth_grid()
        if grid is None:
            return None
        names, depths = grid
        return BatchContext(
            architecture,
            placement,
            scenario,
            fragility=self.fragility,
            attacker=self.attacker,
            asset_names=names,
            depths=depths,
            matrix_cache=self._failure_matrix_cache,
        )

    def _context(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
    ) -> ChainContext:
        """One chain context, reused across the whole ensemble loop."""
        return ChainContext(
            architecture,
            placement,
            scenario,
            fragility=self.fragility,
            attacker=self.attacker,
        )

    # ------------------------------------------------------------------
    # Per-realization steps (Fig. 5 boxes)
    # ------------------------------------------------------------------
    def outcome(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        realization: HazardRealization,
        scenario: ThreatScenario,
        rng: np.random.Generator | None = None,
    ) -> RealizationOutcome:
        """Run one realization through the configured threat chain."""
        ctx = self._context(architecture, placement, scenario)
        ctx.realization = realization
        return self.chain.run(ctx, rng)

    # ------------------------------------------------------------------
    # Ensemble-level analysis
    # ------------------------------------------------------------------
    def _profile_from_states(self, states) -> OperationalProfile:
        if self.weights is None:
            return OperationalProfile.from_states(states)
        from repro.sampling.weighted import WeightedProfile

        # WeightedProfile duck-types the OperationalProfile read surface.
        return WeightedProfile.from_states(states, self.weights)  # type: ignore[return-value]

    def _profile_from_codes(self, codes: np.ndarray) -> OperationalProfile:
        if self.weights is None:
            return OperationalProfile.from_state_codes(codes)
        from repro.sampling.weighted import WeightedProfile

        return WeightedProfile.from_state_codes(codes, self.weights)  # type: ignore[return-value]

    def run(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
    ) -> OperationalProfile:
        """Outcome probabilities for one configuration under one scenario.

        The batch plan alone picks the executor.  Both record the same
        telemetry: an ``analysis.run`` span carrying ``executor``
        (``batched`` or ``per-realization``) with one aggregate
        ``pipeline.stage.<name>`` child per stage, rather than
        thousands of per-realization span objects.
        """
        batch = self._batch_plan(architecture, placement, scenario)
        obs = current_observer()
        with obs.span(
            "analysis.run",
            scenario=scenario.name,
            architecture=architecture.name,
            chain=self.chain.name,
            executor="per-realization" if batch is None else "batched",
        ):
            if batch is None:
                profile, n, totals = self._run_per_realization(
                    architecture, placement, scenario
                )
            else:
                profile, n, totals = self._run_batched(*batch)
                obs.inc("pipeline.batched_runs")
            for name, total in totals.items():
                obs.record_span(f"pipeline.stage.{name}", total, realizations=n)
            obs.inc("pipeline.realizations", n)
        for name, total in totals.items():
            obs.observe(f"pipeline.stage.{name}_s", total)
        return profile

    def _batch_plan(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
    ) -> tuple[BatchContext, ChainBatchPlan] | None:
        """The cell's batch context and plan, or ``None`` when it cannot
        batch (the fallback and its reason are recorded)."""
        bctx = self._batch_context(architecture, placement, scenario)
        plan = self.chain.batch_plan(bctx) if bctx is not None else None
        if bctx is None or plan is None or not plan.ok:
            self._note_fallback(plan)
            return None
        return bctx, plan

    def _run_batched(
        self, bctx: BatchContext, plan: ChainBatchPlan
    ) -> tuple[OperationalProfile, int, dict[str, float]]:
        """One cell via the fused batched executor.

        Deterministic chains consume no draws, so no generator is
        seeded.  Stochastic chains get a fresh ``default_rng(seed)`` per
        cell, exactly mirroring the per-realization loop's per-cell
        generator, so the matrix draw replays the identical stream.
        """
        rng = (
            np.random.default_rng(self._seed) if plan.total_draws > 0 else None
        )
        codes = self.chain.run_batch(bctx, rng, plan)
        return self._profile_from_codes(codes), len(codes), bctx.stage_seconds

    def _run_per_realization(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
    ) -> tuple[OperationalProfile, int, dict[str, float]]:
        """One cell as a loop of :meth:`ThreatChain.run` over the ensemble.

        Serves what cannot batch: an ensemble without a depth grid, or
        a stage that declines batching (e.g. it uses the rng outside
        the RNG-draw contract).
        """
        ctx = self._context(architecture, placement, scenario)
        rng = np.random.default_rng(self._seed)
        run = self.chain.run
        states = []
        for realization in self.ensemble:
            ctx.realization = realization
            states.append(run(ctx, rng).state)
        return self._profile_from_states(states), len(states), ctx.stage_seconds

    def _note_fallback(self, plan: ChainBatchPlan | None) -> None:
        """Record one batch-to-per-realization fallback with its reason.

        Counters are flat name -> value maps, so the reason rides as a
        suffixed counter (plus a structured event); `format_run_report`
        surfaces both the total and the per-reason split, so users can
        tell *why* a run is on the slow path.
        """
        if plan is None:
            reason = "ensemble exposes no per-asset depth grid"
            slug = "no_depth_grid"
        else:
            reason = f"chain {self.chain.name!r} is unbatchable: {plan.reason}"
            slug = f"stage.{plan.stage}" if plan.stage else "unbatchable"
        obs = current_observer()
        obs.inc("batch.fallback")
        obs.inc(f"batch.fallback.reason.{slug}")
        obs.event("batch.fallback", reason=reason, chain=self.chain.name)

    def run_matrix(
        self,
        architectures: Sequence[ArchitectureSpec],
        placement: Placement,
        scenarios: Sequence[ThreatScenario],
    ) -> ScenarioMatrix:
        """Profiles for every (scenario, architecture) pair.

        One scenario row group of the returned matrix corresponds to one
        figure of the paper.
        """
        obs = current_observer()
        matrix = ScenarioMatrix(placement_label=placement.label())
        with obs.span(
            "analysis.run_matrix",
            placement=placement.label(),
            cells=len(architectures) * len(scenarios),
        ):
            for scenario in scenarios:
                for architecture in architectures:
                    matrix.add(
                        scenario.name,
                        architecture.name,
                        self.run(architecture, placement, scenario),
                    )
        return matrix
