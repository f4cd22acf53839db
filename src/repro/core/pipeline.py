"""The analysis and evaluation pipeline (paper Fig. 5).

Workflow per realization::

    geospatial SCADA topology + hurricane realization
        -> post-natural-disaster system state       (fragility model)
        -> post-attack system state                 (worst-case attacker)
        -> operational state                        (Table I evaluator)

and per (architecture, placement, scenario): the operational profile over
the whole ensemble.

Since the threat-chain refactor the per-realization workflow is owned by
:mod:`repro.core.chain`: :class:`CompoundThreatAnalysis` resolves a
:class:`~repro.core.chain.ThreatChain` (default ``"paper"``, the exact
pipeline above) and delegates every realization to its executor.  The
class keeps the ensemble/fragility/attacker wiring, the memoized
failed-asset pass, and the matrix/profile aggregation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.attacker import WorstCaseAttacker
from repro.core.batch import BatchContext
from repro.core.chain import (
    Attacker,
    ChainContext,
    RealizationOutcome,
    ThreatChain,
    resolve_chain,
)
from repro.core.outcomes import OperationalProfile, ScenarioMatrix
from repro.core.system_state import SystemState, initial_state
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
        Seeds the rng handed to stochastic attackers (ignored by the
        deterministic ones), keeping runs reproducible.
    failed_cache:
        An externally owned failed-asset memo (realization index ->
        failed set) to use instead of a private one.  The sweep engine
        passes one dict per (ensemble, fragility) group so every study
        sharing that pair reuses the fragility pass; only sound when the
        ensemble and fragility model really are shared.
    matrix_cache:
        An externally owned batched-executor memo (model token ->
        failure/probability grid).  Unlike ``failed_cache`` it is sound
        for stochastic fragility too -- the cached grids are pure
        functions of the shared depth grid; sampled outcomes are never
        stored -- so the sweep engine shares one per ensemble group.
    chain:
        The threat chain to run each realization through: a registered
        name, a :class:`~repro.core.chain.ThreatChain`, or ``None`` for
        the paper's exact three-stage pipeline.
    batch:
        Executor selection.  ``None`` (the default) auto-selects: the
        fused batched executor when the ensemble exposes a depth grid
        and every chain stage supports batching (stochastic fragility
        models and attackers included, via the RNG-draw contract --
        see :meth:`~repro.core.chain.ThreatChain.batch_plan`), the
        per-realization loop otherwise (counter ``batch.fallback``
        records why).  ``False`` forces the per-realization loop;
        ``True`` requires the batched path and raises
        :class:`~repro.errors.AnalysisError` when it is unavailable.
        Both executors are bitwise identical for the built-in chains.
    weights:
        Optional per-realization importance weights (one per ensemble
        member, in index order).  When given, every profile is a
        :class:`~repro.sampling.weighted.WeightedProfile` aggregating
        the reweighted outcome tallies; ``None`` (the default) keeps
        the historical unweighted :class:`OperationalProfile` path
        byte for byte.
    """

    def __init__(
        self,
        ensemble: HazardEnsemble,
        fragility: FragilityModel | None = None,
        attacker: Attacker | None = None,
        seed: int = 0,
        failed_cache: dict[int, frozenset[str]] | None = None,
        chain: ThreatChain | str | None = None,
        batch: bool | None = None,
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
        self.batch = batch
        self._seed = seed
        # Failed-asset sets per realization, for deterministic fragility
        # models.  Keyed by realization index: indices identify a
        # realization within the ensemble even when the object is rebuilt
        # (cache loads, checkpoint resumes), unlike id()s, which are only
        # stable while the original ensemble objects stay alive.
        self._failed_cache: dict[int, frozenset[str]] = (
            {} if failed_cache is None else failed_cache
        )
        # Batched-executor memos, shared across every matrix cell: the
        # ensemble's depth grid is resolved once, and failure matrices /
        # probability grids are cached per fragility model (the batched
        # counterpart of the per-realization failed-asset memo above).
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

    def _failed_assets(
        self,
        realization: HazardRealization,
        rng: np.random.Generator | None,
    ) -> frozenset[str]:
        """The realization's failed assets, memoized when that is sound.

        A deterministic fragility model never consumes the rng, so its
        failed-asset set is a pure function of the realization and can be
        computed once and shared across every (scenario, architecture)
        cell of :meth:`run_matrix`.  Stochastic models are re-sampled on
        every call, exactly as before.
        """
        if not getattr(self.fragility, "deterministic", False):
            return realization.failed_assets(self.fragility, rng)
        key = realization.index
        try:
            failed = self._failed_cache[key]
        except KeyError:
            current_observer().inc("pipeline.failed_cache.miss")
            failed = realization.failed_assets(self.fragility, rng)
            self._failed_cache[key] = failed
            return failed
        current_observer().inc("pipeline.failed_cache.hit")
        return failed

    def _depth_grid(self) -> tuple[list[str], np.ndarray] | None:
        """The ensemble's (asset names, depth matrix), probed once.

        ``None`` when the ensemble does not expose a per-asset intensity
        grid -- the batched executor then stays off and the
        per-realization loop handles everything, as before.
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
            failed_lookup=self._failed_assets,
        )

    # ------------------------------------------------------------------
    # Per-realization steps (Fig. 5 boxes)
    # ------------------------------------------------------------------
    def post_disaster_state(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        realization: HazardRealization,
        rng: np.random.Generator | None = None,
    ) -> SystemState:
        """Apply the natural-disaster impact to a deployed architecture."""
        failed = self._failed_assets(realization, rng)
        return initial_state(architecture, placement, failed)

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
        """Outcome probabilities for one configuration under one scenario."""
        if self.batch is not False:
            bctx = self._batch_context(architecture, placement, scenario)
            plan = self.chain.batch_plan(bctx) if bctx is not None else None
            if plan is not None and plan.ok:
                return self._run_batched(bctx, plan)
            if plan is None:
                reason = "ensemble exposes no per-asset depth grid"
                slug = "no_depth_grid"
            else:
                reason = f"chain {self.chain.name!r} is unbatchable: {plan.reason}"
                slug = f"stage.{plan.stage}" if plan.stage else "unbatchable"
            if self.batch is True:
                raise AnalysisError(f"batched execution required but {reason}")
            self._note_fallback(reason, slug)
        rng = np.random.default_rng(self._seed)
        obs = current_observer()
        if not obs.enabled:
            ctx = self._context(architecture, placement, scenario)
            chain = self.chain
            states = []
            for realization in self.ensemble:
                ctx.realization = realization
                states.append(chain.run_state(ctx, rng))
            return self._profile_from_states(states)
        return self._run_observed(architecture, placement, scenario, rng, obs)

    def _run_observed(
        self, architecture, placement, scenario, rng, obs
    ) -> OperationalProfile:
        """The same per-realization loop, timed stage by stage.

        The chain's stages interleave per realization, so each stage's
        total is accumulated across the whole ensemble and reported as
        one aggregate ``pipeline.stage.<name>`` child span (plus a
        histogram sample), rather than allocating thousands of span
        objects.
        """
        ctx = self._context(architecture, placement, scenario)
        chain = self.chain
        totals: dict[str, float] = {}
        states = []
        with obs.span(
            "analysis.run",
            scenario=scenario.name,
            architecture=architecture.name,
            chain=chain.name,
        ):
            for realization in self.ensemble:
                ctx.realization = realization
                states.append(chain.run_state_timed(ctx, rng, totals))
            n = len(states)
            for name, total in totals.items():
                obs.record_span(f"pipeline.stage.{name}", total, realizations=n)
            obs.inc("pipeline.realizations", n)
        for name, total in totals.items():
            obs.observe(f"pipeline.stage.{name}_s", total)
        return self._profile_from_states(states)

    def _note_fallback(self, reason: str, slug: str) -> None:
        """Record one silent batch-to-scalar fallback with its reason.

        Counters are flat name -> value maps, so the reason rides as a
        suffixed counter (plus a structured event); `format_run_report`
        surfaces both the total and the per-reason split, so users can
        tell *why* a run is on the slow path.
        """
        obs = current_observer()
        obs.inc("batch.fallback")
        obs.inc(f"batch.fallback.reason.{slug}")
        obs.event("batch.fallback", reason=reason, chain=self.chain.name)

    def _run_batched(
        self, bctx: BatchContext, plan=None
    ) -> OperationalProfile:
        """One cell via the fused batched executor.

        Deterministic chains consume no draws, so no generator is
        seeded (the scalar path's generator is equally untouched) --
        that keeps the historical deterministic path byte for byte.
        Stochastic chains get a fresh ``default_rng(seed)`` per cell,
        exactly mirroring the scalar ``run()``'s per-call generator, so
        the matrix draw replays the identical stream.
        """
        if plan is None:
            plan = self.chain.batch_plan(bctx)
        rng = (
            np.random.default_rng(self._seed) if plan.total_draws > 0 else None
        )
        obs = current_observer()
        chain = self.chain
        if not obs.enabled:
            codes = chain.run_batch(bctx, rng, plan)
            return self._profile_from_codes(codes)
        totals: dict[str, float] = {}
        with obs.span(
            "analysis.run",
            scenario=bctx.scenario.name,
            architecture=bctx.architecture.name,
            chain=chain.name,
            executor="batched",
        ):
            codes = chain.run_batch_timed(bctx, rng, totals, plan)
            n = int(codes.shape[0])
            for name, total in totals.items():
                obs.record_span(f"pipeline.stage.{name}", total, realizations=n)
            obs.inc("pipeline.realizations", n)
            obs.inc("pipeline.batched_runs")
        for name, total in totals.items():
            obs.observe(f"pipeline.stage.{name}_s", total)
        return self._profile_from_codes(codes)

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
