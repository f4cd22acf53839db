"""The composable threat chain: Fig. 5 as a sequence of stage transforms.

The paper's framework is a *pipeline* -- topology + hazard -> post-disaster
state -> post-attack state -> operational classification -- and every layer
the reproduction has grown since (grid power-flow cascades, WAN/power
interdependency, alternative hazards, alternative attackers) is another
state transform in that pipeline, not a fork of it.  This module makes the
pipeline explicit:

* :class:`Stage` -- the protocol every transform satisfies: a ``name``, a
  ``deterministic`` flag, and ``apply(state, ctx, rng) -> state``.
* :class:`ThreatChain` -- an ordered tuple of stages plus the executor
  that runs one realization through them and assembles the
  :class:`RealizationOutcome`.
* Built-in stages wrapping the existing layers:
  :class:`HazardImpactStage` (fragility -> flooded sites),
  :class:`InterdependencyStage` (grid contingency + WAN coupling from
  :mod:`repro.grid.storm_impact` / :mod:`repro.network.interdependency`),
  :class:`CyberAttackStage` (any :class:`Attacker`), and
  :class:`ClassificationStage` (Table I).
* A registry of named presets (``"paper"``, ``"grid-coupled"``,
  ``"earthquake"``), looked up like architectures and scenarios, so a
  :class:`~repro.api.StudyConfig` can select a chain by name.

The ``"paper"`` chain is bit-identical to the historical hardcoded
three-step loop: same rng consumption order, same states, same
classification.  ``scripts/bench_ensemble.py`` guards the executor's
overhead against the hardcoded loop (<3%).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.attacker import WorstCaseAttacker
from repro.core.batch import (
    BatchContext,
    BatchSupport,
    ChainBatch,
    ChainBatchPlan,
    _replay_attack_batch,
    classify_batch,
)
from repro.core.evaluator import evaluate
from repro.core.states import OperationalState
from repro.core.system_state import SystemState, initial_state
from repro.core.threat import CyberAttackBudget, ThreatScenario
from repro.errors import ConfigurationError
from repro.hazards.base import HazardRealization
from repro.hazards.fragility import FragilityModel, ThresholdFragility
from repro.registry import Registry
from repro.scada.architectures import ArchitectureSpec
from repro.scada.placement import Placement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.grid.model import GridModel
    from repro.network.interdependency import InterdependencyParams
    from repro.network.topology import WANTopology


@runtime_checkable
class Attacker(Protocol):
    """Anything that spends an attack budget on a post-disaster state."""

    name: str

    def attack(
        self,
        state: SystemState,
        budget: CyberAttackBudget,
        rng: np.random.Generator | None = None,
    ) -> SystemState:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True, slots=True)
class RealizationOutcome:
    """Full trace of one realization through the pipeline."""

    realization_index: int
    post_disaster: SystemState
    post_attack: SystemState
    state: OperationalState


class ChainContext:
    """Everything one realization's chain run can read (and annotate).

    One context is built per :meth:`CompoundThreatAnalysis.run` call and
    reused across realizations (the executor resets the per-realization
    slots), so the hot loop allocates nothing but the states themselves.

    ``fragility`` and ``attacker`` are the *analysis-level* models; stages
    constructed without their own model inherit these.  ``extras`` is a
    scratch mapping stages use to hand data downstream (e.g. the hazard
    stage publishes ``"failed_assets"``; the interdependency stage
    publishes its coupling summary).  ``stage_seconds`` accumulates each
    stage's wall-clock by name across every :meth:`ThreatChain.run` on
    this context.
    """

    __slots__ = (
        "architecture",
        "placement",
        "scenario",
        "realization",
        "fragility",
        "attacker",
        "classified",
        "extras",
        "stage_seconds",
    )

    def __init__(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
        realization: HazardRealization | None = None,
        *,
        fragility: FragilityModel | None = None,
        attacker: Attacker | None = None,
    ) -> None:
        self.architecture = architecture
        self.placement = placement
        self.scenario = scenario
        self.realization = realization
        self.fragility = fragility if fragility is not None else ThresholdFragility()
        self.attacker = attacker if attacker is not None else WorstCaseAttacker()
        self.classified: OperationalState | None = None
        self.extras: dict[str, object] = {}
        self.stage_seconds: dict[str, float] = {}

    def failed_assets(self, rng: np.random.Generator | None) -> frozenset[str]:
        """The current realization's failed assets under ``fragility``."""
        if self.realization is None:
            raise ConfigurationError("chain context has no realization")
        return self.realization.failed_assets(self.fragility, rng)

    def base_state(self) -> SystemState:
        """The deployed architecture untouched by any hazard."""
        return initial_state(self.architecture, self.placement, ())


@runtime_checkable
class Stage(Protocol):
    """One transform of the threat chain.

    ``deterministic`` declares whether ``apply`` is a pure function of
    ``(state, ctx.realization)`` -- i.e. never consumes the rng.  It is
    recorded per stage in :meth:`ThreatChain.spec`, which enters the run
    manifest and :func:`~repro.api.study_config_hash`, so a stochastic
    stage must not claim determinism.
    """

    name: str

    @property
    def deterministic(self) -> bool:
        ...  # pragma: no cover - protocol

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        ...  # pragma: no cover - protocol


@runtime_checkable
class BatchedStage(Stage, Protocol):
    """A stage that can also run as one fused pass over the whole grid.

    ``apply_batch`` is the batched analogue of ``apply``: it transforms
    a :class:`~repro.core.batch.ChainBatch` (``None`` meaning "no stage
    has run yet", exactly like ``apply``'s ``None`` state) under a
    :class:`~repro.core.batch.BatchContext` and must be bitwise-faithful
    to applying the scalar stage per realization.

    A stage declares whether it can batch under a *specific* context,
    and how, through the optional ``batch_support(ctx,
    upstream_failed=...) -> BatchSupport``: it may decline with a
    reason, and a stage wrapping a *stochastic* model declares how many
    uniform draws one scalar application consumes per realization (the
    RNG-draw contract), then reads the executor-provided ``ctx.draws``
    column block in ``apply_batch`` instead of the rng.
    :meth:`ThreatChain.batch_plan` folds the declarations into a
    :class:`~repro.core.batch.ChainBatchPlan`; ``upstream_failed`` tells
    the stage whether a failed-grid-producing stage precedes it in the
    chain.  A stage with ``apply_batch`` and no ``batch_support`` is
    draw-free and always batches; custom stages without ``apply_batch``
    keep the per-realization executor.
    """

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class HazardImpactStage:
    """Fig. 5 box one: natural-disaster impact via the fragility model.

    With ``fragility=None`` (the presets) the stage inherits the
    analysis-level model from the context.
    """

    fragility: FragilityModel | None = None
    name: str = "fragility"

    #: The state this stage produces is the chain's post-disaster state.
    captures = "post_disaster"
    #: Its batched pass publishes the failed-asset grid (``batch.failed``)
    #: for downstream stages -- ``batch_plan`` tracks this so stages after
    #: it know they will be fed the grid instead of computing their own.
    emits_failed_grid = True

    @property
    def deterministic(self) -> bool:
        # An inherited model is not part of the stage, so the stage
        # itself counts as deterministic (this flag enters spec()).
        if self.fragility is None:
            return True
        return bool(getattr(self.fragility, "deterministic", False))

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        model = self.fragility if self.fragility is not None else ctx.fragility
        failed = ctx.realization.failed_assets(model, rng)
        ctx.extras["failed_assets"] = failed
        return initial_state(ctx.architecture, ctx.placement, failed)

    def batch_support(
        self, ctx: BatchContext, upstream_failed: bool = False
    ) -> BatchSupport:
        model = self.fragility if self.fragility is not None else ctx.fragility
        if getattr(model, "deterministic", False):
            return BatchSupport(True)
        if not getattr(model, "batch_sampling", False):
            return BatchSupport(
                False,
                f"fragility model {type(model).__name__} does not declare "
                "the RNG-draw batch-sampling contract",
            )
        # One uniform draw per asset per realization -- the scalar
        # failed_assets stride under the RNG-draw contract.
        return BatchSupport(True, draws=len(ctx.asset_names))

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        # Like `apply`, the hazard stage ignores any incoming state: its
        # output is the post-disaster initial state for every realization.
        model = self.fragility if self.fragility is not None else ctx.fragility
        if getattr(model, "deterministic", False):
            failed = ctx.failure_matrix(self.fragility)
        else:
            if ctx.draws is None:
                raise ConfigurationError(
                    "batched stochastic fragility needs the executor's "
                    "draw block (run through ThreatChain.run_batch)"
                )
            # Probabilities are a pure function of the depth grid and
            # memoized across cells; the sampled outcomes are not (each
            # cell draws its own fresh stream, like the scalar loop).
            failed = model.sample_failure_matrix(
                ctx.depths, ctx.draws, probabilities=ctx.probability_matrix(model)
            )
        fresh = ctx.fresh_batch(failed)
        if batch is not None and batch.classified is not None:
            # A classification recorded earlier in the chain survives,
            # exactly as `ctx.classified` does in the scalar executor.
            fresh = fresh.replace(classified=batch.classified)
        return fresh


class InterdependencyStage:
    """Grid/WAN coupling: the disaster's *indirect* control-site outages.

    The same realization that floods control sites also floods grid buses
    (:mod:`repro.grid.storm_impact`); the surviving grid re-islands under
    a cascade, WAN PoPs on badly-shed islands go dark, and dark PoPs
    partition the WAN (:mod:`repro.network.interdependency`).  Control
    sites cut off from the largest mutually-reachable site group become
    ``isolated`` in the system state -- so the downstream attack and
    classification stages see the compound (grid + comms) impact, not
    just the direct inundation.

    The coupling is deterministic per failed-bus set and memoized on the
    stage instance, so an ensemble pays one cascade per *distinct* damage
    pattern (most realizations damage nothing and share one entry).
    """

    name = "interdependency"
    deterministic = True
    captures = "post_disaster"
    #: Its batched pass back-fills ``batch.failed`` when no hazard stage
    #: ran before it, so downstream stages see the grid either way.
    emits_failed_grid = True

    def __init__(
        self,
        grid: "GridModel | None" = None,
        wan: "WANTopology | None" = None,
        pop_to_bus: dict[str, str] | None = None,
        params: "InterdependencyParams | None" = None,
    ) -> None:
        self._grid = grid
        self._wan = wan
        self._pop_to_bus = dict(pop_to_bus) if pop_to_bus is not None else None
        self._params = params
        self._coupling_cache: dict[frozenset[str], tuple[frozenset[str], dict]] = {}

    def _materialize(self):
        """Build the default Oahu grid/WAN substrate lazily, once."""
        from repro.network.interdependency import OAHU_POP_POWER, InterdependencyParams

        if self._params is None:
            self._params = InterdependencyParams()
        if self._grid is None:
            from repro.grid.model import build_oahu_grid

            self._grid = build_oahu_grid()
        if self._wan is None:
            from repro.geo import (
                DRFORTRESS,
                HONOLULU_CC,
                KAHE_CC,
                WAIAU_CC,
                build_oahu_catalog,
            )
            from repro.network.topology import build_site_wan

            self._wan = build_site_wan(
                build_oahu_catalog(),
                [HONOLULU_CC, WAIAU_CC, KAHE_CC, DRFORTRESS],
            )
        if self._pop_to_bus is None:
            self._pop_to_bus = dict(OAHU_POP_POWER)
        return self._grid, self._wan, self._pop_to_bus, self._params

    def _coupling(self, failed: frozenset[str]) -> tuple[frozenset[str], dict]:
        """(isolated control sites, summary) for one damage pattern."""
        import networkx as nx

        from repro.errors import NetworkModelError
        from repro.grid.contingency import simulate_contingency
        from repro.grid.storm_impact import damaged_grid

        grid, wan, pop_to_bus, params = self._materialize()
        out_buses = frozenset(name for name in failed if name in grid.buses)
        try:
            return self._coupling_cache[out_buses]
        except KeyError:
            pass
        survivor, shed = damaged_grid(grid, out_buses)
        degenerate = (
            not survivor.lines
            or not survivor.generators
            or survivor.total_demand_mw == 0
        )
        scada = True
        rounds = 0
        served_mw = 0.0
        while True:
            rounds += 1
            if rounds > params.max_rounds:
                raise NetworkModelError(
                    "interdependency cascade did not converge"
                )
            bus_service: dict[str, float] = {}
            if not degenerate:
                cascade = simulate_contingency(survivor, set(), scada)
                for island in cascade.islands:
                    fraction = (
                        island.served_mw / island.demand_mw
                        if island.demand_mw > 0
                        else 1.0
                    )
                    for bus in island.buses:
                        bus_service[bus] = fraction
                served_mw = cascade.served_fraction * survivor.total_demand_mw
            dead = {
                pop
                for pop, bus in pop_to_bus.items()
                if bus in out_buses
                or bus_service.get(bus, 0.0) < params.pop_power_threshold
            }
            graph = wan.graph.copy()
            graph.remove_nodes_from(dead)
            best_group: frozenset[str] = frozenset()
            for component in nx.connected_components(graph):
                group = frozenset(component & wan.site_nodes)
                if len(group) > len(best_group):
                    best_group = group
            scada_next = scada and len(best_group) >= params.required_connected_sites
            if scada_next == scada:
                break
            scada = scada_next
        isolated = frozenset(wan.site_nodes - best_group)
        summary = {
            "out_buses": tuple(sorted(out_buses)),
            "shed_at_damaged_mw": shed,
            "served_fraction": (
                served_mw / grid.total_demand_mw if grid.total_demand_mw > 0 else 1.0
            ),
            "scada_operational": scada,
            "dead_pops": tuple(sorted(dead)),
            "connected_sites": len(best_group),
            "rounds": rounds,
        }
        self._coupling_cache[out_buses] = (isolated, summary)
        return isolated, summary

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        if state is None:
            state = ctx.base_state()
        failed = ctx.extras.get("failed_assets")
        if failed is None:
            failed = ctx.failed_assets(rng)
            ctx.extras["failed_assets"] = failed
        isolated, summary = self._coupling(frozenset(failed))
        ctx.extras["interdependency"] = summary
        if isolated:
            for index, site in enumerate(state.sites):
                if site.asset_name in isolated and not site.isolated:
                    state = state.with_isolation(index)
        return state

    def batch_support(
        self, ctx: BatchContext, upstream_failed: bool = False
    ) -> BatchSupport:
        # Fed an upstream failed grid (the registered chains always put
        # a hazard stage first) the coupling is a pure function of it --
        # stochastic fragility included, since the hazard stage already
        # sampled.  Only when the stage would have to compute the grid
        # itself does it need a deterministic analysis-level model.
        if upstream_failed or getattr(ctx.fragility, "deterministic", False):
            return BatchSupport(True)
        return BatchSupport(
            False,
            "no upstream hazard stage and the analysis fragility model "
            "is stochastic; the coupling cannot sample it",
        )

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        from repro.grid.storm_impact import damage_pattern_groups

        if batch is None:
            batch = ctx.base_batch()
        failed = batch.failed
        if failed is None:
            failed = ctx.failure_matrix()
            batch = batch.replace(failed=failed)
        grid, _wan, _pop_to_bus, _params = self._materialize()
        # One coupling call per distinct damage pattern, through the same
        # memo the scalar path uses (identical cache keys: both reduce
        # the failed set to its grid-bus subset before lookup).
        patterns, inverse = damage_pattern_groups(
            failed, ctx.asset_names, frozenset(grid.buses)
        )
        masks = np.zeros((len(patterns), len(ctx.site_names)), dtype=bool)
        for p, pattern in enumerate(patterns):
            isolated, _summary = self._coupling(pattern)
            if isolated:
                for j, name in enumerate(ctx.site_names):
                    if name in isolated:
                        masks[p, j] = True
        return batch.replace(isolated=batch.isolated | masks[inverse])


@dataclass(frozen=True)
class CyberAttackStage:
    """Fig. 5 box two: the follow-on cyberattack spends its budget.

    With ``attacker=None`` (the presets) the stage inherits the
    analysis-level attacker from the context, so ``StudyConfig.attacker``
    and ``CompoundThreatAnalysis(attacker=...)`` keep working.
    """

    attacker: Attacker | None = None
    name: str = "cyberattack"

    #: The state this stage produces is the chain's post-attack state.
    captures = "post_attack"

    @property
    def deterministic(self) -> bool:
        # An inherited attacker is not part of the stage; an explicit
        # one reports its own flag (absent -> assume stochastic).
        if self.attacker is None:
            return True
        return bool(getattr(self.attacker, "deterministic", False))

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        if state is None:
            state = ctx.base_state()
        attacker = self.attacker if self.attacker is not None else ctx.attacker
        return attacker.attack(state, ctx.scenario.budget, rng)

    def batch_support(
        self, ctx: BatchContext, upstream_failed: bool = False
    ) -> BatchSupport:
        attacker = self.attacker if self.attacker is not None else ctx.attacker
        if getattr(attacker, "deterministic", False):
            # Deterministic attackers batch draw-free: a native kernel
            # when they have one, per-pattern replay otherwise.
            return BatchSupport(True)
        # A stochastic attacker batches under the RNG-draw contract: it
        # must declare its per-realization draw count (batch_draws) and
        # provide a native kernel consuming the executor's draw block.
        counter = getattr(attacker, "batch_draws", None)
        if callable(counter) and callable(getattr(attacker, "attack_batch", None)):
            return BatchSupport(True, draws=int(counter(ctx.scenario.budget)))
        label = getattr(attacker, "name", type(attacker).__name__)
        return BatchSupport(
            False,
            f"attacker {label!r} is stochastic without an RNG-draw "
            "batched kernel (attack_batch + batch_draws)",
        )

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        if batch is None:
            batch = ctx.base_batch()
        attacker = self.attacker if self.attacker is not None else ctx.attacker
        native = getattr(attacker, "attack_batch", None)
        if callable(native):
            if ctx.draws is not None:
                isolated, intrusions = native(
                    ctx.architecture,
                    batch.flooded,
                    batch.isolated,
                    batch.intrusions,
                    ctx.scenario.budget,
                    draws=ctx.draws,
                )
            else:
                # Draw-free stages keep the historical 5-argument call,
                # so custom attackers with the old signature still work.
                isolated, intrusions = native(
                    ctx.architecture,
                    batch.flooded,
                    batch.isolated,
                    batch.intrusions,
                    ctx.scenario.budget,
                )
        else:
            isolated, intrusions = _replay_attack_batch(attacker, ctx, batch)
        return batch.replace(isolated=isolated, intrusions=intrusions)


@dataclass(frozen=True)
class ClassificationStage:
    """Fig. 5 box three: Table I maps the final state to a color."""

    name: str = "classification"
    deterministic: bool = True

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        if state is None:
            state = ctx.base_state()
        ctx.classified = evaluate(state)
        return state

    def batch_support(
        self, ctx: BatchContext, upstream_failed: bool = False
    ) -> BatchSupport:
        return BatchSupport(True)

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        if batch is None:
            batch = ctx.base_batch()
        return batch.replace(classified=classify_batch(ctx, batch))


@dataclass(frozen=True)
class NoOpStage:
    """An identity stage; exists for composition tests and as a template."""

    name: str = "noop"
    deterministic: bool = True

    def apply(
        self,
        state: SystemState | None,
        ctx: ChainContext,
        rng: np.random.Generator | None,
    ) -> SystemState:
        return state

    def apply_batch(
        self,
        batch: ChainBatch | None,
        ctx: BatchContext,
        rng: np.random.Generator | None,
    ) -> ChainBatch:
        return batch if batch is not None else ctx.base_batch()


@dataclass(frozen=True)
class ThreatChain:
    """An ordered pipeline of stages plus its per-realization executor.

    Stage names need not be unique; per-stage timings accumulate by name.
    A chain without a :class:`ClassificationStage` still classifies: the
    executor evaluates the final state when no stage did.
    """

    name: str
    stages: tuple[Stage, ...]
    description: str = ""
    #: ``(stage, name, captures)`` per stage, resolved once for the
    #: executors' loops.
    _steps: tuple[tuple[Stage, str, str | None], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("a threat chain needs at least one stage")
        for stage in self.stages:
            if not getattr(stage, "name", None) or not hasattr(stage, "apply"):
                raise ConfigurationError(
                    f"{stage!r} does not satisfy the Stage protocol "
                    "(needs a name and an apply method)"
                )
        steps = tuple(
            (stage, stage.name, getattr(stage, "captures", None))
            for stage in self.stages
        )
        object.__setattr__(self, "_steps", steps)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def spec(self) -> dict:
        """The resolved chain description recorded in run manifests."""
        return {
            "name": self.name,
            "stages": [
                {
                    "name": stage.name,
                    "type": type(stage).__name__,
                    "deterministic": bool(stage.deterministic),
                }
                for stage in self.stages
            ],
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, ctx: ChainContext, rng: np.random.Generator | None
    ) -> RealizationOutcome:
        """One realization through every stage, with state snapshots.

        Each stage's wall-clock accumulates by name in
        ``ctx.stage_seconds`` (one ``perf_counter`` reading per stage
        boundary).
        """
        perf = time.perf_counter
        totals = ctx.stage_seconds
        ctx.classified = None
        ctx.extras.clear()
        state: SystemState | None = None
        snapshots: dict[str, SystemState] = {}
        t0 = perf()
        for stage, name, captures in self._steps:
            state = stage.apply(state, ctx, rng)
            if captures is not None:
                snapshots[captures] = state
            t1 = perf()
            totals[name] = totals.get(name, 0.0) + (t1 - t0)
            t0 = t1
        return self._outcome(ctx, state, snapshots)

    def batch_plan(self, ctx: BatchContext) -> ChainBatchPlan:
        """The chain's batch capability and per-stage rng-draw layout.

        Walks the stages collecting their :class:`BatchSupport`
        declarations; a stage with ``apply_batch`` and no
        ``batch_support`` is draw-free.  ``upstream_failed`` tracks
        whether a failed-grid-producing stage precedes, so e.g. the
        interdependency coupling batches under stochastic fragility
        whenever a hazard stage feeds it.  A stage without
        ``apply_batch``, or one that declines, yields a not-``ok`` plan
        whose reason names the obstacle; the pipeline's executor
        selection and the ``batch.fallback`` counter consume it.
        """
        stage_draws: list[int] = []
        upstream_failed = False
        for stage in self.stages:
            if not callable(getattr(stage, "apply_batch", None)):
                return ChainBatchPlan(
                    False,
                    f"stage {stage.name!r} has no batched implementation",
                    stage=stage.name,
                )
            probe = getattr(stage, "batch_support", None)
            draws = 0
            if callable(probe):
                support = probe(ctx, upstream_failed=upstream_failed)
                if not support.ok:
                    return ChainBatchPlan(
                        False,
                        f"stage {stage.name!r}: {support.reason}",
                        stage=stage.name,
                    )
                draws = int(support.draws)
            stage_draws.append(draws)
            if getattr(stage, "emits_failed_grid", False):
                upstream_failed = True
        return ChainBatchPlan(True, None, tuple(stage_draws))

    def run_batch(
        self,
        ctx: BatchContext,
        rng: np.random.Generator | None,
        plan: ChainBatchPlan | None = None,
    ) -> np.ndarray:
        """Every realization through every stage as fused numpy passes.

        Returns ``(n_realizations,)`` severity codes indexing
        :data:`~repro.core.states.STATE_ORDER` -- the batched analogue of
        mapping :meth:`run` over the ensemble, bitwise identical to it
        for the built-in stages.  Stochastic stages replay the
        per-realization rng stream from one up-front matrix draw (the
        RNG-draw contract): the executor hands each stage its column
        block through ``ctx.draws``.  Each stage's wall-clock
        accumulates by name in ``ctx.stage_seconds``.
        """
        perf = time.perf_counter
        totals = ctx.stage_seconds
        blocks = self._draw_blocks(ctx, rng, plan)
        batch: ChainBatch | None = None
        try:
            for (stage, name, _), block in zip(self._steps, blocks):
                t0 = perf()
                ctx.draws = block
                batch = getattr(stage, "apply_batch")(batch, ctx, rng)
                totals[name] = totals.get(name, 0.0) + (perf() - t0)
        finally:
            ctx.draws = None
        return self._batch_codes(ctx, batch)

    def _draw_blocks(
        self,
        ctx: BatchContext,
        rng: np.random.Generator | None,
        plan: ChainBatchPlan | None,
    ) -> tuple[np.ndarray | None, ...]:
        """Materialize the per-stage draw blocks for one batched run."""
        if plan is None:
            plan = self.batch_plan(ctx)
        if not plan.ok or len(plan.stage_draws) != len(self.stages):
            return tuple(None for _ in self.stages)
        return plan.draw_blocks(ctx.n_realizations, rng)

    def _batch_codes(
        self, ctx: BatchContext, batch: ChainBatch | None
    ) -> np.ndarray:
        # Mirror run()'s tail: a chain that never classified
        # evaluates its final state (base state when no stage produced one).
        if batch is None:
            batch = ctx.base_batch()
        if batch.classified is not None:
            return batch.classified
        return classify_batch(ctx, batch)

    def _outcome(
        self,
        ctx: ChainContext,
        state: SystemState | None,
        snapshots: dict[str, SystemState],
    ) -> RealizationOutcome:
        if state is None:
            state = ctx.base_state()
        post_attack = snapshots.get("post_attack", state)
        post_disaster = snapshots.get("post_disaster", post_attack)
        classified = ctx.classified
        if classified is None:
            classified = evaluate(state)
        return RealizationOutcome(
            ctx.realization.index, post_disaster, post_attack, classified
        )


# ----------------------------------------------------------------------
# Registry (mirrors architectures / scenarios)
# ----------------------------------------------------------------------
_CHAINS: Registry[ThreatChain] = Registry("threat chain", plural="chains")


def register_chain(chain: ThreatChain, *, replace: bool = False) -> ThreatChain:
    """Register a chain under its name; returns it for assignment."""
    return _CHAINS.register(chain.name, chain, replace=replace)


def get_chain(name: str) -> ThreatChain:
    """Look up a registered threat chain by name."""
    return _CHAINS.get(name)


def available_chains() -> list[str]:
    """Registered chain names, sorted."""
    return _CHAINS.available()


def resolve_chain(chain: "ThreatChain | str | None") -> ThreatChain:
    """Normalize a chain argument: ``None`` -> paper, name -> registry."""
    if chain is None:
        return CHAIN_PAPER
    if isinstance(chain, str):
        return get_chain(chain)
    if not isinstance(chain, ThreatChain):
        raise ConfigurationError(
            f"chain must be a ThreatChain or a registered name, "
            f"not {type(chain).__name__}"
        )
    return chain


#: The paper's Fig. 5 stages: fragility -> worst-case attack -> Table I.
#: The paper, earthquake and flood presets all run exactly these.
FIG5_STAGES = (HazardImpactStage(), CyberAttackStage(), ClassificationStage())

#: The paper's exact Fig. 5 pipeline (bit-identical to the historical
#: hardcoded loop).
CHAIN_PAPER = register_chain(
    ThreatChain(
        name="paper",
        stages=FIG5_STAGES,
        description="The paper's three-stage pipeline (Fig. 5).",
    )
)

#: The paper pipeline with the grid/WAN interdependency coupling between
#: disaster impact and attack: storm-damaged buses cascade, dark PoPs
#: partition the WAN, and cut-off control sites enter the attack stage
#: already isolated.
CHAIN_GRID_COUPLED = register_chain(
    ThreatChain(
        name="grid-coupled",
        stages=(
            HazardImpactStage(),
            InterdependencyStage(),
            CyberAttackStage(),
            ClassificationStage(),
        ),
        description=(
            "Fig. 5 plus the grid contingency / WAN interdependency "
            "coupling between the disaster and the attack."
        ),
    )
)

#: The hazard-agnostic chain for non-inundation disasters: identical
#: stage structure to "paper", relying only on the hazard substrate's
#: ``failed_assets`` contract (pair with e.g. ``seismic_fragility()``).
CHAIN_EARTHQUAKE = register_chain(
    ThreatChain(
        name="earthquake",
        stages=FIG5_STAGES,
        description=(
            "The Fig. 5 stages over any failed-assets hazard; the "
            "earthquake ensemble's PGA realizations plug in unchanged."
        ),
    )
)

#: Riverine flooding shares the hurricane's intensity measure (depth in
#: metres), so the flood preset is the same stage structure again -- the
#: flood ensemble's depth realizations plug straight into the default
#: ThresholdFragility.
CHAIN_FLOOD = register_chain(
    ThreatChain(
        name="flood",
        stages=FIG5_STAGES,
        description=(
            "The Fig. 5 stages over the riverine flood ensemble's "
            "depth realizations."
        ),
    )
)
