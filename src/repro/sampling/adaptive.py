"""The adaptive sampling controller: rounds until the CI is tight enough.

:func:`run_adaptive_study` is the study-level driver behind
``StudyConfig(sampling="adaptive")``.  Instead of committing to a
realization count up front, it generates the base plan's realizations in
rounds (each round a full checkpointed, cache-aware ensemble pass),
merges the weighted outcome tallies exactly
(:meth:`~repro.sampling.weighted.WeightedProfile.merge`), and stops as
soon as the target outcome's 95% confidence half-width falls below the
requested fraction of the estimate -- or when ``max_rounds`` is
exhausted, whichever comes first.

Each round draws from an independent child seed of ``config.seed``
(via :class:`numpy.random.SeedSequence`), so the controller is exactly
reproducible: same config, same rounds, same bits -- regardless of how
many rounds earlier invocations happened to need.

Cancellation is cooperative and round-granular: hand a
:class:`CancelToken` to ``run_adaptive_study`` and trip it from any
thread; the controller finishes the in-flight round (never tearing a
checkpoint) and returns the partial-but-valid merged result flagged
``cancelled``.  This is what lets the study service abort a running
adaptive job without corrupting its caches.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.outcomes import ScenarioMatrix
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState
from repro.errors import ConfigurationError
from repro.hazards.hurricane.ensemble import (
    EnsembleGenerator,
    HurricaneEnsemble,
)
from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.obs.manifest import (
    build_run_manifest,
    write_json_artifact,
    write_run_manifest,
)
from repro.obs.observer import (
    NULL_OBSERVER,
    NullObservability,
    Observability,
    activate,
)
from repro.sampling.generation import PlanSampledGenerator, maybe_plan_sampled
from repro.sampling.plans import AdaptivePlan, is_plain
from repro.sampling.weighted import WeightedProfile

__all__ = [
    "AdaptiveStudyResult",
    "CancelToken",
    "RoundSummary",
    "run_adaptive_study",
]


class CancelToken:
    """A thread-safe, one-way cancellation flag.

    Trip it with :meth:`cancel` from any thread; the adaptive controller
    checks it at every round boundary and stops cleanly (merged result
    intact, no torn checkpoints).
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


@dataclass(frozen=True)
class RoundSummary:
    """What one adaptive round contributed and where the estimate stood."""

    index: int
    seed: int
    n_realizations: int
    #: Cumulative realizations after this round.
    total_realizations: int
    #: The merged weighted estimate of the target outcome after this round.
    p_hat: float
    #: 95% CI half-width relative to ``p_hat`` (inf while p_hat is zero).
    rel_ci_halfwidth: float
    #: Kish effective sample size of the merged weights.
    ess: float


@dataclass(frozen=True)
class AdaptiveStudyResult:
    """A finished adaptive run: the merged study plus round diagnostics."""

    #: The merged result -- matrix, manifest, combined ensemble, weights.
    result: "object"
    plan: AdaptivePlan
    rounds: tuple[RoundSummary, ...]
    converged: bool
    cancelled: bool
    #: The (scenario, architecture, state) cell the controller targeted.
    scenario: str
    architecture: str
    state: OperationalState

    @property
    def total_realizations(self) -> int:
        return self.rounds[-1].total_realizations if self.rounds else 0

    @property
    def p_hat(self) -> float:
        return self.rounds[-1].p_hat if self.rounds else 0.0

    @property
    def rel_ci_halfwidth(self) -> float:
        return self.rounds[-1].rel_ci_halfwidth if self.rounds else float("inf")

    def confidence_interval(self) -> tuple[float, float]:
        """The merged 95% CI on the targeted outcome probability."""
        profile = self.result.matrix.get(self.scenario, self.architecture)
        return profile.confidence_interval(self.state)

    def report(self) -> str:
        """A per-round convergence table plus the final verdict."""
        lines = [
            f"Adaptive sampling ({self.plan.resolved_base().name} base, "
            f"target +/-{self.plan.target_rel_ci:.0%} on "
            f"{self.state.value!r} of {self.scenario}/{self.architecture}):"
        ]
        lines.append(
            f"{'round':>5s} {'n':>7s} {'total':>7s} {'p_hat':>10s} "
            f"{'rel CI':>8s} {'ESS':>8s}"
        )
        for r in self.rounds:
            rel = f"{r.rel_ci_halfwidth:7.1%}" if np.isfinite(
                r.rel_ci_halfwidth
            ) else "    inf"
            lines.append(
                f"{r.index:5d} {r.n_realizations:7d} {r.total_realizations:7d} "
                f"{r.p_hat:10.6f} {rel:>8s} {r.ess:8.1f}"
            )
        if self.cancelled:
            verdict = "cancelled at a round boundary"
        elif self.converged:
            verdict = (
                f"converged in {len(self.rounds)} rounds "
                f"({self.total_realizations} realizations)"
            )
        else:
            verdict = f"round budget exhausted ({len(self.rounds)} rounds)"
        lo, hi = self.confidence_interval()
        lines.append(
            f"=> {verdict}; p_hat={self.p_hat:.6f} (95% CI {lo:.6f}..{hi:.6f})"
        )
        return "\n".join(lines)


def _round_seeds(seed: int, max_rounds: int) -> list[int]:
    """Independent, reproducible per-round generation seeds."""
    state = np.random.SeedSequence(seed).generate_state(max_rounds)
    return [int(s) for s in state]


def run_adaptive_study(
    config=None,
    *,
    obs: Observability | NullObservability | None = None,
    cancel: CancelToken | None = None,
) -> AdaptiveStudyResult:
    """Run rounds of the base plan until the target CI is reached.

    ``config.sampling`` must resolve to an :class:`AdaptivePlan`.  The
    returned :class:`AdaptiveStudyResult` wraps an ordinary
    :class:`~repro.api.StudyResult` whose matrix holds the exactly-merged
    weighted profiles over every generated round, whose ensemble is the
    concatenation of the round ensembles (re-indexed), and whose weights
    cover every realization -- so ``exceedance()`` and
    ``expected_annual_loss()`` see the full tail sample.
    """
    from repro.api import StudyConfig, StudyResult, study_config_hash

    config = config or StudyConfig(sampling="adaptive")
    plan = config.resolve_sampling()
    if not isinstance(plan, AdaptivePlan):
        raise ConfigurationError(
            "run_adaptive_study needs an adaptive sampling plan; got "
            f"{plan.name if plan is not None else 'plain'!r} (set "
            "StudyConfig.sampling='adaptive' or an AdaptivePlan)"
        )
    if config.ensemble is not None:
        raise ConfigurationError(
            "adaptive sampling generates its own rounds; it cannot run "
            "over a prebuilt ensemble"
        )
    if obs is None:
        obs = Observability() if config.observability else NULL_OBSERVER
    base = plan.resolved_base()
    generator = config.resolve_generator() or standard_oahu_generator()
    if not isinstance(generator, EnsembleGenerator):
        raise ConfigurationError(
            "adaptive sampling requires a hurricane EnsembleGenerator, "
            f"not {type(generator).__name__}"
        )
    wrapped = maybe_plan_sampled(generator, base)
    architectures = config.resolve_configurations()
    placement = config.resolve_placement()
    scenarios = config.resolve_scenarios()
    chain = config.resolve_chain()
    target_state = OperationalState(plan.state)
    scenario_names = [s.name for s in scenarios]
    architecture_names = [a.name for a in architectures]
    target_scenario = plan.scenario or scenario_names[0]
    target_architecture = plan.architecture or architecture_names[0]
    if target_scenario not in scenario_names:
        raise ConfigurationError(
            f"adaptive target scenario {target_scenario!r} is not in the "
            f"study's scenarios {scenario_names}"
        )
    if target_architecture not in architecture_names:
        raise ConfigurationError(
            f"adaptive target architecture {target_architecture!r} is not "
            f"in the study's configurations {architecture_names}"
        )

    from repro.runtime.controller import RetryPolicy

    retry = RetryPolicy.from_options(config.max_retries, config.task_timeout)
    seeds = _round_seeds(config.seed, plan.max_rounds)
    merged: dict[tuple[str, str], WeightedProfile] = {}
    depth_blocks: list[np.ndarray] = []
    param_blocks: list[np.ndarray] = []
    total = 0
    weight_blocks: list[np.ndarray] = []
    rounds: list[RoundSummary] = []
    converged = False
    cancelled = False
    start = time.perf_counter()
    with activate(obs):
        with obs.span(
            "run_adaptive_study",
            base=base.name,
            target_rel_ci=plan.target_rel_ci,
        ):
            for round_index, round_seed in enumerate(seeds):
                if cancel is not None and cancel.cancelled:
                    cancelled = True
                    obs.event("sampling.cancelled", round=round_index)
                    break
                with obs.span("sampling.round", index=round_index):
                    ensemble_r = wrapped.generate(
                        count=plan.round_size,
                        seed=round_seed,
                        n_jobs=config.jobs,
                        cache_dir=config.cache_dir,
                        resume=config.resume,
                        retry=retry,
                    )
                    if isinstance(wrapped, PlanSampledGenerator):
                        weights_r = wrapped.weights(ensemble_r)
                    else:
                        # Plain base: unit weights keep every profile a
                        # mergeable WeightedProfile.
                        weights_r = np.ones(len(ensemble_r))
                    analysis = CompoundThreatAnalysis(
                        ensemble_r,
                        fragility=config.resolve_fragility(),
                        attacker=config.attacker,
                        seed=config.analysis_seed,
                        chain=chain,
                        weights=weights_r,
                    )
                    matrix_r = analysis.run_matrix(
                        architectures, placement, scenarios
                    )
                depth_blocks.append(ensemble_r.depth_view())
                param_blocks.append(ensemble_r.param_view())
                total += len(ensemble_r)
                weight_blocks.append(np.asarray(weights_r, dtype=float))
                for s_name in scenario_names:
                    for a_name in architecture_names:
                        profile = matrix_r.get(s_name, a_name)
                        key = (s_name, a_name)
                        merged[key] = (
                            merged[key].merge(profile)  # type: ignore[arg-type]
                            if key in merged
                            else profile  # type: ignore[assignment]
                        )
                target = merged[(target_scenario, target_architecture)]
                p_hat = target.probability(target_state)
                rel = target.relative_ci_halfwidth(target_state)
                rounds.append(
                    RoundSummary(
                        index=round_index,
                        seed=round_seed,
                        n_realizations=len(ensemble_r),
                        total_realizations=total,
                        p_hat=p_hat,
                        rel_ci_halfwidth=rel,
                        ess=target.effective_sample_size,
                    )
                )
                obs.inc("sampling.rounds")
                obs.set_gauge("sampling.p_hat", p_hat)
                obs.set_gauge("sampling.realizations", total)
                if np.isfinite(rel):
                    obs.set_gauge("sampling.ci_rel_halfwidth", rel)
                if p_hat > 0.0 and rel <= plan.target_rel_ci:
                    converged = True
                    break
            if not total:
                raise ConfigurationError(
                    "adaptive run was cancelled before its first round"
                )
            matrix = ScenarioMatrix(placement_label=placement.label())
            for s_name in scenario_names:
                for a_name in architecture_names:
                    matrix.add(
                        s_name, a_name, merged[(s_name, a_name)]  # type: ignore[arg-type]
                    )
            combined = HurricaneEnsemble(
                generator.scenario.name,
                np.concatenate(depth_blocks),
                ensemble_r.asset_names,
                config.seed,
                np.concatenate(param_blocks),
            )
            weights_all = np.concatenate(weight_blocks)
    wall_clock_s = time.perf_counter() - start
    ensemble_key = (
        f"adaptive-{len(rounds)}x{plan.round_size}-"
        f"{wrapped.cache_key(plan.round_size, seeds[0])}"
        if isinstance(wrapped, PlanSampledGenerator)
        else f"adaptive-{len(rounds)}x{plan.round_size}-plain-{config.seed}"
    )
    manifest = build_run_manifest(
        config_hash=study_config_hash(config, ensemble_key=ensemble_key),
        seed=config.seed,
        n_realizations=len(combined),
        configurations=architecture_names,
        scenarios=scenario_names,
        placement=placement.label(),
        chain=chain.spec(),
        region=config.region,
        hazard=config.hazard,
        obs=obs,
        wall_clock_s=wall_clock_s,
    )
    manifest["sampling"] = plan.spec()
    manifest["adaptive"] = {
        "rounds": len(rounds),
        "converged": converged,
        "cancelled": cancelled,
        "total_realizations": len(combined),
        "target": {
            "scenario": target_scenario,
            "architecture": target_architecture,
            "state": target_state.value,
            "rel_ci": plan.target_rel_ci,
        },
        "p_hat": rounds[-1].p_hat,
        "rel_ci_halfwidth": (
            rounds[-1].rel_ci_halfwidth
            if np.isfinite(rounds[-1].rel_ci_halfwidth)
            else None
        ),
    }
    if config.manifest_out is not None:
        write_run_manifest(config.manifest_out, manifest)
    if config.metrics_out is not None and obs.enabled:
        write_json_artifact(
            config.metrics_out, obs.metrics.snapshot(), "metrics snapshot"
        )
    if config.trace_out is not None and obs.enabled:
        write_json_artifact(config.trace_out, obs.tracer.to_dict(), "trace tree")
    result = StudyResult(
        config=config,
        matrix=matrix,
        manifest=manifest,
        ensemble=combined,
        observability=obs,
        weights=weights_all,
    )
    return AdaptiveStudyResult(
        result=result,
        plan=plan,
        rounds=tuple(rounds),
        converged=converged,
        cancelled=cancelled,
        scenario=target_scenario,
        architecture=target_architecture,
        state=target_state,
    )
