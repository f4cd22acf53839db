"""The supported public entrypoint: ``run_study(StudyConfig(...))``.

One call runs the paper's whole workflow -- hurricane ensemble ->
post-disaster states -> worst-case cyberattack -> outcome matrix -- and
wires the observability layer (:mod:`repro.obs`) through every stage in
one place, so scripts and sweeps never instrument by hand::

    from repro import StudyConfig, run_study

    result = run_study(StudyConfig(n_realizations=1000, jobs=4))
    print(result.report())        # the paper's scenario x architecture tables
    print(result.run_report())    # stage timings, retry/cache counters

The result is bit-identical to driving ``standard_oahu_ensemble()`` +
``CompoundThreatAnalysis`` by hand (the legacy surface, which remains
exported): the facade changes how telemetry and configuration travel,
never the numbers.  Every run can persist a ``run_manifest.json``
(config hash, seed, versions, per-stage wall clock, metric snapshot)
via ``manifest_out`` -- see ``docs/observability.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hazards.base import Hazard
    from repro.sampling.impact import ExceedanceCurve, ExpectedAnnualLoss, LossModel
    from repro.sampling.plans import SamplingPlan
    from repro.scenarios.hazards import HazardFamily
    from repro.scenarios.regions import Region

import numpy as np

from repro.core.chain import ThreatChain
from repro.core.chain import resolve_chain as _resolve_chain
from repro.core.outcomes import ScenarioMatrix
from repro.core.pipeline import Attacker, CompoundThreatAnalysis
from repro.core.report import format_matrix_report
from repro.core.threat import PAPER_SCENARIOS, ThreatScenario, get_scenario
from repro.errors import ConfigurationError
from repro.hazards.base import HazardEnsemble
from repro.hazards.fragility import FragilityModel
from repro.hazards.hurricane.ensemble import EnsembleGenerator
from repro.hazards.hurricane.standard import (
    DEFAULT_REALIZATIONS,
    DEFAULT_SEED,
    shared_standard_generator,
)
from repro.obs.manifest import (
    build_run_manifest,
    format_run_report,
    write_json_artifact,
    write_run_manifest,
)
from repro.obs.observer import (
    NULL_OBSERVER,
    NullObservability,
    Observability,
    activate,
)
from repro.scada.architectures import (
    PAPER_CONFIGURATIONS,
    ArchitectureSpec,
    get_architecture,
)
from repro.scada.placement import (
    PLACEMENT_WAIAU,
    Placement,
    get_placement,
)


@dataclass(frozen=True, kw_only=True)
class StudyConfig:
    """Everything one compound-threat study run depends on.

    All fields are keyword-only and default to the paper's case study:
    ``StudyConfig()`` is the five-configuration, four-scenario Oahu
    matrix over the standard 1000-realization ensemble.

    Architectures, scenarios, and the placement accept either the
    library objects or their registry names (``"6+6+6"``,
    ``"hurricane+intrusion"``, ``"waiau"``).
    """

    # What to analyze.
    configurations: Sequence[ArchitectureSpec | str] = PAPER_CONFIGURATIONS
    placement: Placement | str = PLACEMENT_WAIAU
    scenarios: Sequence[ThreatScenario | str] = PAPER_SCENARIOS
    # The natural-disaster input data.  ``region``/``hazard`` select a
    # registered region and hazard family from the scenario catalog
    # (:mod:`repro.scenarios`); naming either defaults the other to the
    # paper's cell ("oahu" / "hurricane").  ``generator`` and
    # ``ensemble`` remain the escape hatches for hand-built hazard data
    # and are mutually exclusive with catalog selection.
    n_realizations: int = DEFAULT_REALIZATIONS
    seed: int = DEFAULT_SEED
    region: str | None = None
    hazard: str | None = None
    generator: EnsembleGenerator | None = None
    ensemble: HazardEnsemble | None = field(default=None, compare=False)
    # Pipeline models (defaults: 0.5 m threshold, worst-case attacker).
    fragility: FragilityModel | None = None
    attacker: Attacker | None = None
    analysis_seed: int = 0
    # The threat chain each realization runs through: a registered name
    # ("paper", "grid-coupled", "earthquake", ...), a ThreatChain object,
    # or None for the paper's exact Fig. 5 pipeline.
    chain: ThreatChain | str | None = None
    # How realizations are drawn and weighted: a registered plan name
    # ("plain", "stratified", "importance", "adaptive"), a
    # :class:`~repro.sampling.SamplingPlan`, a spec dict, or None.
    # None and "plain" are the paper's sampler and take the exact legacy
    # code path (bitwise identical, same study/cache hashes); any other
    # plan reshapes the track-offset draw and aggregates under unbiased
    # importance weights (see docs/tail_risk.md).
    sampling: "SamplingPlan | str | dict | None" = None
    # How the ensemble arrives (never changes its bits).
    jobs: int = 1
    cache_dir: str | None = None
    resume: bool = False
    max_retries: int | None = None
    task_timeout: float | None = None
    # Telemetry.
    observability: bool = True
    manifest_out: str | Path | None = None
    metrics_out: str | Path | None = None
    trace_out: str | Path | None = None

    def __post_init__(self) -> None:
        # Construction-time validation reports *every* problem at once:
        # a sweep author fixing a 50-cell grid should see all the typos
        # in one traceback, not one per run attempt.
        problems: list[str] = []
        if self.n_realizations < 1:
            problems.append("n_realizations must be at least 1")
        if self.jobs < 1:
            problems.append("jobs must be at least 1")
        if not self.configurations:
            problems.append("study needs at least one configuration")
        if not self.scenarios:
            problems.append("study needs at least one scenario")
        if self.generator is not None and (
            self.region is not None or self.hazard is not None
        ):
            problems.append(
                "generator= cannot be combined with region=/hazard= "
                "(pass an explicit generator or a catalog name, not both)"
            )
        if self.ensemble is not None and (
            self.region is not None or self.hazard is not None
        ):
            problems.append(
                "ensemble= cannot be combined with region=/hazard= "
                "(pass prebuilt hazard data or a catalog name, not both)"
            )
        # Registry-name lookups resolve (or raise, listing the available
        # names) at construction, so a typo'd architecture, scenario,
        # placement, region, or hazard fails here rather than minutes
        # into a run.
        for check in (
            self.resolve_configurations,
            self.resolve_placement,
            self.resolve_scenarios,
            self._validate_catalog_names,
            self.resolve_chain,
            self._validate_sampling,
        ):
            try:
                check()
            except ConfigurationError as exc:
                problems.append(str(exc))
        problems = list(dict.fromkeys(problems))
        if len(problems) == 1:
            raise ConfigurationError(problems[0])
        if problems:
            raise ConfigurationError(
                f"invalid StudyConfig ({len(problems)} problems): "
                + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    # Normalization (names -> library objects)
    # ------------------------------------------------------------------
    def resolve_configurations(self) -> list[ArchitectureSpec]:
        return [
            get_architecture(c) if isinstance(c, str) else c
            for c in self.configurations
        ]

    def resolve_placement(self) -> Placement:
        if isinstance(self.placement, str):
            return get_placement(self.placement)
        return self.placement

    def resolve_scenarios(self) -> list[ThreatScenario]:
        return [
            get_scenario(s) if isinstance(s, str) else s for s in self.scenarios
        ]

    def resolve_chain(self) -> ThreatChain:
        chain = self.chain
        if chain is None:
            family = self.resolve_hazard_family()
            if family is not None and family.default_chain is not None:
                chain = family.default_chain
        return _resolve_chain(chain)

    def resolve_sampling(self) -> "SamplingPlan | None":
        """The normalized sampling plan (None means the plain legacy path)."""
        from repro.sampling.plans import resolve_sampling

        return resolve_sampling(self.sampling)

    def _validate_sampling(self) -> None:
        from repro.sampling.plans import AdaptivePlan, StratifiedPlan, is_plain

        plan = self.resolve_sampling()
        if is_plain(plan):
            return
        assert plan is not None
        if self.ensemble is not None:
            raise ConfigurationError(
                "sampling= cannot reshape a prebuilt ensemble=; pass a "
                "generator or a region/hazard selection instead"
            )
        generator = self.resolve_generator() or shared_standard_generator()
        if not isinstance(generator, EnsembleGenerator):
            raise ConfigurationError(
                f"sampling plan {plan.name!r} reshapes hurricane track "
                f"parameters; the resolved generator "
                f"({type(generator).__name__}) does not sample them"
            )
        # A stratified allocation must fit the realization budget; check
        # at construction so a sweep cell fails here, not mid-run.
        if isinstance(plan, StratifiedPlan):
            plan.allocate(self.n_realizations)
        elif isinstance(plan, AdaptivePlan):
            base = plan.resolved_base()
            if isinstance(base, StratifiedPlan):
                base.allocate(plan.round_size)

    # ------------------------------------------------------------------
    # Scenario-catalog resolution (region/hazard names -> objects)
    # ------------------------------------------------------------------
    def _effective_catalog_names(self) -> tuple[str | None, str | None]:
        """(region, hazard) with either defaulting the other to the paper's."""
        region, hazard = self.region, self.hazard
        if region is None and hazard is not None:
            region = "oahu"
        if hazard is None and region is not None:
            hazard = "hurricane"
        return region, hazard

    def _validate_catalog_names(self) -> None:
        region = self.resolve_region()
        family = self.resolve_hazard_family()
        if region is not None and family is not None:
            if family.name not in region.available_hazards():
                raise ConfigurationError(
                    f"region {region.name!r} has no {family.name!r} hazard "
                    f"scenario; available hazards: {region.available_hazards()}"
                )
        self.resolve_fragility()

    def resolve_region(self) -> "Region | None":
        """The registered :class:`~repro.scenarios.Region`, or None."""
        region_name, _ = self._effective_catalog_names()
        if region_name is None:
            return None
        from repro.scenarios import get_region

        return get_region(region_name)

    def resolve_hazard_family(self) -> "HazardFamily | None":
        """The registered hazard family, or None when not catalog-driven."""
        _, hazard_name = self._effective_catalog_names()
        if hazard_name is None:
            return None
        from repro.scenarios import get_hazard_family

        return get_hazard_family(hazard_name)

    def resolve_generator(self) -> "Hazard | None":
        """The hazard generator this study uses, or None for the default.

        An explicit ``generator=`` wins; otherwise a region/hazard
        selection resolves through the scenario catalog (memoized per
        region, so repeated studies share one built generator); with
        neither, None -- callers fall back to the paper's standard Oahu
        hurricane generator.
        """
        if self.generator is not None:
            return self.generator
        region_name, hazard_name = self._effective_catalog_names()
        if region_name is None or hazard_name is None:
            return None
        from repro.scenarios import get_region

        return get_region(region_name).hazard(hazard_name)

    def resolve_fragility(self) -> FragilityModel | None:
        """The fragility model, honoring the hazard family's default.

        ``fragility=None`` historically meant "the paper's 0.5 m depth
        threshold"; with a hazard family selected it means that family's
        natural default instead (e.g. PGA capacity for earthquakes), so
        ``StudyConfig(hazard="earthquake")`` never thresholds PGA in
        metres of water.
        """
        if self.fragility is not None:
            return self.fragility
        family = self.resolve_hazard_family()
        if family is None:
            return None
        return family.default_fragility()

    # ------------------------------------------------------------------
    # Supported derivation API (the sweep engine builds on these)
    # ------------------------------------------------------------------
    def replace(self, **overrides) -> "StudyConfig":
        """A copy with ``overrides`` applied, re-validated on construction.

        The grid builder (:func:`repro.sweep.sweep_grid`) derives every
        sweep cell this way; user code can too::

            kahe = StudyConfig().replace(placement="kahe")
        """
        return dataclasses.replace(self, **overrides)

    def cache_key(self) -> str:
        """The hazard-determining hash: which ensemble this study consumes.

        Two configs with the same ``cache_key()`` analyze bit-identical
        hazard data -- only hazard-side fields (the generator's scenario
        and physics, ``n_realizations``, ``seed``, or a prebuilt
        ``ensemble``'s contents) enter the hash; analysis-side fields
        (architectures, scenarios, placement, fragility, attacker,
        ``chain``, ``analysis_seed``) and delivery knobs (``jobs``,
        ``cache_dir``, telemetry) never do.  The sweep engine partitions
        its grid by this key so every group generates its ensemble
        exactly once -- which is why the chain stays out: two studies
        differing only in chain consume the same hazard bits (the chain
        enters :func:`study_config_hash` instead, so they are still
        distinct studies).
        """
        if self.ensemble is not None:
            return _prebuilt_ensemble_key(self.ensemble)
        return self._hazard_generator().cache_key(self.n_realizations, self.seed)

    def _hazard_generator(self):
        """The generator this study's hazard data comes from.

        The configured generator (or the process-wide standard one),
        wrapped in the sampling plan: a plan-sampled ensemble has
        different bits than the plain one, so the plan also enters the
        cache key and sweep groups and disk caches never mix them.
        Plain/None keep the legacy generator and key.
        """
        from repro.sampling.generation import maybe_plan_sampled

        generator = self.resolve_generator() or shared_standard_generator()
        return maybe_plan_sampled(generator, self.resolve_sampling())  # type: ignore[arg-type]


@dataclass(frozen=True)
class StudyResult:
    """What one :func:`run_study` call produced."""

    config: StudyConfig
    matrix: ScenarioMatrix
    manifest: dict
    ensemble: HazardEnsemble
    observability: Observability | NullObservability
    #: Per-realization importance weights (index order), or None for the
    #: plain unweighted path.  Recomputable from the ensemble's stored
    #: parameters, so results stay bit-reproducible across cache loads
    #: and checkpoint resumes.
    weights: np.ndarray | None = field(default=None, compare=False)

    def report(self) -> str:
        """The scenario x architecture outcome tables (paper figures)."""
        return format_matrix_report(self.matrix)

    def run_report(self) -> str:
        """Human-readable telemetry: stage timings, counters, events."""
        return format_run_report(self.manifest)

    # ------------------------------------------------------------------
    # Impact aggregates (see docs/tail_risk.md)
    # ------------------------------------------------------------------
    def impacts(self, *, loss_model: "LossModel | None" = None):
        """Per-realization load-shed / loss arrays (weighted aggregates).

        One DC load-flow cascade per distinct damage pattern, broadcast
        over the ensemble; the default :class:`~repro.sampling.LossModel`
        result is computed once and cached on the result object.
        """
        from repro.sampling.impact import compute_impacts

        if loss_model is None:
            try:
                return self._impact_cache  # type: ignore[attr-defined]
            except AttributeError:
                pass
        result = compute_impacts(
            self.ensemble,
            fragility=self.config.resolve_fragility(),
            weights=self.weights,
            loss_model=loss_model,
        )
        if loss_model is None:
            # Frozen dataclass: stash the lazily built cache.
            object.__setattr__(self, "_impact_cache", result)
        return result

    def exceedance(
        self,
        metric: str = "loss_usd",
        *,
        loss_model: "LossModel | None" = None,
    ) -> "ExceedanceCurve":
        """The weighted exceedance curve P(metric > level).

        ``metric`` is ``"loss_usd"`` (default), ``"shed_mw"``, or
        ``"served_fraction"``.
        """
        return self.impacts(loss_model=loss_model).exceedance(metric)

    def expected_annual_loss(
        self, *, loss_model: "LossModel | None" = None
    ) -> "ExpectedAnnualLoss":
        """Weighted mean event loss annualized by the event rate."""
        return self.impacts(loss_model=loss_model).expected_annual_loss()


def _prebuilt_ensemble_key(ensemble: HazardEnsemble) -> str:
    """A deterministic content key for a user-supplied ensemble.

    Hashes the identity fields plus the depth matrix when the ensemble
    exposes one, so two prebuilt ensembles with the same bits group into
    the same sweep ensemble group (and a different seed or subset never
    collides).
    """
    digest = hashlib.sha256()
    digest.update(
        json.dumps(
            {
                "kind": "repro.prebuilt_ensemble",
                "scenario_name": getattr(ensemble, "scenario_name", None),
                "seed": getattr(ensemble, "seed", None),
                "count": len(ensemble),
            },
            sort_keys=True,
        ).encode()
    )
    depth_view = getattr(ensemble, "depth_view", None)
    if callable(depth_view):
        digest.update(np.ascontiguousarray(depth_view()).tobytes())
    return f"prebuilt-{digest.hexdigest()[:32]}"


def _model_identity(model: object | None) -> str | None:
    """A stable identity string for a fragility/attacker model.

    Dataclass models (the library's) hash by their repr, so two
    thresholds differing only in ``threshold_m`` never collide; anything
    else falls back to its type name.
    """
    if model is None:
        return None
    if dataclasses.is_dataclass(model):
        return repr(model)
    return type(model).__name__


def study_config_hash(
    config: StudyConfig,
    *,
    ensemble_key: str | None = None,
) -> str:
    """A stable hash of the study identity (what ran, on which data)."""
    architectures = [a.name for a in config.resolve_configurations()]
    scenarios = [s.name for s in config.resolve_scenarios()]
    payload = {
        "kind": "repro.study_config",
        "configurations": architectures,
        "placement": config.resolve_placement().label(),
        "scenarios": scenarios,
        "n_realizations": config.n_realizations,
        "seed": config.seed,
        "analysis_seed": config.analysis_seed,
        "fragility": _model_identity(config.resolve_fragility()),
        "attacker": _model_identity(config.attacker),
        "chain": config.resolve_chain().spec(),
        "ensemble_key": ensemble_key,
    }
    # Catalog selection enters the hash only when used, so every hash
    # minted before the scenario catalog existed stays valid (service
    # result stores keyed by study_config_hash keep their cache hits).
    if config.region is not None:
        payload["region"] = config.region
    if config.hazard is not None:
        payload["hazard"] = config.hazard
    # Same contract for sampling: plain/None never enters, so hashes
    # minted before the sampling subsystem existed stay valid too.
    sampling_plan = config.resolve_sampling()
    if sampling_plan is not None and sampling_plan.name != "plain":
        payload["sampling"] = sampling_plan.spec()
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _acquire_ensemble(config: StudyConfig) -> tuple[HazardEnsemble, str | None]:
    """The study's hazard data plus its content key (for the manifest).

    The one acquisition path: :func:`run_study` calls it directly, the
    sweep engine once per ensemble group and, after a stale shared
    descriptor, from a pool worker.  A prebuilt ensemble is used as is;
    otherwise the study's generator generates (or loads from
    ``cache_dir``) with the config's ``jobs``, ``resume`` and retry
    options.
    """
    if config.ensemble is not None:
        key = getattr(config.ensemble, "seed", None)
        return config.ensemble, None if key is None else f"prebuilt-seed-{key}"
    from repro.runtime.controller import RetryPolicy

    generator = config._hazard_generator()
    ensemble = generator.generate(
        count=config.n_realizations,
        seed=config.seed,
        n_jobs=config.jobs,
        cache_dir=config.cache_dir,
        resume=config.resume,
        retry=RetryPolicy.from_options(config.max_retries, config.task_timeout),
    )
    return ensemble, generator.cache_key(config.n_realizations, config.seed)


def _study_weights(
    config: StudyConfig, ensemble: HazardEnsemble
) -> np.ndarray | None:
    """Per-realization weights under the config's plan (None for plain).

    A pure function of (plan, stored track parameters), so cached and
    resumed ensembles reweight bit-identically.
    """
    plan = config.resolve_sampling()
    if plan is None or plan.name == "plain":
        return None
    generator = config.resolve_generator() or shared_standard_generator()
    sd_km = float(generator.scenario.track_offset_sd_km)
    return plan.weights_for(ensemble, sd_km)


def _record_sampling_metrics(obs, plan, weights: np.ndarray) -> None:
    """The ``sampling.*`` counters and gauges for one weighted pass."""
    if not obs.enabled:
        return
    sum_w = float(weights.sum())
    sum_w2 = float((weights**2).sum())
    obs.inc("sampling.weighted_runs")
    obs.event("sampling.plan", plan=plan.name)
    obs.set_gauge("sampling.sum_weights", sum_w)
    obs.set_gauge(
        "sampling.ess", sum_w**2 / sum_w2 if sum_w2 > 0 else 0.0
    )
    obs.observe("sampling.weight_max", float(weights.max()))


def run_study(
    config: StudyConfig | None = None,
    *,
    obs: Observability | NullObservability | None = None,
) -> StudyResult:
    """Run one complete study and return its matrix, manifest, and data.

    Telemetry is wired here, once: the observer is activated around the
    whole run, every downstream stage (ensemble generation, retries,
    caching, fragility, attacker search, classification) reports into
    it, and the run manifest is assembled at the end.  Pass
    ``observability=False`` (or ``obs=NULL_OBSERVER``) to disable all
    instrumentation; results are bit-identical either way.
    """
    config = config or StudyConfig()
    plan = config.resolve_sampling()
    if plan is not None and plan.name == "adaptive":
        # The adaptive controller owns its own round loop; its final
        # merged result is a StudyResult like any other.
        from repro.sampling.adaptive import run_adaptive_study

        return run_adaptive_study(config, obs=obs).result
    if obs is None:
        obs = Observability() if config.observability else NULL_OBSERVER
    start = time.perf_counter()
    with activate(obs):
        with obs.span("run_study"):
            architectures = config.resolve_configurations()
            placement = config.resolve_placement()
            scenarios = config.resolve_scenarios()
            chain = config.resolve_chain()
            if config.ensemble is not None:
                # A prebuilt ensemble involves no generation work, so no
                # generation-stage span is recorded: run_report() shows
                # only stages that actually ran instead of a misleading
                # zero-duration entry.
                ensemble, ensemble_key = _acquire_ensemble(config)
            else:
                with obs.span("ensemble.acquire"):
                    ensemble, ensemble_key = _acquire_ensemble(config)
            weights = _study_weights(config, ensemble)
            if weights is not None:
                _record_sampling_metrics(obs, plan, weights)
            analysis = CompoundThreatAnalysis(
                ensemble,
                fragility=config.resolve_fragility(),
                attacker=config.attacker,
                seed=config.analysis_seed,
                chain=chain,
                weights=weights,
            )
            matrix = analysis.run_matrix(architectures, placement, scenarios)
    wall_clock_s = time.perf_counter() - start
    manifest = build_run_manifest(
        config_hash=study_config_hash(config, ensemble_key=ensemble_key),
        seed=config.seed,
        n_realizations=len(ensemble),
        configurations=[a.name for a in architectures],
        scenarios=[s.name for s in scenarios],
        placement=placement.label(),
        chain=chain.spec(),
        region=config.region,
        hazard=config.hazard,
        obs=obs,
        wall_clock_s=wall_clock_s,
    )
    if plan is not None and plan.name != "plain":
        manifest["sampling"] = plan.spec()
    if config.manifest_out is not None:
        write_run_manifest(config.manifest_out, manifest)
    if config.metrics_out is not None and obs.enabled:
        write_json_artifact(
            config.metrics_out, obs.metrics.snapshot(), "metrics snapshot"
        )
    if config.trace_out is not None and obs.enabled:
        write_json_artifact(config.trace_out, obs.tracer.to_dict(), "trace tree")
    return StudyResult(
        config=config,
        matrix=matrix,
        manifest=manifest,
        ensemble=ensemble,
        observability=obs,
        weights=weights,
    )


@dataclass(frozen=True)
class TimelineStudyResult:
    """What one :func:`run_timeline` call produced."""

    config: StudyConfig
    params: "TimelineParams"
    distributions: dict
    manifest: dict
    ensemble: HazardEnsemble
    observability: Observability | NullObservability

    def report(self) -> str:
        """Downtime tables per scenario (mean / median / p95 / unsafe)."""
        lines = []
        scenarios = {s for s, _ in self.distributions}
        for scenario in sorted(scenarios):
            lines.append(
                f"Downtime per compound event ({scenario}, "
                f"{len(self.ensemble)} realizations):"
            )
            lines.append(
                f"{'configuration':15s} {'mean':>9s} {'median':>9s} "
                f"{'p95':>9s} {'unsafe':>9s}"
            )
            for (s, arch), dist in self.distributions.items():
                if s != scenario:
                    continue
                lines.append(
                    f"{arch:15s} {dist.mean_unavailable_h:8.1f}h "
                    f"{dist.quantile_unavailable_h(0.5):8.1f}h "
                    f"{dist.quantile_unavailable_h(0.95):8.1f}h "
                    f"{dist.mean_unsafe_h:8.1f}h"
                )
        return "\n".join(lines)

    def run_report(self) -> str:
        return format_run_report(self.manifest)


def run_timeline(
    config: StudyConfig | None = None,
    *,
    params: "TimelineParams | None" = None,
    obs: Observability | NullObservability | None = None,
) -> TimelineStudyResult:
    """Roll each realization out in time: the temporal view of a study.

    The spatial study (:func:`run_study`) answers *how bad*; this facade
    answers *for how long*, simulating the compound event's unfolding
    (disaster impact -> attack onset -> isolation window -> staged
    repairs) per realization and aggregating downtime distributions per
    (scenario, architecture) cell.  It shares the study configuration
    surface: ensemble acquisition (``jobs``/``cache_dir``/``resume``),
    fragility/attacker models, ``analysis_seed`` (seeds the rollout's
    repair/cleanup sampling), and the manifest/metrics/trace artifacts.
    """
    from repro.core.timeline import CompoundEventTimeline, TimelineParams

    config = config or StudyConfig()
    timeline_plan = config.resolve_sampling()
    if timeline_plan is not None and timeline_plan.name != "plain":
        raise ConfigurationError(
            "run_timeline does not support sampling plans yet; its "
            "downtime distributions are unweighted (use sampling=None "
            "or 'plain')"
        )
    params = params or TimelineParams()
    if obs is None:
        obs = Observability() if config.observability else NULL_OBSERVER
    start = time.perf_counter()
    with activate(obs):
        with obs.span("run_timeline"):
            architectures = config.resolve_configurations()
            placement = config.resolve_placement()
            scenarios = config.resolve_scenarios()
            if config.ensemble is not None:
                ensemble, ensemble_key = _acquire_ensemble(config)
            else:
                with obs.span("ensemble.acquire"):
                    ensemble, ensemble_key = _acquire_ensemble(config)
            timeline = CompoundEventTimeline(
                params,
                fragility=config.resolve_fragility(),
                attacker=config.attacker,
            )
            distributions: dict = {}
            rollout_s = 0.0
            for scenario in scenarios:
                for architecture in architectures:
                    t0 = time.perf_counter()
                    distributions[(scenario.name, architecture.name)] = (
                        timeline.downtime_distribution(
                            architecture,
                            placement,
                            ensemble,
                            scenario,
                            seed=config.analysis_seed,
                        )
                    )
                    rollout_s += time.perf_counter() - t0
            obs.record_span(
                "timeline.rollout", rollout_s, cells=len(distributions)
            )
    wall_clock_s = time.perf_counter() - start
    manifest = build_run_manifest(
        config_hash=study_config_hash(config, ensemble_key=ensemble_key),
        seed=config.seed,
        n_realizations=len(ensemble),
        configurations=[a.name for a in architectures],
        scenarios=[s.name for s in scenarios],
        placement=placement.label(),
        chain=None,  # the rollout replaces the chain's instantaneous view
        region=config.region,
        hazard=config.hazard,
        obs=obs,
        wall_clock_s=wall_clock_s,
    )
    if config.manifest_out is not None:
        write_run_manifest(config.manifest_out, manifest)
    if config.metrics_out is not None and obs.enabled:
        write_json_artifact(
            config.metrics_out, obs.metrics.snapshot(), "metrics snapshot"
        )
    if config.trace_out is not None and obs.enabled:
        write_json_artifact(config.trace_out, obs.tracer.to_dict(), "trace tree")
    return TimelineStudyResult(
        config=config,
        params=params,
        distributions=distributions,
        manifest=manifest,
        ensemble=ensemble,
        observability=obs,
    )
