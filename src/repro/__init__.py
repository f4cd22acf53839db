"""Data-centric analysis of compound threats to power-grid SCADA systems.

A reproduction of Bommareddy et al., "Data-Centric Analysis of Compound
Threats to Critical Infrastructure Control Systems" (DSN-W 2022): a
compound threat model (hurricane + follow-on cyberattack), a data-centric
evaluation framework, and the Oahu, Hawaii case study -- together with
every substrate the analysis depends on (hurricane surge simulation,
synthetic island geography, SCADA architecture models, an
intrusion-tolerant replication engine, a WAN attack model, and a power
grid).

Quickstart::

    from repro import StudyConfig, run_study

    result = run_study(StudyConfig())   # the paper's full Oahu matrix
    print(result.report())              # scenario x architecture tables
    print(result.run_report())          # stage timings + run counters

``run_study`` is the supported surface: one call generates the
1000-realization ensemble, runs every (scenario, architecture) cell,
and wires the observability layer (:mod:`repro.obs`) through each stage
-- pass ``manifest_out="run_manifest.json"`` to persist the run
manifest.  The building blocks it composes
(:func:`standard_oahu_ensemble`, :class:`CompoundThreatAnalysis`, ...)
remain exported for piecewise use; see ``docs/api_guide.md`` for the
migration table.

The scenario catalog names studies instead of wiring objects:
``StudyConfig(region="oahu", hazard="earthquake")`` selects a registered
:class:`Region` and hazard family, and :func:`register_scenario_pack`
adds new regions from on-disk packs (see ``docs/scenario_packs.md``).

Tail-risk estimation rides the same facade:
``StudyConfig(sampling="importance")`` reweights the hazard draw toward
damaging tracks (unbiased, with honest CIs),
:func:`repro.sampling.run_adaptive_study` runs rounds until a target CI,
and :meth:`StudyResult.exceedance` /
:meth:`StudyResult.expected_annual_loss` turn any study into loss
exceedance curves (see ``docs/tail_risk.md``).
"""

from repro.api import (
    StudyConfig,
    StudyResult,
    TimelineStudyResult,
    run_study,
    run_timeline,
)
from repro.sweep import StudyCell, SweepResult, run_sweep, sweep_grid

# Importing repro.sampling also registers the "tail-risk" threat chain.
from repro.sampling import (
    AdaptivePlan,
    ExceedanceCurve,
    ExpectedAnnualLoss,
    ImportancePlan,
    LossModel,
    SamplingPlan,
    StratifiedPlan,
    WeightedProfile,
    available_sampling_plans,
    run_adaptive_study,
)

from repro.core import (
    PAPER_SCENARIOS,
    ClassificationStage,
    CompoundThreatAnalysis,
    CyberAttackBudget,
    CyberAttackStage,
    ExhaustiveAttacker,
    HazardImpactStage,
    InterdependencyStage,
    OperationalProfile,
    OperationalState,
    ProbabilisticAttacker,
    ScenarioMatrix,
    Stage,
    SystemState,
    ThreatChain,
    ThreatScenario,
    WorstCaseAttacker,
    available_chains,
    evaluate,
    format_matrix_report,
    get_chain,
    get_scenario,
    initial_state,
    register_chain,
)
from repro.geo import oahu_case_study
from repro.hazards import LogisticFragility, ThresholdFragility
from repro.hazards.hurricane import (
    EnsembleGenerator,
    HurricaneEnsemble,
    HurricaneScenarioSpec,
    standard_oahu_ensemble,
)
from repro.obs import NULL_OBSERVER, Observability, format_run_report
from repro.scenarios import (
    HazardFamily,
    Region,
    ScenarioPack,
    available_hazard_families,
    available_regions,
    get_hazard_family,
    get_region,
    load_scenario_pack,
    register_hazard_family,
    register_region,
    register_scenario_pack,
)
from repro.scada import (
    PAPER_CONFIGURATIONS,
    PLACEMENT_KAHE,
    PLACEMENT_WAIAU,
    ArchitectureSpec,
    FailoverPolicy,
    Placement,
    get_architecture,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # the supported facade (see docs/api_guide.md)
    "StudyConfig",
    "StudyResult",
    "run_study",
    "run_timeline",
    "TimelineStudyResult",
    # threat chains (see docs/architecture.md)
    "Stage",
    "ThreatChain",
    "HazardImpactStage",
    "InterdependencyStage",
    "CyberAttackStage",
    "ClassificationStage",
    "get_chain",
    "register_chain",
    "available_chains",
    # batch sweeps (see docs/api_guide.md, "Sweeps")
    "run_sweep",
    "sweep_grid",
    "SweepResult",
    "StudyCell",
    # tail-risk sampling and impacts (see docs/tail_risk.md)
    "SamplingPlan",
    "StratifiedPlan",
    "ImportancePlan",
    "AdaptivePlan",
    "available_sampling_plans",
    "run_adaptive_study",
    "WeightedProfile",
    "ExceedanceCurve",
    "ExpectedAnnualLoss",
    "LossModel",
    # observability
    "Observability",
    "NULL_OBSERVER",
    "format_run_report",
    # core framework
    "CompoundThreatAnalysis",
    "OperationalState",
    "OperationalProfile",
    "ScenarioMatrix",
    "SystemState",
    "initial_state",
    "evaluate",
    "ThreatScenario",
    "CyberAttackBudget",
    "PAPER_SCENARIOS",
    "get_scenario",
    "WorstCaseAttacker",
    "ExhaustiveAttacker",
    "ProbabilisticAttacker",
    "format_matrix_report",
    # scenario catalog (see docs/scenario_packs.md)
    "Region",
    "get_region",
    "register_region",
    "available_regions",
    "HazardFamily",
    "get_hazard_family",
    "register_hazard_family",
    "available_hazard_families",
    "ScenarioPack",
    "load_scenario_pack",
    "register_scenario_pack",
    # hazard substrate
    "HurricaneEnsemble",
    "HurricaneScenarioSpec",
    "EnsembleGenerator",
    "standard_oahu_ensemble",
    "ThresholdFragility",
    "LogisticFragility",
    # SCADA substrate
    "ArchitectureSpec",
    "PAPER_CONFIGURATIONS",
    "get_architecture",
    "Placement",
    "PLACEMENT_WAIAU",
    "PLACEMENT_KAHE",
    "FailoverPolicy",
    # geography
    "oahu_case_study",
]
