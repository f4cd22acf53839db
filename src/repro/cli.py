"""Command-line interface: ``compound-threats`` / ``python -m repro``.

Subcommands mirror the paper's workflow:

* ``run``         -- the supported entrypoint: build a ``StudyConfig``,
                     call :func:`repro.run_study`, print the matrix, and
                     optionally persist ``run_manifest.json`` /
                     ``--metrics-out`` / ``--trace-out`` telemetry.
* ``sweep``       -- run a grid of studies through
                     :func:`repro.sweep.run_sweep`: repeatable axis flags
                     build the cross-product, hazard ensembles are
                     deduplicated across the grid, and ``--sweep-dir`` /
                     ``--resume`` checkpoint at study granularity.
* ``serve``       -- run the always-on study service
                     (:mod:`repro.service`): submit/status/result over
                     HTTP with a bounded admission queue, persistent
                     result store, and journal-backed restart recovery.
* ``pack``        -- validate or describe a scenario pack
                     (``pack validate PATH`` / ``pack info PATH``).
* ``ensemble``    -- generate the hurricane realizations (CSV output).
* ``figures``     -- regenerate every paper figure as text charts.
* ``siting``      -- rank backup control-center locations.
* ``bft-demo``    -- run the replication engine under compound faults.
* ``grid-impact`` -- quantify SCADA value via N-1 cascade analysis, then
                     run the ``grid-coupled`` threat chain through the
                     facade.
* ``timeline``    -- downtime distributions via :func:`repro.run_timeline`.
* ``earthquake``  -- the seismic hazard through ``run_study`` with the
                     ``earthquake`` chain.

``run`` and ``sweep`` accept ``--chain`` to pick the threat chain
(registered presets: ``paper``, ``grid-coupled``, ``earthquake``,
``flood``, ``tail-risk``) and ``--region``/``--hazard`` to pick from
the scenario catalog (``--pack PATH`` registers a scenario pack first);
the facade-backed subcommands all share the ``--jobs``/``--cache-dir``
and ``--manifest-out``/``--metrics-out``/``--trace-out`` plumbing.
``run`` also accepts ``--sampling`` (a registered plan name or a JSON
spec) and ``--target-ci`` (promotes the plan to an adaptive run that
stops at the requested relative CI); ``sweep`` takes ``--sampling`` as
a repeatable axis.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import StudyConfig, run_study, run_timeline
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.report import format_matrix_csv
from repro.core.threat import PAPER_SCENARIOS, get_scenario
from repro.errors import ReproError
from repro.geo import HONOLULU_CC
from repro.hazards.hurricane.standard import (
    DEFAULT_REALIZATIONS,
    DEFAULT_SEED,
    standard_oahu_ensemble,
    standard_oahu_generator,
)
from repro.io.realization_io import load_ensemble_csv, save_ensemble_csv
from repro.scada.architectures import PAPER_CONFIGURATIONS, get_architecture
from repro.scada.placement import (
    PLACEMENT_KAHE,
    PLACEMENT_WAIAU,
    available_placements,
)
from repro.viz import profile_chart


def _parse_sampling(value: str | None):
    """A ``--sampling`` flag value: a plan name or an inline JSON spec."""
    if value is None:
        return None
    text = value.strip()
    if text.startswith("{"):
        import json

        from repro.errors import ConfigurationError

        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"--sampling JSON spec is invalid: {exc}"
            ) from exc
    return text


def _register_packs(args: argparse.Namespace) -> None:
    """Register every ``--pack`` path before configs are built."""
    from repro.scenarios import register_scenario_pack

    for path in getattr(args, "pack", None) or []:
        pack = register_scenario_pack(path, replace=True)
        print(f"registered scenario pack {pack.name!r} from {path}", file=sys.stderr)


def _cmd_ensemble(args: argparse.Namespace) -> int:
    if args.scenario_file:
        from repro.geo import build_oahu_catalog, build_oahu_region
        from repro.hazards.hurricane.ensemble import EnsembleGenerator
        from repro.hazards.hurricane.inundation import ExtensionParams
        from repro.hazards.hurricane.standard import OAHU_SOUTH_SHORE_BASIN
        from repro.io.scenario_io import load_scenario_json

        generator = EnsembleGenerator(
            region=build_oahu_region(),
            catalog=build_oahu_catalog(),
            scenario=load_scenario_json(args.scenario_file),
            extension_params=ExtensionParams(basins=(OAHU_SOUTH_SHORE_BASIN,)),
        )
    else:
        generator = standard_oahu_generator()
    retry = None
    if args.max_retries is not None or args.task_timeout is not None:
        from repro.runtime.controller import RetryPolicy

        kwargs = {}
        if args.max_retries is not None:
            kwargs["max_retries"] = args.max_retries
        if args.task_timeout is not None:
            kwargs["task_timeout_s"] = args.task_timeout
        retry = RetryPolicy(**kwargs)
    ensemble = generator.generate(
        count=args.count,
        seed=args.seed,
        n_jobs=args.jobs,
        cache_dir=args.cache_dir,
        resume=args.resume,
        retry=retry,
    )
    save_ensemble_csv(ensemble, args.output)
    p = ensemble.flood_probability(HONOLULU_CC)
    print(
        f"wrote {len(ensemble)} realizations to {args.output} "
        f"(Honolulu CC flood probability: {p:.1%})"
    )
    return 0


def _load_or_generate(args: argparse.Namespace):
    if getattr(args, "ensemble", None):
        return load_ensemble_csv(args.ensemble)
    return standard_oahu_ensemble(
        n_jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
        resume=getattr(args, "resume", False),
        max_retries=getattr(args, "max_retries", None),
        task_timeout=getattr(args, "task_timeout", None),
    )


def _study_config_from_args(
    args: argparse.Namespace, *, placement: str | None = None
) -> StudyConfig:
    """The one flags -> :class:`StudyConfig` mapping `run` and `sweep` share.

    ``placement`` overrides ``args.placement`` for callers (the sweep)
    whose placement flag is an axis rather than a single value.
    """
    ensemble = (
        load_ensemble_csv(args.ensemble) if getattr(args, "ensemble", None) else None
    )
    chain = getattr(args, "chain", None)
    if isinstance(chain, list):  # the sweep's --chain is an axis (append)
        chain = chain[0] if chain else None
    region = getattr(args, "region", None)
    if isinstance(region, list):  # the sweep's --region is an axis (append)
        region = region[0] if region else None
    hazard = getattr(args, "hazard", None)
    if isinstance(hazard, list):  # the sweep's --hazard is an axis (append)
        hazard = hazard[0] if hazard else None
    sampling = getattr(args, "sampling", None)
    if isinstance(sampling, list):  # the sweep's --sampling is an axis (append)
        sampling = sampling[0] if sampling else None
    if sampling is not None or getattr(args, "target_ci", None) is not None:
        from repro.sampling.plans import sampling_from_options

        sampling = sampling_from_options(
            _parse_sampling(sampling), getattr(args, "target_ci", None)
        )
    return StudyConfig(
        configurations=tuple(args.config) if args.config else PAPER_CONFIGURATIONS,
        placement=placement if placement is not None else args.placement,
        scenarios=tuple(args.scenario) if args.scenario else PAPER_SCENARIOS,
        n_realizations=args.realizations,
        seed=args.seed,
        ensemble=ensemble,
        chain=chain,
        region=region,
        hazard=hazard,
        sampling=sampling,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        resume=args.resume,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        observability=not args.no_observability,
        manifest_out=getattr(args, "manifest_out", None),
        metrics_out=getattr(args, "metrics_out", None),
        trace_out=getattr(args, "trace_out", None),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    """Build a ``StudyConfig`` from the flags and drive the facade."""
    _register_packs(args)
    config = _study_config_from_args(args)
    plan = config.resolve_sampling()
    if plan is not None and plan.name == "adaptive":
        from repro.sampling import run_adaptive_study

        adaptive = run_adaptive_study(config)
        print(adaptive.report(), file=sys.stderr)
        result = adaptive.result
    else:
        result = run_study(config)
    if args.csv:
        print(format_matrix_csv(result.matrix))
    else:
        print(result.report())
    if args.run_report:
        print()
        print(result.run_report())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Build a grid from repeatable axis flags and drive the sweep engine."""
    from repro.sweep import run_sweep, sweep_grid

    _register_packs(args)
    placements = args.placement or ["waiau"]
    base = _study_config_from_args(args, placement=placements[0])
    axes: dict = {
        "configurations": list(args.config)
        if args.config
        else [a.name for a in PAPER_CONFIGURATIONS],
        "scenarios": list(args.scenario)
        if args.scenario
        else [s.name for s in PAPER_SCENARIOS],
    }
    if len(placements) > 1:
        axes["placement"] = placements
    if args.category:
        axes["category"] = args.category
    if args.fragility_threshold:
        axes["threshold"] = args.fragility_threshold
    if args.chain and len(args.chain) > 1:
        axes["chain"] = args.chain
    if args.region and len(args.region) > 1:
        axes["region"] = args.region
    if args.hazard and len(args.hazard) > 1:
        axes["hazard"] = args.hazard
    if args.sampling and len(args.sampling) > 1:
        axes["sampling"] = [_parse_sampling(value) for value in args.sampling]
    grid = sweep_grid(base, **axes)
    result = run_sweep(
        grid,
        jobs=args.jobs,
        sweep_dir=args.sweep_dir,
        resume=args.resume,
        manifest_out=args.sweep_manifest_out,
        observability=not args.no_observability,
        strict=not args.keep_going,
        study_deadline_s=args.study_deadline,
        budget_s=args.sweep_budget,
    )
    if args.table:
        rows = result.to_table()
        columns = list(rows[0]) if rows else []
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row[c]) for c in columns))
    else:
        print(result.report())
    for axis in args.compare or []:
        print()
        print(result.compare(axis).format())
    counters = result.manifest.get("telemetry", {}).get("metrics", {}).get(
        "counters", {}
    )
    print(
        f"\nsweep: {len(result)} studies, "
        f"{result.manifest['n_groups']} ensemble group(s), "
        f"{int(counters.get('sweep.ensemble.generated', 0))} generated, "
        f"{int(counters.get('sweep.ensemble.reused', 0))} reused, "
        f"{int(counters.get('sweep.studies_resumed', 0))} resumed",
        file=sys.stderr,
    )
    if args.out:
        print(f"sweep result written to {result.save_json(args.out)}", file=sys.stderr)
    if result.failures:
        print(
            f"sweep: {len(result.failures)} study(ies) FAILED:", file=sys.stderr
        )
        for failure in result.failures:
            print(
                f"  [{failure.position}] {failure.label}: "
                f"{failure.error_type}: {failure.message} "
                f"(after {failure.attempts} attempt(s))",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    ensemble = _load_or_generate(args)
    analysis = CompoundThreatAnalysis(ensemble)
    figures = [
        ("Figure 6: Hurricane (Honolulu + Waiau + DRFortress)", PLACEMENT_WAIAU, "hurricane"),
        ("Figure 7: Hurricane + Server Intrusion", PLACEMENT_WAIAU, "hurricane+intrusion"),
        ("Figure 8: Hurricane + Site Isolation", PLACEMENT_WAIAU, "hurricane+isolation"),
        (
            "Figure 9: Hurricane + Server Intrusion + Site Isolation",
            PLACEMENT_WAIAU,
            "hurricane+intrusion+isolation",
        ),
        ("Figure 10: Hurricane (Honolulu + Kahe + DRFortress)", PLACEMENT_KAHE, "hurricane"),
        (
            "Figure 11: Hurricane + Server Intrusion (Kahe backup)",
            PLACEMENT_KAHE,
            "hurricane+intrusion",
        ),
    ]
    for title, placement, scenario_name in figures:
        scenario = get_scenario(scenario_name)
        profiles = {
            arch.name: analysis.run(arch, placement, scenario)
            for arch in PAPER_CONFIGURATIONS
        }
        print(profile_chart(profiles, title=title))
        print()
    return 0


def _cmd_siting(args: argparse.Namespace) -> int:
    from repro.siting.candidates import control_site_candidates
    from repro.siting.objectives import (
        GREEN_OBJECTIVE,
        OPERATIONAL_OBJECTIVE,
        SAFETY_OBJECTIVE,
    )
    from repro.siting.optimizer import PlacementOptimizer

    objectives = {
        "green": GREEN_OBJECTIVE,
        "operational": OPERATIONAL_OBJECTIVE,
        "safety": SAFETY_OBJECTIVE,
    }
    ensemble = _load_or_generate(args)
    analysis = CompoundThreatAnalysis(ensemble)
    from repro.geo import build_oahu_catalog

    catalog = build_oahu_catalog()
    candidates = control_site_candidates(
        catalog, include_plants=args.include_plants
    )
    optimizer = PlacementOptimizer(
        analysis,
        get_architecture(args.config),
        list(PAPER_SCENARIOS),
        objectives[args.objective],
    )
    ranked = optimizer.rank_backups(primary=args.primary, candidates=candidates)
    print(f"Backup ranking for {args.config!r} (objective: {args.objective}):")
    for i, result in enumerate(ranked, 1):
        print(f"  {i}. {result.placement.backup}: {result.score:.4f}")
    return 0


def _cmd_bft_demo(args: argparse.Namespace) -> int:
    from repro.bft.engine import BFTCluster, ClusterSpec
    from repro.bft.replica import Behavior

    spec = ClusterSpec(
        sites=("control-center-1", "control-center-2", "data-center"),
        replicas_per_site=6,
    )
    cluster = BFTCluster(spec, byzantine={args.byzantine: Behavior.EQUIVOCATE})
    if args.flood_site:
        cluster.flood_site(args.flood_site)
    if args.isolate_site:
        cluster.isolate_site(args.isolate_site)
    cluster.enable_proactive_recovery()
    cluster.submit_workload(args.requests, interval_ms=50.0)
    report = cluster.run(duration_ms=60_000.0)
    print(f"requests submitted:   {report.requests_submitted}")
    print(f"safety preserved:     {report.safety_ok}")
    print(f"workload ordered:     {report.ordered_everywhere}")
    print(f"proactive recoveries: {report.recoveries_completed}")
    print(f"messages delivered:   {report.messages_delivered}")
    return 0 if report.safety_ok else 1


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Downtime rollout via the :func:`repro.run_timeline` facade."""
    from repro.core.timeline import TimelineParams

    if not args.scenario:
        args.scenario = ["hurricane+intrusion+isolation"]
    config = _study_config_from_args(args)
    # The rollout's repair/cleanup sampling is seeded separately from the
    # hazard ensemble, exactly as the pre-facade subcommand did.
    config = config.replace(analysis_seed=args.timeline_seed)
    if config.ensemble is not None and args.realizations < len(config.ensemble):
        config = config.replace(ensemble=config.ensemble.subset(args.realizations))
    result = run_timeline(
        config,
        params=TimelineParams(
            attack_delay_h=args.attack_delay_hours,
            isolation_duration_h=args.isolation_hours,
            site_repair_median_h=args.repair_hours,
        ),
    )
    print(result.report())
    if args.run_report:
        print()
        print(result.run_report())
    return 0


def _cmd_earthquake(args: argparse.Namespace) -> int:
    """Seismic hazard through the same facade as `run` (chain field set)."""
    from repro.geo import build_oahu_catalog
    from repro.hazards.earthquake import (
        EarthquakeGenerator,
        seismic_fragility,
        standard_oahu_fault,
    )

    generator = EarthquakeGenerator(build_oahu_catalog(), standard_oahu_fault())
    ensemble = generator.generate(count=args.realizations, seed=args.seed)
    config = _study_config_from_args(args).replace(
        ensemble=ensemble,
        fragility=seismic_fragility(args.capacity_g),
        chain=args.chain or "earthquake",
    )
    result = run_study(config)
    print(
        f"Earthquake compound-threat analysis ({len(ensemble)} realizations, "
        f"capacity {args.capacity_g} g):"
    )
    print(result.report())
    if args.run_report:
        print()
        print(result.run_report())
    return 0


def _cmd_correlation(args: argparse.Namespace) -> int:
    from repro.geo import build_oahu_catalog
    from repro.hazards.correlation import analyze_failure_correlation

    ensemble = _load_or_generate(args)
    catalog = build_oahu_catalog()
    names = [a.name for a in catalog.control_sites()]
    report = analyze_failure_correlation(ensemble, names)
    print("Control-site failure marginals:")
    for name in names:
        print(f"  {name:32s} {report.marginals[name]:6.1%}")
    print()
    pairs = report.correlated_pairs(args.threshold)
    if pairs:
        print(f"Failure-correlated pairs (phi >= {args.threshold}):")
        for a, b, phi in pairs:
            print(f"  {a}  <->  {b}   phi={phi:.2f}")
    else:
        print(f"No pairs with phi >= {args.threshold}.")
    print()
    partners = report.independent_partners(args.anchor)
    print(f"Independent backup candidates for {args.anchor}:")
    for name in partners:
        print(f"  {name}")
    return 0


def _cmd_grid_impact(args: argparse.Namespace) -> int:
    from repro.grid import build_oahu_grid, n_minus_1_report

    grid = build_oahu_grid()
    report = n_minus_1_report(grid)
    print("N-1 contingency: load served with vs. without SCADA control")
    print(f"{'line':55s} {'with':>7s} {'without':>8s}")
    for entry in sorted(report, key=lambda e: e.served_fraction_without_scada):
        line = f"{entry.line[0]} -- {entry.line[1]}"
        print(
            f"{line:55s} {entry.served_fraction_with_scada:6.1%} "
            f"{entry.served_fraction_without_scada:7.1%}"
        )
    avg_with = sum(e.served_fraction_with_scada for e in report) / len(report)
    avg_without = sum(e.served_fraction_without_scada for e in report) / len(report)
    print(f"{'average':55s} {avg_with:6.1%} {avg_without:7.1%}")
    if args.no_study:
        return 0
    # The ensemble view: the same grid coupled into the threat chain, so
    # storm-damaged buses feed WAN partitions feed the attack surface.
    config = _study_config_from_args(args).replace(chain="grid-coupled")
    result = run_study(config)
    print()
    print(
        f"Compound study over the grid-coupled chain "
        f"({len(result.ensemble)} realizations):"
    )
    print(result.report())
    if args.run_report:
        print()
        print(result.run_report())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on study service until SIGTERM/SIGINT."""
    from repro.runtime.controller import RetryPolicy
    from repro.service import ServiceConfig, run_forever

    retry = None
    if args.max_retries is not None or args.task_timeout is not None:
        retry = RetryPolicy.from_options(args.max_retries, args.task_timeout)
    config = ServiceConfig(
        service_dir=args.dir,
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        retry_after_s=args.retry_after,
        retry=retry,
        study_deadline_s=args.study_deadline,
    )
    print(
        f"study service listening on http://{config.host}:{config.port} "
        f"(state dir: {config.service_dir}, queue capacity: "
        f"{config.queue_capacity})",
        file=sys.stderr,
    )
    return run_forever(config)


def _cmd_pack(args: argparse.Namespace) -> int:
    """Validate or describe a scenario pack without running a study."""
    from repro.scenarios import load_scenario_pack

    pack = load_scenario_pack(args.path)
    if args.action == "validate":
        print(
            f"ok: scenario pack {pack.name!r} (schema v{pack.schema_version}, "
            f"digest {pack.digest}) validates"
        )
        return 0
    info = pack.info()
    width = max(len(k) for k in info)
    for key, value in info.items():
        if isinstance(value, dict):
            value = ", ".join(
                f"{name} ({digest[:12]})" for name, digest in sorted(value.items())
            )
        elif isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value)
        print(f"{key:<{width}s}  {value}")
    return 0


def _add_perf_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for ensemble generation (output is identical "
        "for any value)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk ensemble cache (reused across runs)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from its checkpoint shards "
        "(requires --cache-dir; output is bit-identical to an "
        "uninterrupted run)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retries per realization for crashed/hung/corrupt workers "
        "(default: 3)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="seconds before a running block of realizations is declared "
        "hung and its worker replaced (default: no timeout)",
    )


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--manifest-out",
        default=None,
        help="write a run_manifest.json (config hash, versions, stage "
        "timings, metric snapshot) to this path",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metric snapshot (counters/gauges/histograms) "
        "as JSON to this path",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        help="write the run's span trace tree as JSON to this path",
    )
    p.add_argument(
        "--run-report",
        action="store_true",
        help="print the human-readable run report (stage timings, counters) "
        "after the matrix",
    )
    p.add_argument(
        "--no-observability",
        action="store_true",
        help="disable all telemetry collection for this run",
    )


def _add_common_study_args(
    p: argparse.ArgumentParser,
    *,
    default_realizations: int = DEFAULT_REALIZATIONS,
    default_seed: int = DEFAULT_SEED,
    include_ensemble: bool = True,
) -> None:
    """The study flags every facade-backed subcommand shares.

    ``run``/``sweep`` use the paper defaults; the ``timeline``,
    ``grid-impact``, and ``earthquake`` subcommands keep their historical
    ensemble sizes/seeds via the overrides.
    """
    p.add_argument("--config", action="append", help="architecture name (repeatable)")
    p.add_argument("--scenario", action="append", help="scenario name (repeatable)")
    if include_ensemble:
        p.add_argument(
            "--ensemble", help="ensemble CSV (default: regenerate standard)"
        )
    p.add_argument(
        "--realizations",
        "--count",
        dest="realizations",
        type=int,
        default=default_realizations,
        help="ensemble size (--count is the deprecated spelling)",
    )
    p.add_argument("--seed", type=int, default=default_seed)
    _add_perf_args(p)


def _add_chain_arg(p: argparse.ArgumentParser, *, repeatable: bool = False) -> None:
    from repro.core.chain import available_chains

    names = ", ".join(available_chains())
    if repeatable:
        p.add_argument(
            "--chain",
            action="append",
            help=f"threat chain axis value (repeatable; registered: {names})",
        )
    else:
        p.add_argument(
            "--chain",
            default=None,
            help=f"threat chain each realization runs through "
            f"(registered: {names}; default: paper)",
        )


def _add_catalog_args(p: argparse.ArgumentParser, *, repeatable: bool = False) -> None:
    """The scenario-catalog flags: region/hazard names plus pack paths."""
    p.add_argument(
        "--pack",
        action="append",
        metavar="PATH",
        help="scenario pack (directory or .zip) to register before the "
        "study is built; its region becomes addressable via --region "
        "(repeatable)",
    )
    if repeatable:
        p.add_argument(
            "--region",
            action="append",
            help="registered region axis value (repeatable; default: oahu)",
        )
        p.add_argument(
            "--hazard",
            action="append",
            help="hazard family axis value, e.g. hurricane/earthquake/flood "
            "(repeatable; default: hurricane)",
        )
    else:
        p.add_argument(
            "--region",
            default=None,
            help="registered region to study (default: oahu)",
        )
        p.add_argument(
            "--hazard",
            default=None,
            help="hazard family to generate, e.g. hurricane/earthquake/flood "
            "(default: hurricane)",
        )


def _add_sampling_args(
    p: argparse.ArgumentParser, *, repeatable: bool = False
) -> None:
    """The tail-risk sampling flags (see docs/tail_risk.md)."""
    if repeatable:
        p.add_argument(
            "--sampling",
            action="append",
            help="sampling plan axis value: a registered name (plain, "
            "stratified, importance) or an inline JSON spec "
            "(repeatable; default: plain only)",
        )
        return
    p.add_argument(
        "--sampling",
        default=None,
        help="sampling plan: a registered name (plain, stratified, "
        "importance, adaptive) or an inline JSON spec like "
        '\'{"plan": "importance", "scale": 3.0}\' (default: plain, '
        "the paper's sampler)",
    )
    p.add_argument(
        "--target-ci",
        type=float,
        default=None,
        help="run adaptively until the target outcome's 95%% CI half-width "
        "is at most this fraction of the estimate (promotes --sampling "
        "to the adaptive plan's per-round base; default base: importance)",
    )


def _add_study_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--placement", choices=available_placements(), default="waiau")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of tables")
    _add_chain_arg(p)
    _add_catalog_args(p)
    _add_sampling_args(p)
    _add_common_study_args(p)
    _add_observability_args(p)


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--placement",
        action="append",
        choices=available_placements(),
        help="placement axis value (repeatable; default: waiau only)",
    )
    _add_chain_arg(p, repeatable=True)
    _add_catalog_args(p, repeatable=True)
    _add_sampling_args(p, repeatable=True)
    _add_common_study_args(p)
    p.add_argument(
        "--category",
        action="append",
        type=int,
        help="Saffir-Simpson hurricane category axis value (repeatable)",
    )
    p.add_argument(
        "--fragility-threshold",
        action="append",
        type=float,
        help="inundation failure threshold in meters, axis value (repeatable)",
    )
    p.add_argument(
        "--sweep-dir",
        default=None,
        help="directory for study-granular sweep checkpoints (shards + "
        "sweep_manifest.json); required for --resume",
    )
    p.add_argument(
        "--sweep-manifest-out",
        default=None,
        help="also write the sweep manifest to this path",
    )
    p.add_argument(
        "--compare",
        action="append",
        help="print outcome deltas across this axis, all else held equal "
        "(repeatable; e.g. placement)",
    )
    p.add_argument(
        "--out", default=None, help="write the full sweep result as JSON here"
    )
    p.add_argument(
        "--table",
        action="store_true",
        help="emit one flat CSV row per (study, scenario, architecture)",
    )
    p.add_argument(
        "--no-observability",
        action="store_true",
        help="disable all telemetry collection for this sweep",
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="record a failed study and keep running the rest of the grid "
        "(failures are listed on stderr and exit code is 1), instead of "
        "aborting the sweep on the first terminal failure",
    )
    p.add_argument(
        "--study-deadline",
        type=float,
        default=None,
        help="seconds before a pooled study is declared hung and its worker "
        "replaced (default: no deadline)",
    )
    p.add_argument(
        "--sweep-budget",
        type=float,
        default=None,
        help="whole-sweep wall-clock budget in seconds; studies not started "
        "in time fail fast instead of running (default: no budget)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compound-threats",
        description="Compound-threat analysis of power grid SCADA (DSN-W 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run",
        help="run a full study via the run_study() facade (the supported "
        "entrypoint)",
    )
    _add_study_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "sweep",
        help="run a grid of studies with shared-ensemble dedup and "
        "study-granular resume",
    )
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the always-on study service (submit/status/result over "
        "HTTP, bounded queue, journal-backed restart recovery)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument(
        "--dir",
        required=True,
        help="service state directory (job journal + persistent result store)",
    )
    p.add_argument(
        "--queue-capacity",
        type=int,
        default=8,
        help="max queued studies before submissions get 429 (default: 8)",
    )
    p.add_argument(
        "--retry-after",
        type=int,
        default=5,
        help="Retry-After seconds sent with 429 responses (default: 5)",
    )
    p.add_argument(
        "--study-deadline",
        type=float,
        default=None,
        help="per-study wall-clock deadline in seconds (default: none)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retries per failed study before it is recorded failed "
        "(default: 3)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="seconds before a generation worker is declared hung "
        "(default: no timeout)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "pack",
        help="validate or describe a scenario pack (directory or .zip)",
    )
    p.add_argument(
        "action",
        choices=["validate", "info"],
        help="validate: check the manifest and content hashes; "
        "info: print the pack summary",
    )
    p.add_argument("path", help="pack directory or .zip archive")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("ensemble", help="generate hurricane realizations")
    p.add_argument("--count", type=int, default=DEFAULT_REALIZATIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default="oahu_ensemble.csv")
    p.add_argument(
        "--scenario-file",
        help="JSON scenario spec (default: the standard Category-2 scenario)",
    )
    _add_perf_args(p)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("figures", help="regenerate all paper figures")
    p.add_argument("--ensemble", help="ensemble CSV (default: regenerate standard)")
    _add_perf_args(p)
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("siting", help="rank backup control-center sites")
    p.add_argument("--primary", default=HONOLULU_CC)
    p.add_argument("--config", default="6-6")
    p.add_argument(
        "--objective", choices=["green", "operational", "safety"], default="operational"
    )
    p.add_argument("--include-plants", action="store_true")
    p.add_argument("--ensemble", help="ensemble CSV (default: regenerate standard)")
    p.set_defaults(func=_cmd_siting)

    p = sub.add_parser("bft-demo", help="run the replication engine under faults")
    p.add_argument("--requests", type=int, default=20)
    p.add_argument("--byzantine", type=int, default=7, help="replica id to corrupt")
    p.add_argument("--flood-site", help="site name to flood")
    p.add_argument("--isolate-site", help="site name to isolate")
    p.set_defaults(func=_cmd_bft_demo)

    p = sub.add_parser(
        "grid-impact",
        help="N-1 cascade analysis plus the grid-coupled compound study",
    )
    p.add_argument("--placement", choices=available_placements(), default="waiau")
    p.add_argument(
        "--no-study",
        action="store_true",
        help="print only the N-1 table, skip the grid-coupled ensemble study",
    )
    _add_common_study_args(p, default_realizations=150)
    _add_observability_args(p)
    p.set_defaults(func=_cmd_grid_impact)

    p = sub.add_parser("timeline", help="downtime hours per compound event")
    p.add_argument("--placement", choices=available_placements(), default="waiau")
    p.add_argument("--attack-delay-hours", type=float, default=6.0)
    p.add_argument("--isolation-hours", type=float, default=48.0)
    p.add_argument("--repair-hours", type=float, default=72.0)
    p.add_argument(
        "--timeline-seed",
        type=int,
        default=3,
        help="seed for the rollout's repair/cleanup sampling (the hazard "
        "ensemble has its own --seed)",
    )
    _add_common_study_args(p, default_realizations=300)
    _add_observability_args(p)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "correlation", help="failure-correlation screening of control sites"
    )
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--anchor", default=HONOLULU_CC)
    p.add_argument("--ensemble", help="ensemble CSV (default: regenerate standard)")
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("earthquake", help="run the analysis on the seismic hazard")
    p.add_argument("--placement", choices=available_placements(), default="waiau")
    p.add_argument("--capacity-g", type=float, default=0.30)
    _add_chain_arg(p)
    _add_common_study_args(
        p, default_realizations=500, default_seed=42, include_ensemble=False
    )
    _add_observability_args(p)
    p.set_defaults(func=_cmd_earthquake)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
