"""The three workloads: cold-study, warm-sweep and service-mixed.

Each is a closed loop from one caller with at most one request in
flight.  Inputs come only from the workload seed.  Every request's output
is checked; a request that raises, is refused, or fails a check counts
as failed.  With tracing on, requests alternate between plain, traced
(layer timers installed) and, where the program allows it,
observability-off modes, and the layer-probe suite runs afterwards.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    DEFAULT_SEED,
    GOLDEN_ARCHITECTURE,
    GOLDEN_N,
    GOLDEN_SCENARIO,
    canonical_bytes,
    check_documents_equal,
    check_drained,
    check_golden_red,
    check_setups_agree,
    depth_digest,
)
from digests import DigestRecord
from jobs import check_job, run_job
from layers import LayerTimer, probe_layers, probe_obs_overhead, probe_service_store
from speed import SpeedTrack
from system import (
    TreeRssSampler,
    boot_service,
    import_and_build,
    median,
    peak_rss_bytes,
    reset_peak_rss,
    rss_bytes,
    run_child,
    tree_rss_bytes,
)

COLD_REALIZATIONS = 2000
WARM_REALIZATIONS = 1000
SERVICE_REALIZATIONS = 1000
#: Every traced run probes each layer on this many realizations, so the
#: per-layer numbers compare across workloads.
PROBE_REALIZATIONS = 1000
#: Set-up repetitions per run; setup_s is their median.
SETUP_REPETITIONS = 5
#: Re-analyses of the held ensemble per cold-study request.
REANALYSES = 5
MB = 1024 * 1024


def sweep_axes() -> dict:
    """The warm-sweep grid: chain x placement x fragility = 12 cells."""
    from repro.hazards.fragility import LogisticFragility, ThresholdFragility

    return {
        "chain": ["paper", "grid-coupled", "tail-risk"],
        "placement": ["waiau", "kahe"],
        "fragility": [ThresholdFragility(threshold_m=0.5), LogisticFragility()],
    }


@dataclass
class Run:
    """What one benchmark invocation shares across its phases."""

    root: Path
    src: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one attempted request and whether it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def seeds(self, count: int) -> list[int]:
        rng = np.random.default_rng(self.seed)
        return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def tail(values: list[float]) -> dict:
    """The highest nearest-rank percentile with >= 10 samples above it.

    With 10 or fewer samples no percentile qualifies; the minimum is
    reported and ``beyond`` shows how many samples lie above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - 11)
    return {
        "value": ordered[k],
        "percentile": round(100.0 * (k + 1) / n, 1),
        "beyond": n - 1 - k,
        "samples": n,
    }


def overhead(slower: list[float], baseline: list[float]) -> float:
    if not slower or not baseline:
        return 0.0
    return median(slower) / median(baseline) - 1.0


def matrix_bytes(matrix) -> bytes:
    from repro.io.results_io import matrix_to_dict

    return canonical_bytes(matrix_to_dict(matrix))


def _retries(manifest: dict) -> int:
    return int((manifest.get("metrics") or {}).get("counters", {}).get("runtime.retries", 0))


def _golden_red(ensemble) -> int:
    """Red count of the golden cell over the ensemble's first 1000 rows."""
    from repro import OperationalState, StudyConfig, run_study

    study = run_study(
        StudyConfig(
            ensemble=ensemble.subset(GOLDEN_N),
            configurations=[GOLDEN_ARCHITECTURE],
            scenarios=[GOLDEN_SCENARIO],
            observability=False,
        )
    )
    return study.matrix.get(GOLDEN_SCENARIO, GOLDEN_ARCHITECTURE).count(OperationalState.RED)


def _memory_metrics(peak: int, baseline: int, held: int) -> dict:
    return {"peak_rss_mb": peak / MB, "bytes_per_realization": (peak - baseline) / held}


Span = tuple[float, float]


def durations(spans: list[Span]) -> list[float]:
    return [end - start for start, end in spans]


def _e2e(
    track: SpeedTrack,
    *,
    setup: list[Span],
    requests: list[Span],
    fresh: list[Span],
    cached: list[Span],
    realizations: int,
    studies: int,
    memory: dict,
    loop_start: float,
    fresh_track: SpeedTrack | None = None,
) -> tuple[dict, dict]:
    """The end-to-end metrics in reference-host seconds, plus the raw
    wall-clock ones for the record.  Rates divide by request time.
    ``fresh_track`` normalizes fresh jobs that ran in other processes."""

    def summary(duration, fresh_duration) -> dict:
        request_s = duration(requests)
        return {
            "setup_s": statistics.median(duration(setup)),
            "request_s_p50": statistics.median(request_s),
            "request_s_tail": tail(request_s)["value"],
            "realizations_per_s": realizations / sum(request_s),
            "jobs_per_s": studies / sum(request_s),
            "fresh_job_s_p50": statistics.median(fresh_duration(fresh)),
            "cached_job_s_p50": statistics.median(duration(cached)),
            **memory,
        }

    notes = {
        "raw": summary(durations, durations),
        "host_slowdown": track.median_slowdown(),
        "calibration_drift": track.drift(loop_start),
        "request_s_tail": tail(track.normalize(requests)),
        "request_s": durations(requests),
    }
    return summary(track.normalize, (fresh_track or track).normalize), notes


def _min_requests(run: Run, modes: tuple[str, ...]) -> int:
    """A traced run needs its warm-up plus one request in every mode."""
    return 1 + len(modes) if run.trace else 1


def _mode(run: Run, i: int, modes: tuple[str, ...]) -> str:
    """Request ``i``'s mode; a traced run's first request only warms up."""
    if run.trace and i == 0:
        return "warmup"
    return modes[(i - run.trace) % len(modes)]


def _layer_report(timer: LayerTimer, times: dict[str, list[Span]], outer: str) -> dict:
    traced, plain, off = (durations(times[m]) for m in ("traced", "plain", "obs_off"))
    total = sum(traced)
    return {
        "traced_requests": len(traced),
        "layers": timer.breakdown(total, outer) if total else {},
        "trace.overhead_frac": overhead(traced, plain),
        "obs.overhead_frac": overhead(plain, off),
    }


# ----------------------------------------------------------------------
# cold-study
# ----------------------------------------------------------------------
def cold_study(run: Run) -> tuple[dict, dict]:
    from repro import StudyConfig, run_study

    track = SpeedTrack()
    setup: list[Span] = []
    for _ in range(SETUP_REPETITIONS):
        track.sample()
        setup.append(import_and_build(run.src))
    seeds = [DEFAULT_SEED, *run.seeds(3)]
    np.random.default_rng(run.seed).shuffle(seeds)
    digests = DigestRecord(run.root)
    modes = ("plain", "traced", "obs_off") if run.trace else ("plain",)
    timer = LayerTimer()
    times: dict[str, list[Span]] = defaultdict(list)
    cached: list[Span] = []
    retries = 0
    gc.collect()
    reset_peak_rss()
    baseline = rss_bytes()
    start = time.perf_counter()
    i = 0
    while i < _min_requests(run, modes) or time.perf_counter() - start < run.seconds:
        seed, mode = seeds[i % len(seeds)], _mode(run, i, modes)
        i += 1
        config = StudyConfig(
            n_realizations=COLD_REALIZATIONS, seed=seed, observability=mode != "obs_off"
        )
        problems: list[str] = []
        track.sample()
        try:
            with timer.installed() if mode == "traced" else contextlib.nullcontext():
                began = time.perf_counter()
                result = run_study(config)
                span = (began, time.perf_counter())
            problems += digests.check(
                COLD_REALIZATIONS, seed, depth_digest(result.ensemble.depth_matrix())
            )
            if seed == DEFAULT_SEED:
                problems += check_golden_red(
                    _golden_red(result.ensemble), f"seed {seed} first {GOLDEN_N} rows"
                )
            for _ in range(REANALYSES):
                began = time.perf_counter()
                again = run_study(StudyConfig(ensemble=result.ensemble))
                cached.append((began, time.perf_counter()))
                problems += check_documents_equal(
                    [matrix_bytes(result.matrix)], [matrix_bytes(again.matrix)],
                    f"seed {seed} re-analysis of the held ensemble",
                )
            retries += _retries(result.manifest)
            del result, again
        except Exception as exc:  # a failed request is a result, not a crash
            problems.append(f"seed {seed}: {type(exc).__name__}: {exc}")
        else:
            times[mode].append(span)
        run.record(problems)
    track.sample()
    peak = peak_rss_bytes()
    digests.save()
    requests = times["plain"]
    metrics, notes = _e2e(
        track,
        setup=setup,
        requests=requests,
        fresh=requests,
        cached=cached,
        realizations=COLD_REALIZATIONS * len(requests),
        studies=len(requests),
        memory=_memory_metrics(peak, baseline, COLD_REALIZATIONS),
        loop_start=start,
    )
    notes.update(
        {
            "seeds": seeds, "realizations": COLD_REALIZATIONS,
            "setup_reps_s": durations(setup), "digests": digests.note(),
        }
    )
    layers: dict = {}
    if run.trace:
        layers = _layer_report(timer, times, "api")
        layers["runtime.retries"] = retries
        layers["io.cache_hit_ratio"] = 0.0  # cold-study has no cache to hit
        probe, problems = probe_layers(
            src=run.src, workdir=run.workdir, count=PROBE_REALIZATIONS, seed=seeds[0],
            sweep_axes=sweep_axes(), service_spec=_fresh_spec(run, DEFAULT_SEED, "probe"),
        )
        run.problems += problems
        layers["probe"] = probe
    return metrics, {"notes": notes, "layers": layers}


# ----------------------------------------------------------------------
# warm-sweep
# ----------------------------------------------------------------------
def warm_sweep(run: Run) -> tuple[dict, dict]:
    from repro import StudyConfig, run_study, run_sweep, sweep_grid

    (seed,) = run.seeds(1)
    track = SpeedTrack()
    # Each child samples the host speed around its own prime; a child may
    # run on the other CPU, so its samples are kept apart from ours.
    prime_track = SpeedTrack()
    walls: list[Span] = []
    primes: list[Span] = []
    setups: list[dict] = []
    for rep in range(SETUP_REPETITIONS):
        cache_dir = run.workdir / f"ensembles-{rep}"
        track.sample()
        began = time.perf_counter()
        out, ended = run_child(
            [
                sys.executable, str(Path(__file__).with_name("warm_setup.py")),
                "--cache-dir", str(cache_dir), "--seed", str(seed),
                "--count", str(WARM_REALIZATIONS),
            ],
            run.src, timeout_s=150,
        )
        walls.append((began, ended))
        setup = json.loads(out.strip().splitlines()[-1])
        primes.append(tuple(setup["prime_span"]))
        prime_track.merge(setup["kernel_at"], setup["kernel_s"])
        setups.append(setup)
    track.sample()
    run.problems += check_setups_agree(setups, ("prime_digest", "references"))
    references = [doc.encode() for doc in setups[-1]["references"]]
    base = StudyConfig(n_realizations=WARM_REALIZATIONS, seed=seed, cache_dir=str(cache_dir))
    grid = sweep_grid(base, **sweep_axes())

    modes = ("plain", "traced", "obs_off") if run.trace else ("plain",)
    timer = LayerTimer()
    times: dict[str, list[Span]] = defaultdict(list)
    cached: list[Span] = []
    hits = misses = 0
    gc.collect()
    reset_peak_rss()
    baseline = rss_bytes()
    start = time.perf_counter()
    i = 0
    while i < _min_requests(run, modes) or time.perf_counter() - start < run.seconds:
        mode = _mode(run, i, modes)
        cell = i % len(grid)
        i += 1
        problems: list[str] = []
        track.sample()
        try:
            with timer.installed() if mode == "traced" else contextlib.nullcontext():
                began = time.perf_counter()
                result = run_sweep(grid, jobs=1, observability=mode != "obs_off")
                span = (began, time.perf_counter())
            if not result.ok:
                problems.append(f"sweep failures: {[f.summary() for f in result.failures]}")
            problems += check_documents_equal(
                references, [matrix_bytes(c.matrix) for c in result.cells],
                "sweep cells vs per-cell run_study",
            )
            del result
            # One cell as a study of its own against the same warm cache,
            # spread over the loop like the sweeps are.
            began = time.perf_counter()
            study = run_study(grid[cell])
            cached.append((began, time.perf_counter()))
            problems += check_documents_equal(
                [references[cell]], [matrix_bytes(study.matrix)], f"cell {cell} as a study"
            )
            hit, miss = _cache_counters(study.manifest)
            hits, misses = hits + hit, misses + miss
            del study
        except Exception as exc:  # a failed request is a result, not a crash
            problems.append(f"run_sweep: {type(exc).__name__}: {exc}")
        else:
            times[mode].append(span)
        run.record(problems)
    track.sample()
    peak = peak_rss_bytes()
    requests = times["plain"]
    studies = len(grid) * len(requests)
    metrics, notes = _e2e(
        track,
        setup=walls,
        requests=requests,
        fresh=primes,
        cached=cached,
        realizations=WARM_REALIZATIONS * studies,
        studies=studies,
        memory=_memory_metrics(peak, baseline, WARM_REALIZATIONS),
        loop_start=start,
        fresh_track=prime_track,
    )
    notes.update(
        {
            "seed": seed, "realizations": WARM_REALIZATIONS, "cells": len(grid),
            "setup_reps_s": durations(walls), "setup_primes_s": durations(primes),
            "setup_references_s": [setup["reference_s"] for setup in setups],
        }
    )
    layers: dict = {}
    if run.trace:
        layers = _layer_report(timer, times, "sweep")
        layers["runtime.retries"] = 0  # nothing is generated in the loop
        layers["io.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        probe, problems = probe_layers(
            src=run.src, workdir=run.workdir, count=PROBE_REALIZATIONS, seed=seed,
            sweep_axes=sweep_axes(), service_spec=_fresh_spec(run, seed, "probe"),
        )
        run.problems += problems
        layers["probe"] = probe
    return metrics, {"notes": notes, "layers": layers}


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
# Each block holds one job of each kind.  No source gives a job mix for
# this service, so the three kinds are taken in equal parts: an
# assumption, stated as one.  The median job is then a variant (an
# ensemble-cache read plus an analysis), not the store hit that
# cached_job_s_p50 measures.  The variants are the (chain, placement)
# pairs whose jobs take about as long as each other (~40 ms).  A
# grid-coupled variant takes 100-200 ms; with two of them among five
# variants the job median sat at the upper edge of the fast group and
# moved by up to 26% between runs.  warm-sweep covers grid-coupled.
VARIANTS = [("paper", "kahe"), ("tail-risk", "waiau"), ("tail-risk", "kahe")]
#: Server boots per run; setup_s is their median.  Boots are shorter and
#: noisier than the other workloads' set-ups, so they get more of them.
SERVICE_BOOTS = 9
#: Between jobs the host-speed kernel runs at most this often, and only
#: once the server is idle: no queued or running job, no CPU in use.
SERVICE_SAMPLE_EVERY_S = 0.2
#: After each untraced block's repeat job, the same spec is submitted
#: this many times more.  A store hit takes a few milliseconds, so one
#: per block leaves cached_job_s_p50 a median of ~20 noisy samples; the
#: extra hits feed only that metric, not the request mix.
EXTRA_REPEATS = 3


def _fresh_spec(run: Run, seed: int, tag: str, count: int = SERVICE_REALIZATIONS) -> dict:
    return {
        "n_realizations": count,
        "seed": seed,
        "jobs": 2,
        "cache_dir": str(run.workdir / f"{tag}-ensembles"),
    }


def service_blocks(run: Run):
    """The job order: per block one fresh job, then one variant of it and
    one repeat of an earlier job, in an order drawn from the seed.  The
    variants run through a seeded permutation of ``VARIANTS``, so every
    chain/placement shows up equally often.  The first block's fresh job
    is the paper's default seed."""
    rng = np.random.default_rng(run.seed)
    block = 0
    while True:
        if block % len(VARIANTS) == 0:
            cycle = rng.permutation(len(VARIANTS))
        seed = DEFAULT_SEED if block == 0 else int(rng.integers(1, 2**31 - 1))
        fresh = _fresh_spec(run, seed, "service")
        chain, placement = VARIANTS[cycle[block % len(VARIANTS)]]
        variant = dict(fresh)
        if chain != "paper":
            variant["chain"] = chain
        if placement != "waiau":
            variant["placement"] = placement
        rest = [("variant", variant), ("repeat", None)]
        if rng.random() < 0.5:
            rest.reverse()
        yield [("fresh", fresh), *rest], rng
        block += 1


def _cache_counters(manifest: dict) -> tuple[int, int]:
    counters = (manifest.get("metrics") or {}).get("counters", {})
    return counters.get("cache.ensemble.hit", 0), counters.get("cache.ensemble.miss", 0)


def service_mixed(run: Run) -> tuple[dict, dict]:
    from repro.service import ServiceClientError

    track = SpeedTrack()
    boots: list[Span] = []
    for rep in range(SERVICE_BOOTS):
        track.sample()
        service, booted = boot_service(run.src, run.workdir / f"service-{rep}")
        boots.append(booted)
        if rep < SERVICE_BOOTS - 1:
            run.problems += check_drained(service.stop(), f"set-up service {rep}")
    track.sample()
    outcomes = []
    first: dict[str, bytes] = {}
    done_specs: list[dict] = []
    traced_blocks: set[int] = set()
    extra_repeats: list[Span] = []
    hits = misses = retries = 0
    try:
        rtts = []
        if run.trace:
            for _ in range(10):
                began = time.perf_counter()
                service.client.health()
                rtts.append(time.perf_counter() - began)
        baseline = tree_rss_bytes(service.pid)
        with TreeRssSampler(service.pid) as sampler:
            start = time.perf_counter()
            for number, (block, rng) in enumerate(service_blocks(run)):
                traced = run.trace and number % 2 == 1
                if traced:
                    traced_blocks.add(number)
                for kind, spec in block:
                    if kind == "repeat":
                        spec = done_specs[int(rng.integers(len(done_specs)))]
                    if time.perf_counter() - track.at[-1] >= SERVICE_SAMPLE_EVERY_S:
                        if service.wait_idle():
                            track.sample(repetitions=1)
                    try:
                        outcome = run_job(service.client, spec, traced=traced, kind=kind)
                        problems = check_job(outcome, kind, spec, first)
                    except ServiceClientError as exc:  # refused (429/5xx) or unreachable
                        outcome, problems = None, [f"{kind} job: {exc}"]
                    run.record(problems)
                    if outcome is None:
                        continue
                    outcome.block = number
                    outcomes.append(outcome)
                    if kind == "repeat" and not traced:
                        for _ in range(EXTRA_REPEATS):
                            try:
                                extra = run_job(service.client, spec, traced=False, kind=kind)
                                problems = check_job(extra, kind, spec, first)
                            except ServiceClientError as exc:
                                extra, problems = None, [f"extra repeat job: {exc}"]
                            run.record(problems)
                            if extra is not None:
                                extra_repeats.append((extra.started, extra.started + extra.latency_s))
                    if kind != "repeat":
                        done_specs.append(spec)
                        hit, miss = _cache_counters(outcome.document.get("manifest", {}))
                        hits, misses = hits + hit, misses + miss
                        retries += _retries(outcome.document.get("manifest", {}))
                if time.perf_counter() - start >= run.seconds:
                    break
        track.sample()
        peak = max(sampler.peak, peak_rss_bytes(service.pid))
        document = next((o.document for o in outcomes if o.document), None)
    finally:
        run.problems += check_drained(service.stop(), "service")
    plain = [o for o in outcomes if o.block not in traced_blocks]
    by_kind: dict[str, list[Span]] = defaultdict(list)
    for o in plain:
        by_kind[o.kind].append((o.started, o.started + o.latency_s))
    computed = len(by_kind["fresh"]) + len(by_kind["variant"])
    metrics, notes = _e2e(
        track,
        setup=boots,
        requests=[span for spans in by_kind.values() for span in spans],
        fresh=by_kind["fresh"],
        cached=by_kind["repeat"] + extra_repeats,
        realizations=SERVICE_REALIZATIONS * computed,
        studies=len(plain),
        memory=_memory_metrics(peak, baseline, SERVICE_REALIZATIONS),
        loop_start=start,
    )
    notes.update(
        {
            "jobs": {k: len(v) for k, v in by_kind.items()},
            "extra_repeats": len(extra_repeats),
            "variant_job_s_p50": median(durations(by_kind["variant"])),
            "setup_boots_s": durations(boots),
        }
    )
    layers: dict = {}
    if run.trace:
        traced = [o for o in outcomes if o.block in traced_blocks]
        computed_jobs = [o for o in traced if not o.cached]
        service_layer = {
            "service.http_rtt_s": median(rtts),
            "service.submit_s": median([o.submit_s for o in computed_jobs]),
            "service.queue_wait_s": median([o.queue_wait_s for o in computed_jobs]),
            "service.run_s": median([o.run_s for o in computed_jobs]),
            "service.result_fetch_s": median([o.fetch_s for o in computed_jobs]),
            "service.polls_per_job": statistics.mean([o.polls for o in computed_jobs]) if computed_jobs else 0.0,
        }
        if document is not None:
            probe_service_store(run.workdir, document, service_layer, run.problems)
        layers = {
            "traced_requests": len(traced),
            "trace.overhead_frac": overhead(
                [o.latency_s for o in traced], [o.latency_s for o in plain if o.block > 0]
            ),
            "runtime.retries": retries,
            "io.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }
        layers["obs.overhead_frac"] = probe_obs_overhead(SERVICE_REALIZATIONS, DEFAULT_SEED)
        probe, problems = probe_layers(
            src=run.src, workdir=run.workdir, count=PROBE_REALIZATIONS, seed=DEFAULT_SEED,
            sweep_axes=sweep_axes(), service_spec=None,
        )
        run.problems += problems
        probe.update(service_layer)
        layers["probe"] = probe
    return metrics, {"notes": notes, "layers": layers}


WORKLOADS = {
    "cold-study": cold_study,
    "warm-sweep": warm_sweep,
    "service-mixed": service_mixed,
}
