"""Per-layer timing from outside the program: timed public calls.

:class:`LayerTimer` swaps a public function or method for a wrapper that
adds its wall time to an in-memory sum and bumps a count -- no span
object per call, so per-realization calls stay cheap.  The wrappers are
installed only for the duration of a ``with timer.installed():`` block,
so untraced requests run the unmodified program.

:func:`probe_layers` is the traced run's layer-probe suite.  It drives
each layer once through its public entry points on ``count``
realizations and returns the per-layer metrics plus any correctness
problems (the hazard replay and the pooled generation must both be
bit-identical to ``generate()``).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from checks import DEFAULT_SEED, check_bitwise, check_drained, check_store_round_trip
from jobs import check_job, run_job
from system import boot_service, median

#: Layer name -> (module, owner attribute or None, function name).  A
#: method is patched on its class; a module function is patched in every
#: loaded ``repro`` module that holds it, so callers that imported it by
#: name see the wrapper too.
TARGETS = {
    "hazards.params": ("repro.hazards.hurricane.ensemble", "EnsembleGenerator", "sample_all_parameters"),
    "hazards.track": ("repro.hazards.hurricane.ensemble", "StormParameters", "to_track"),
    "hazards.surge": ("repro.hazards.hurricane.surge", "SurgeModel", "run"),
    "hazards.inundation": ("repro.hazards.hurricane.inundation", "InundationMapper", "depths_from_wse"),
    "hazards.smooth": ("repro.hazards.hurricane.inundation", None, "smooth_shoreline"),
    "runtime.generate": ("repro.hazards.hurricane.ensemble", "EnsembleGenerator", "generate"),
    "io.cache_load": ("repro.io.ensemble_cache", None, "load_ensemble_cache"),
    "io.cache_store": ("repro.io.ensemble_cache", None, "save_ensemble_cache"),
    "core.run_matrix": ("repro.core.pipeline", "CompoundThreatAnalysis", "run_matrix"),
}

HAZARD_LEAVES = ("hazards.params", "hazards.track", "hazards.surge", "hazards.inundation")


class LayerTimer:
    """In-memory wall-time sums and call counts per layer."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        total, calls, clock = self.total, self.calls, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[name] += clock() - start
                calls[name] += 1

        return timed

    @contextlib.contextmanager
    def installed(self, names=tuple(TARGETS)):
        restore: list[tuple[object, str, object]] = []
        try:
            for name in names:
                module_name, owner_name, attr = TARGETS[name]
                module = sys.modules[module_name]
                if owner_name is not None:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded_name.split(".")[0] != "repro":
                        continue
                    if getattr(loaded, attr, None) is original:
                        restore.append((loaded, attr, original))
                        setattr(loaded, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def get(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def breakdown(self, request_s: float, outer: str) -> dict[str, dict]:
        """Self time and share of request time per layer.

        ``outer`` names what the rest of the request time belongs to
        (the study facade or the sweep engine).
        """
        hazards = sum(self.get(n) for n in HAZARD_LEAVES)
        io = self.get("io.cache_load") + self.get("io.cache_store")
        self_s = {
            "hazards.params": self.get("hazards.params"),
            "hazards.track": self.get("hazards.track"),
            "hazards.surge": self.get("hazards.surge"),
            "hazards.smooth": self.get("hazards.smooth"),
            "hazards.inundation": self.get("hazards.inundation") - self.get("hazards.smooth"),
            "io": io,
            "runtime": self.get("runtime.generate") - hazards - io,
            "core": self.get("core.run_matrix"),
            outer: request_s - self.get("runtime.generate") - self.get("core.run_matrix"),
        }
        return {
            name: {"self_s": s, "share": s / request_s if request_s > 0 else 0.0}
            for name, s in self_s.items()
        }


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------
# The layer probes
# ----------------------------------------------------------------------
def _probe_hazards(generator, count: int, seed: int, metrics: dict, problems: list):
    """Time generate()'s hazard calls, then replay it through the same
    public calls: the replay must match generate() bit for bit."""
    from repro.hazards.hurricane.inundation import InundationMapper
    from repro.hazards.hurricane.mesh import build_coastal_mesh
    from repro.hazards.hurricane.surge import SurgeModel

    timer = LayerTimer()
    with timer.installed(HAZARD_LEAVES + ("hazards.smooth",)):
        ensemble, generate_s = _timed(generator.generate, count=count, seed=seed)
    expected = ensemble.depth_matrix()

    mesh = build_coastal_mesh(generator.region, generator.mesh_spacing_km)
    surge = SurgeModel(mesh, generator.surge_params)
    mapper = InundationMapper(
        generator.region, mesh, generator.catalog, generator.extension_params
    )
    order = generator.asset_order
    replayed = np.empty((count, len(order)))
    params = generator.sample_all_parameters(count, seed)
    streams = np.random.SeedSequence(seed).spawn(count)
    for i, (p, stream) in enumerate(zip(params, streams)):
        track = p.to_track(f"{generator.scenario.name}-r{i}")
        wse = surge.run(track, np.random.default_rng(stream)).peak_wse_m
        depths = mapper.depths_from_wse(wse)
        replayed[i] = [depths[name] for name in order]
    problems += check_bitwise(expected, replayed, "hazard replay vs generate()")

    pooled, pool_s = _timed(generator.generate, count=count, seed=seed, n_jobs=2)
    problems += check_bitwise(expected, pooled.depth_matrix(), "generate(n_jobs=2) vs serial")
    del pooled
    hazard_s = sum(timer.get(n) for n in HAZARD_LEAVES)
    metrics.update(
        {
            "hazards.params_s": timer.get("hazards.params"),
            "hazards.track_s": timer.get("hazards.track"),
            "hazards.surge_s": timer.get("hazards.surge"),
            "hazards.smooth_s": timer.get("hazards.smooth"),
            "hazards.inundation_s": timer.get("hazards.inundation") - timer.get("hazards.smooth"),
            "hazards.realizations": timer.calls["hazards.surge"],
            "runtime.generate_s": generate_s,
            "runtime.self_s": generate_s - hazard_s,
            "runtime.pool_generate_s": pool_s,
            "runtime.pool_ratio": pool_s / generate_s,
        }
    )
    return ensemble, hazard_s


def _probe_io(generator, ensemble, count: int, seed: int, cache_dir: Path, metrics: dict, problems: list):
    from repro.io.ensemble_cache import load_ensemble_cache, save_ensemble_cache

    key = generator.cache_key(count, seed)
    _, store_s = _timed(save_ensemble_cache, ensemble, cache_dir, key)
    written = sum(f.stat().st_size for f in cache_dir.rglob("*") if f.is_file())
    loaded, load_s = _timed(load_ensemble_cache, cache_dir, key)
    if loaded is None:
        problems.append("ensemble cache missed right after a store")
    else:
        problems += check_bitwise(ensemble.depth_matrix(), loaded.depth_matrix(), "cache round trip")
    del loaded
    tracemalloc.start()
    try:
        held = load_ensemble_cache(cache_dir, key)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del held
    metrics.update(
        {
            "io.cache_store_s": store_s,
            "io.cache_load_s": load_s,
            "io.cache_bytes_per_realization": written / count,
            "hazards.ensemble_bytes_per_realization": retained / count,
        }
    )


def _stochastic_kwargs() -> dict:
    from repro.core.attacker import ProbabilisticAttacker
    from repro.hazards.fragility import LogisticFragility

    return {
        "fragility": LogisticFragility(steepness_per_m=4.0),
        "attacker": ProbabilisticAttacker(p_intrusion=0.7, p_isolation=0.7),
        "seed": DEFAULT_SEED,
    }


def _probe_core(ensemble, count: int, metrics: dict):
    from repro.core.pipeline import CompoundThreatAnalysis
    from repro.core.threat import PAPER_SCENARIOS
    from repro.scada.architectures import PAPER_CONFIGURATIONS
    from repro.scada.placement import PLACEMENT_WAIAU

    lanes = {
        "paper": {"chain": "paper"},
        "grid-coupled": {"chain": "grid-coupled"},
        "tail-risk": {"chain": "tail-risk"},
        "stochastic": _stochastic_kwargs(),
    }
    for lane, kwargs in lanes.items():
        analysis = CompoundThreatAnalysis(ensemble, **kwargs)
        _, seconds = _timed(
            analysis.run_matrix,
            list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS),
        )
        metrics[f"core.run_matrix_s.{lane}"] = seconds
    metrics["core.realizations_per_s"] = count / metrics["core.run_matrix_s.paper"]


def _probe_sampling(ensemble, metrics: dict):
    from repro import StudyConfig, run_study

    result = run_study(StudyConfig(ensemble=ensemble, chain="tail-risk"))
    start = time.perf_counter()
    result.exceedance("loss_usd")
    result.expected_annual_loss()
    metrics["sampling.exceedance_s"] = time.perf_counter() - start


def _probe_sweep(grid, metrics: dict):
    from repro import run_sweep

    timer = LayerTimer()
    with timer.installed(("io.cache_load", "core.run_matrix")):
        _, run_s = _timed(run_sweep, grid, jobs=1)
    metrics["sweep.run_s"] = run_s
    metrics["sweep.self_s"] = (
        run_s - timer.get("io.cache_load") - timer.get("core.run_matrix")
    )


def probe_obs_overhead(count: int, seed: int, pairs: int = 2) -> float:
    """``run_study`` with observability on vs off, interleaved, best of each."""
    from repro import StudyConfig, run_study

    on, off = [], []
    for _ in range(pairs):
        for enabled, times in ((True, on), (False, off)):
            config = StudyConfig(n_realizations=count, seed=seed, observability=enabled)
            times.append(_timed(run_study, config)[1])
    return min(on) / min(off) - 1.0


def probe_service_store(
    workdir: Path, document: dict, metrics: dict, problems: list, repetitions: int = 20
):
    """Time the service's durable writers directly on a scratch dir."""
    from repro.service.jobs import JobJournal, JobRecord
    from repro.service.store import ResultStore

    journal = JobJournal(workdir / "probe-journal.jsonl")
    store = ResultStore(workdir / "probe-results")
    record = JobRecord(job_id="job-000001-probe", study_hash="probe", spec={"seed": 1})
    # The store stamps its own identity fields onto what it is given.
    payload = {k: v for k, v in document.items() if k not in ("schema_version", "kind", "study_hash")}
    appends, puts, gets = [], [], []
    for i in range(repetitions):
        appends.append(_timed(journal.append, "submitted", record)[1])
        puts.append(_timed(store.put, f"probe{i}", payload)[1])
        stored, seconds = _timed(store.get, f"probe{i}")
        gets.append(seconds)
        problems += check_store_round_trip(payload, stored, "result store get")
    metrics["service.journal_append_s"] = median(appends)
    metrics["service.store_put_s"] = median(puts)
    metrics["service.store_get_s"] = median(gets)


def probe_service(src: Path, workdir: Path, spec: dict, metrics: dict, problems: list):
    """One fresh job and one repeat over HTTP against a fresh service."""
    service, _ = boot_service(src, workdir / "probe-service")
    try:
        rtts = [_timed(service.client.health)[1] for _ in range(10)]
        first: dict[str, bytes] = {}
        fresh = run_job(service.client, spec, traced=True)
        problems += check_job(fresh, "fresh", spec, first)
        problems += check_job(run_job(service.client, spec, traced=True), "repeat", spec, first)
    finally:
        problems += check_drained(service.stop(), "probe service")
    metrics.update(
        {
            "service.http_rtt_s": median(rtts),
            "service.submit_s": fresh.submit_s,
            "service.queue_wait_s": fresh.queue_wait_s,
            "service.run_s": fresh.run_s,
            "service.result_fetch_s": fresh.fetch_s,
            "service.polls_per_job": fresh.polls,
        }
    )
    probe_service_store(workdir, fresh.document, metrics, problems)


def probe_layers(
    *,
    src: Path,
    workdir: Path,
    count: int,
    seed: int,
    sweep_axes: dict,
    service_spec: dict | None,
) -> tuple[dict, list[str]]:
    """Every layer once, on ``count`` realizations of ``seed``.

    ``service_spec`` is None when the workload's own traffic already
    measured the service layer.
    """
    from repro import StudyConfig, sweep_grid
    from repro.hazards.hurricane.standard import standard_oahu_generator

    metrics: dict = {}
    problems: list[str] = []
    generator = standard_oahu_generator()
    ensemble, hazard_s = _probe_hazards(generator, count, seed, metrics, problems)
    cache_dir = workdir / "probe-cache"
    _probe_io(generator, ensemble, count, seed, cache_dir, metrics, problems)
    _probe_core(ensemble, count, metrics)
    _probe_sampling(ensemble, metrics)
    study_s = metrics["runtime.generate_s"] + metrics["core.run_matrix_s.paper"]
    metrics["hazards.share"] = hazard_s / study_s
    metrics["core.share"] = metrics["core.run_matrix_s.paper"] / study_s
    del ensemble
    base = StudyConfig(n_realizations=count, seed=seed, cache_dir=str(cache_dir))
    _probe_sweep(sweep_grid(base, **sweep_axes), metrics)
    if service_spec is not None:
        probe_service(src, workdir, service_spec, metrics, problems)
    return metrics, problems
