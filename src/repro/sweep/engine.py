"""The batch-study scheduler: shared-ensemble dedup + bounded workers.

:func:`run_sweep` executes a grid of :class:`StudyConfig`\\ s the way the
paper's own results table demands -- many analysis cells over few hazard
ensembles -- without ever generating the same ensemble twice:

1. **Partition** the grid by :meth:`StudyConfig.cache_key`, the
   hazard-determining hash.  Every group shares bit-identical hazard
   data, however much its members differ on the analysis side.
2. **Acquire** each group's ensemble exactly once, through the existing
   fault-tolerant path (:class:`~repro.runtime.controller.RunController`
   + the on-disk :mod:`repro.io.ensemble_cache` when ``cache_dir`` is
   set on the group's configs).
3. **Analyze** the group's studies with up to ``jobs`` workers.  Worker
   processes receive the shared ensemble once (pool initializer), run
   with their own observer, and ship metric snapshots back for merging;
   anything unpicklable falls back to the serial path.  Either way the
   group's studies share one failure-matrix memo per process.
4. **Checkpoint** at study granularity: with ``sweep_dir`` set, each
   finished study lands in a checksummed ``study-<hash>.json`` shard and
   the sweep manifest is atomically rewritten, so ``resume=True`` skips
   finished studies and reproduces an identical manifest (modulo the
   ``telemetry`` section).

Results are bit-identical to independent :func:`repro.run_study` calls
per cell -- the engine changes scheduling and reuse, never the numbers.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import time
from pathlib import Path
from typing import Iterator, Sequence

from repro.api import (
    StudyConfig,
    _acquire_ensemble,
    _study_weights,
    study_config_hash,
)
from repro.core.outcomes import ScenarioMatrix
from repro.core.pipeline import CompoundThreatAnalysis
from repro.errors import ConfigurationError, SerializationError
from repro.hazards.base import HazardEnsemble
from repro.io.atomic import atomic_write_text, quarantine_file
from repro.io.results_io import matrix_from_dict, matrix_to_dict
from repro.io.shared_ensemble import (
    attach_shared_ensemble,
    publish_shared_ensemble,
    shareable_ensemble,
)
from repro.obs.manifest import write_json_artifact
from repro.obs.observer import (
    NULL_OBSERVER,
    NullObservability,
    Observability,
    activate,
)
from repro.obs.observer import current as current_observer
from repro.runtime.checkpoint import sha256_of
from repro.runtime.controller import RetryPolicy
from repro.runtime.supervisor import StudyFailure, StudySupervisor, SupervisedTask
from repro.sweep.result import StudyCell, SweepResult, cell_summary

SWEEP_MANIFEST_SCHEMA_VERSION = 1
SWEEP_MANIFEST_FILENAME = "sweep_manifest.json"


def sweep_study_hash(config: StudyConfig) -> str:
    """The resume identity of one study: config hash over its data key."""
    return study_config_hash(config, ensemble_key=config.cache_key())


# ----------------------------------------------------------------------
# The sweep checkpoint store (sharded results + checksummed manifest)
# ----------------------------------------------------------------------
class SweepStore:
    """Study-granular, crash-consistent sweep progress under ``sweep_dir``.

    The layout follows :mod:`repro.runtime.checkpoint`: one
    ``study-<hash>.json`` shard per finished study plus a
    ``sweep_manifest.json`` listing each shard's sha256, every file
    written atomically (tmp sibling + rename) and the manifest rewritten
    after each shard, so a sweep killed at any instant leaves a
    consistent prefix.  On resume every shard is re-verified -- checksum,
    embedded study hash, matrix decode -- and failures are quarantined
    (``<name>.corrupt``) so only those studies re-run.  Shard bytes are
    a pure function of the study identity and its matrix (no timestamps),
    which is what makes a resumed sweep's manifest bit-identical to an
    uninterrupted one outside the ``telemetry`` section.
    """

    def __init__(self, sweep_dir: str | Path) -> None:
        self.dir = Path(sweep_dir)
        #: study hash -> {"file", "sha256", "cache_key"} for recorded shards.
        self.entries: dict[str, dict] = {}

    @property
    def manifest_path(self) -> Path:
        return self.dir / SWEEP_MANIFEST_FILENAME

    def shard_path(self, study_hash: str) -> Path:
        return self.dir / f"study-{study_hash}.json"

    def record(self, cell: StudyCell) -> None:
        """Persist one finished study shard (deterministic bytes)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": SWEEP_MANIFEST_SCHEMA_VERSION,
            "kind": "repro.sweep_study",
            "study_hash": cell.study_hash,
            "cache_key": cell.cache_key,
            "summary": cell.summary(),
            "matrix": matrix_to_dict(cell.matrix),
        }
        path = self.shard_path(cell.study_hash)
        atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        self.entries[cell.study_hash] = {
            "file": path.name,
            "sha256": sha256_of(path),
            "cache_key": cell.cache_key,
        }

    def write_manifest(self, manifest: dict) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )

    def load(self, wanted: frozenset[str]) -> dict[str, ScenarioMatrix]:
        """Recover the verified finished studies among ``wanted`` hashes.

        Shards for studies outside this sweep are left untouched (the
        directory may be shared by overlapping grids).
        """
        loaded: dict[str, ScenarioMatrix] = {}
        if not self.manifest_path.exists():
            return loaded
        try:
            manifest = json.loads(self.manifest_path.read_text())
            entries = manifest["studies"]
            ok = (
                manifest["schema_version"] == SWEEP_MANIFEST_SCHEMA_VERSION
                and manifest["kind"] == "repro.sweep_manifest"
            )
        except (json.JSONDecodeError, KeyError, TypeError, OSError) as exc:
            quarantine_file(self.manifest_path, f"unreadable sweep manifest: {exc}")
            return loaded
        if not ok:
            quarantine_file(self.manifest_path, "manifest is not a sweep manifest")
            return loaded
        for study_hash, entry in sorted(entries.items()):
            if study_hash not in wanted or not entry.get("file"):
                continue
            path = self.dir / str(entry["file"])
            try:
                loaded[study_hash] = self._load_shard(study_hash, entry, path)
            except SerializationError as exc:
                if path.exists():
                    quarantine_file(path, str(exc))
                continue
            self.entries[study_hash] = {
                "file": path.name,
                "sha256": entry["sha256"],
                "cache_key": entry.get("cache_key"),
            }
        return loaded

    def _load_shard(self, study_hash: str, entry: dict, path: Path) -> ScenarioMatrix:
        if not path.exists():
            raise SerializationError(f"study shard {path.name} missing")
        if sha256_of(path) != entry.get("sha256"):
            raise SerializationError("study shard checksum mismatch")
        try:
            payload = json.loads(path.read_text())
            if payload["study_hash"] != study_hash:
                raise SerializationError(
                    "study shard hash does not match its manifest entry"
                )
            return matrix_from_dict(payload["matrix"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SerializationError(f"undecodable study shard: {exc}") from exc


# ----------------------------------------------------------------------
# Per-study analysis (serial and pooled paths)
# ----------------------------------------------------------------------
def _analyze(
    ensemble: HazardEnsemble, config: StudyConfig, matrix_cache: dict
) -> ScenarioMatrix:
    """One study's matrix over a shared ensemble.

    ``matrix_cache`` is the group's failure-matrix memo: its grids are
    pure functions of (shared depths, fragility model) -- stochastic
    chains sample fresh draws against them, never caching outcomes --
    so every study of the group may share it.
    """
    analysis = CompoundThreatAnalysis(
        ensemble,
        fragility=config.resolve_fragility(),
        attacker=config.attacker,
        seed=config.analysis_seed,
        matrix_cache=matrix_cache,
        chain=config.resolve_chain(),
        # Weights are a pure function of (plan, stored track offsets), so
        # pool workers recompute them bit-identically from the config --
        # no weight arrays ever cross the process boundary.
        weights=_study_weights(config, ensemble),
    )
    return analysis.run_matrix(
        config.resolve_configurations(),
        config.resolve_placement(),
        config.resolve_scenarios(),
    )


_worker_ensemble: HazardEnsemble | None = None
_worker_descriptor: dict | None = None
_worker_fallback_ok: bool = False
_worker_matrix_cache: dict = {}


def _pool_init(ensemble: HazardEnsemble) -> None:
    """Install the group's pickled ensemble in a worker process, once.

    Legacy path for ensembles without a depth grid; shareable ensembles
    go through :func:`_pool_init_shared` and never cross the process
    boundary as pickled bytes.
    """
    global _worker_ensemble, _worker_descriptor, _worker_fallback_ok
    _worker_ensemble = ensemble
    _worker_descriptor = None
    _worker_fallback_ok = False
    _worker_matrix_cache.clear()


def _pool_init_shared(descriptor: dict, fallback_ok: bool = False) -> None:
    """Install the group's shared-ensemble descriptor in a worker.

    Only the small descriptor crosses the process boundary; the worker
    attaches to the shared depth grid lazily on its first task (so the
    attach counter lands in a task's metric snapshot and gets merged
    into the sweep manifest).  ``fallback_ok`` marks groups whose
    hazard data is regenerable from the config alone (the standard
    generator + cache path), enabling the stale-descriptor fallback.
    """
    global _worker_ensemble, _worker_descriptor, _worker_fallback_ok
    _worker_ensemble = None
    _worker_descriptor = descriptor
    _worker_fallback_ok = fallback_ok
    _worker_matrix_cache.clear()


def _worker_get_ensemble(config: StudyConfig) -> HazardEnsemble:
    global _worker_ensemble
    if _worker_ensemble is None:
        if _worker_descriptor is None:
            raise ConfigurationError("sweep worker has no ensemble installed")
        obs = current_observer()
        try:
            _worker_ensemble = attach_shared_ensemble(_worker_descriptor)
        except (OSError, SerializationError) as exc:
            # A crashed producer may have unlinked the shm segment under
            # us.  Degrade to cache/regeneration instead of killing the
            # worker -- but only when the group's hazard data is
            # rebuildable from the config (the standard generator or a
            # region/hazard catalog selection); custom generators and
            # prebuilt ensembles were stripped before the process
            # boundary and cannot be.  The rebuild runs inline (a worker
            # never nests a pool) and is bit-identical to the shared
            # grid it replaces, by the generation determinism guarantee.
            if not _worker_fallback_ok:
                raise SerializationError(
                    f"stale shared-ensemble descriptor and no regeneration "
                    f"path for this group's custom hazard data: {exc}"
                ) from exc
            obs.inc("sweep.ensemble.attach_fallback")
            _worker_ensemble, _ = _acquire_ensemble(
                config.replace(jobs=1, resume=False)
            )
        else:
            obs.inc("sweep.ensemble.shared_attach")
    return _worker_ensemble


def _pool_run(config: StudyConfig) -> tuple[dict, dict]:
    """Run one study in a worker; return (matrix dict, metric snapshot)."""
    obs = Observability()
    with activate(obs):
        matrix = _analyze(_worker_get_ensemble(config), config, _worker_matrix_cache)
    return matrix_to_dict(matrix), obs.metrics.snapshot()


def _picklable(*objects) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except (pickle.PicklingError, TypeError, AttributeError):
        # Exactly the failures pickling an unsupported object raises.
        # Anything else -- KeyboardInterrupt, SystemExit, MemoryError --
        # propagates instead of being silently read as "not picklable".
        return False
    return True


def _run_pool(
    tasks: Sequence[SupervisedTask],
    jobs: int,
    obs: Observability | NullObservability,
    initializer,
    initargs: tuple,
    supervisor: StudySupervisor,
) -> Iterator[tuple[int, ScenarioMatrix | StudyFailure]]:
    """Supervised pool execution: yields settled studies, never hangs.

    The supervisor bounds every wait (its poll interval), detects
    collapsed pools and rebuilds them, enforces the per-study deadline,
    and converts terminal failures into :class:`StudyFailure` records
    (or raises, naming the study, under ``strict``) -- replacing the
    old bare ``as_completed`` + ``future.result()`` loop that hung on a
    silently-dead worker and aborted the sweep on the first error.
    """
    for task, outcome in supervisor.run_pool(
        tasks, jobs, _pool_run, initializer=initializer, initargs=initargs
    ):
        if isinstance(outcome, StudyFailure):
            yield task.position, outcome
        else:
            payload, snapshot = outcome
            obs.merge_snapshot(snapshot)
            yield task.position, matrix_from_dict(payload)


def _iter_group_results(
    ensemble: HazardEnsemble,
    tasks: Sequence[SupervisedTask],
    jobs: int,
    obs: Observability | NullObservability,
    supervisor: StudySupervisor,
    fallback_ok: bool = False,
) -> Iterator[tuple[int, ScenarioMatrix | StudyFailure]]:
    """Yield ``(grid position, matrix-or-failure)`` per task as each settles.

    Each task's payload is its full :class:`StudyConfig` (with any data
    objects still attached); the pool path strips those before the
    process boundary.  A shareable ensemble's depth grid is published
    as one shared-memory segment for the pool's lifetime and unlinked
    in the ``finally`` -- including on ``KeyboardInterrupt`` or a
    broken pool.
    """
    if jobs > 1 and len(tasks) > 1:
        # Workers receive the config without its data objects: the
        # ensemble ships by descriptor (or once via the legacy pickled
        # initializer) and a generator (with its mesh) never needs to
        # cross the process boundary.
        stripped = [
            dataclasses.replace(
                task,
                payload=task.payload.replace(ensemble=None, generator=None),
            )
            for task in tasks
        ]
        if not _picklable(*(task.payload for task in stripped)):
            obs.event("sweep.parallel_fallback", reason="unpicklable study inputs")
        elif shareable_ensemble(ensemble):
            handle = publish_shared_ensemble(ensemble)
            obs.inc("sweep.ensemble.shared_publish")
            try:
                yield from _run_pool(
                    stripped, jobs, obs, _pool_init_shared,
                    (handle.descriptor, fallback_ok), supervisor,
                )
            finally:
                handle.close()
                handle.unlink()
            return
        elif _picklable(ensemble):
            yield from _run_pool(
                stripped, jobs, obs, _pool_init, (ensemble,), supervisor
            )
            return
        else:
            obs.event("sweep.parallel_fallback", reason="unpicklable ensemble")
    matrix_cache: dict = {}

    def _serial_runner(config: StudyConfig) -> ScenarioMatrix:
        return _analyze(ensemble, config, matrix_cache)

    for task, outcome in supervisor.run_serial(tasks, _serial_runner):
        yield task.position, outcome


def _acquire_group_ensemble(
    config: StudyConfig, obs: Observability | NullObservability
) -> HazardEnsemble:
    """One group's hazard data, generated/loaded exactly once per sweep."""
    if config.ensemble is not None:
        obs.inc("sweep.ensemble.prebuilt")
        return config.ensemble
    with obs.span(
        "sweep.ensemble.acquire",
        count=config.n_realizations,
        seed=config.seed,
    ):
        # Ensemble-level resume needs a cache_dir; sweep-level resume
        # (finished-study shards) works without one.
        ensemble, _ = _acquire_ensemble(
            config.replace(resume=config.resume and config.cache_dir is not None)
        )
    obs.inc("sweep.ensemble.generated")
    return ensemble


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def _study_label(summary: dict) -> str:
    """A short human-readable study name for failure records and errors."""
    label = (
        f"{'+'.join(summary['configurations'])} | "
        f"{'+'.join(summary['scenarios'])} | "
        f"{summary['placement']}"
    )
    chain = summary.get("chain")
    if chain and chain != "paper":
        label += f" | chain={chain}"
    return label


def _build_manifest(
    *,
    hashes: Sequence[str],
    cache_keys: Sequence[str],
    chains: Sequence[str],
    groups: dict[str, list[int]],
    store: SweepStore | None,
    telemetry: dict | None,
) -> dict:
    studies: dict[str, dict] = {}
    for study_hash, cache_key, chain in zip(hashes, cache_keys, chains):
        entry = {"cache_key": cache_key, "chain": chain}
        if store is not None and study_hash in store.entries:
            recorded = store.entries[study_hash]
            entry["file"] = recorded["file"]
            entry["sha256"] = recorded["sha256"]
        studies[study_hash] = entry
    manifest = {
        "schema_version": SWEEP_MANIFEST_SCHEMA_VERSION,
        "kind": "repro.sweep_manifest",
        "n_studies": len(hashes),
        "n_groups": len(groups),
        "groups": {
            key: [hashes[i] for i in indices] for key, indices in groups.items()
        },
        "studies": studies,
    }
    if telemetry is not None:
        # Wall-clock and metric data vary run to run; everything above
        # this key is deterministic for a given grid (resume-identical).
        manifest["telemetry"] = telemetry
    return manifest


def run_sweep(
    configs: Sequence[StudyConfig],
    *,
    jobs: int = 1,
    sweep_dir: str | Path | None = None,
    resume: bool = False,
    manifest_out: str | Path | None = None,
    observability: bool = True,
    obs: Observability | NullObservability | None = None,
    strict: bool = True,
    retry: RetryPolicy | None = None,
    study_deadline_s: float | None = None,
    budget_s: float | None = None,
) -> SweepResult:
    """Run a batch of studies with shared-ensemble dedup; see module docs.

    ``jobs`` bounds the per-study analysis workers (ensemble generation
    has its own ``StudyConfig.jobs``).  ``sweep_dir`` enables
    study-granular checkpointing; ``resume=True`` (requires
    ``sweep_dir``) loads the verified finished studies and runs only the
    rest.  ``manifest_out`` writes the sweep manifest to an extra path
    alongside the one in ``sweep_dir``.

    Every study runs under a :class:`StudySupervisor`: retryable
    failures (crashed workers, hung studies past ``study_deadline_s``)
    are retried per ``retry`` (default :class:`RetryPolicy`), and a
    terminally-failed study either aborts the sweep with a
    :class:`~repro.errors.StudyFailureError` naming the study
    (``strict=True``, the default -- matching the historical behavior)
    or becomes a :class:`StudyFailure` on ``SweepResult.failures``
    while every other cell still completes (``strict=False``).
    ``budget_s`` bounds the whole sweep's wall clock: studies not
    started when it expires fail with
    :class:`~repro.errors.SweepBudgetError` instead of running.
    """
    configs = list(configs)
    if not configs:
        raise ConfigurationError("sweep needs at least one study config")
    for i, config in enumerate(configs):
        plan = config.resolve_sampling()
        if plan is not None and plan.name == "adaptive":
            raise ConfigurationError(
                f"sweep position {i}: adaptive sampling is study-level "
                "(its round loop owns realization counts); run it via "
                "repro.sampling.run_adaptive_study, or sweep its base "
                "plan directly"
            )
    if jobs < 1:
        raise ConfigurationError("sweep jobs must be at least 1")
    if resume and sweep_dir is None:
        raise ConfigurationError("sweep resume requires a sweep_dir")
    if obs is None:
        obs = Observability() if observability else NULL_OBSERVER
    start = time.perf_counter()
    with activate(obs):
        with obs.span("run_sweep", studies=len(configs)):
            cache_keys = [config.cache_key() for config in configs]
            chain_names = [config.resolve_chain().name for config in configs]
            hashes = [
                study_config_hash(config, ensemble_key=key)
                for config, key in zip(configs, cache_keys)
            ]
            seen: dict[str, int] = {}
            for i, study_hash in enumerate(hashes):
                if study_hash in seen:
                    raise ConfigurationError(
                        f"duplicate study in sweep grid: positions "
                        f"{seen[study_hash]} and {i} share identity "
                        f"{study_hash}"
                    )
                seen[study_hash] = i
            groups: dict[str, list[int]] = {}
            for i, key in enumerate(cache_keys):
                groups.setdefault(key, []).append(i)
            obs.set_gauge("sweep.studies", len(configs))
            obs.set_gauge("sweep.ensemble_groups", len(groups))

            store = SweepStore(sweep_dir) if sweep_dir is not None else None
            done: dict[str, ScenarioMatrix] = {}
            if store is not None and resume:
                with obs.span("sweep.resume_load"):
                    done = store.load(frozenset(hashes))
                if done:
                    obs.inc("sweep.studies_resumed", len(done))

            supervisor = StudySupervisor(
                policy=retry,
                strict=strict,
                deadline_s=study_deadline_s,
                budget_s=budget_s,
            )
            tasks_by_index = {
                i: SupervisedTask(
                    position=i,
                    label=_study_label(cell_summary(configs[i])),
                    study_hash=hashes[i],
                    payload=configs[i],
                )
                for i in range(len(configs))
            }
            matrices: dict[int, ScenarioMatrix] = {}
            failures: dict[int, StudyFailure] = {}
            resumed_indices: set[int] = set()
            for key, indices in groups.items():
                pending: list[int] = []
                for i in indices:
                    if hashes[i] in done:
                        matrices[i] = done[hashes[i]]
                        resumed_indices.add(i)
                    else:
                        pending.append(i)
                if not pending:
                    continue
                if supervisor.budget_exhausted():
                    # Never start a group past the sweep budget; strict
                    # mode raises SweepBudgetError from inside here.
                    for i in pending:
                        failures[i] = supervisor.budget_failure(
                            tasks_by_index[i]
                        )
                        obs.inc("sweep.studies_failed")
                    continue
                ensemble = _acquire_group_ensemble(configs[pending[0]], obs)
                if len(pending) > 1:
                    obs.inc("sweep.ensemble.reused", len(pending) - 1)
                pending_tasks = [tasks_by_index[i] for i in pending]
                first = configs[pending[0]]
                fallback_ok = first.ensemble is None and first.generator is None
                for i, outcome in _iter_group_results(
                    ensemble,
                    pending_tasks,
                    jobs,
                    obs,
                    supervisor,
                    fallback_ok,
                ):
                    if isinstance(outcome, StudyFailure):
                        failures[i] = outcome
                        obs.inc("sweep.studies_failed")
                        continue
                    matrices[i] = outcome
                    obs.inc("sweep.studies_completed")
                    if store is not None:
                        store.record(
                            StudyCell(
                                config=configs[i],
                                study_hash=hashes[i],
                                cache_key=key,
                                matrix=outcome,
                            )
                        )
                        store.write_manifest(
                            _build_manifest(
                                hashes=hashes,
                                cache_keys=cache_keys,
                                chains=chain_names,
                                groups=groups,
                                store=store,
                                telemetry=None,
                            )
                        )
    wall_clock_s = time.perf_counter() - start
    telemetry = {
        "wall_clock_s": round(wall_clock_s, 6),
        "metrics": obs.metrics.snapshot() if obs.enabled else {},
    }
    if failures:
        # Failure records vary run to run (chaos, deadlines), so they
        # live in the telemetry section: the deterministic part of the
        # manifest stays resume-identical.
        telemetry["failures"] = [
            failures[i].summary() for i in sorted(failures)
        ]
    manifest = _build_manifest(
        hashes=hashes,
        cache_keys=cache_keys,
        chains=chain_names,
        groups=groups,
        store=store,
        telemetry=telemetry,
    )
    if store is not None:
        store.write_manifest(manifest)
    if manifest_out is not None:
        write_json_artifact(manifest_out, manifest, "sweep manifest")
    cells = tuple(
        StudyCell(
            config=configs[i],
            study_hash=hashes[i],
            cache_key=cache_keys[i],
            matrix=matrices[i],
            resumed=i in resumed_indices,
        )
        for i in range(len(configs))
        if i in matrices
    )
    return SweepResult(
        cells=cells,
        manifest=manifest,
        observability=obs,
        failures=tuple(failures[i] for i in sorted(failures)),
    )
