"""The always-on study service: HTTP front, supervised worker, drain.

``repro serve`` turns the library into a long-lived analysis server a
control-room (or CI) can submit studies to, built entirely on the
stdlib (:mod:`http.server`) -- zero new dependencies:

* ``POST /v1/studies``          -- submit a JSON study spec.  Returns
  ``202`` with a job id, ``200`` when the result store already holds
  this study (cache hit: identical studies never recompute), ``429``
  + ``Retry-After`` when the bounded queue is full (admission control,
  never a silent drop), ``503`` while draining, ``400`` on a bad spec.
* ``GET /v1/jobs/<id>``         -- job status, including a live metric
  snapshot of the in-flight run (streamed progress; adaptive-sampling
  jobs expose per-round ``sampling.p_hat`` / ``sampling.ci_rel_halfwidth``).
* ``DELETE /v1/jobs/<id>``      -- cancel a job: a queued job is
  withdrawn immediately, a running adaptive-sampling job stops at its
  next round boundary (partial merged result discarded, job marked
  ``cancelled``), a finished job answers ``409``.
* ``GET /v1/jobs/<id>/result``  -- the finished result document.
* ``GET /v1/studies/<hash>/result`` -- results by study identity.
* ``GET /v1/health``            -- queue depth, state counts, uptime.
* ``GET /v1/metrics``           -- the service observer's snapshot.

Durability: every job transition lands in an append-only fsynced
journal before it takes effect, results are stored atomically keyed by
``study_config_hash``, and on boot the journal is replayed -- queued
and interrupted jobs are re-enqueued (unless their result already
exists) so a ``kill -9`` loses no accepted work.  ``SIGTERM`` drains
gracefully: admission closes (503), the in-flight study finishes, the
journal is compacted, then the process exits.

Study execution rides the same supervision as sweeps
(:class:`~repro.runtime.supervisor.StudySupervisor`, ``strict=False``):
crashes and hangs retry with backoff, and a terminally-failed study
becomes a recorded failure on the job -- never a dead server.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.api import StudyConfig, run_study
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    ServiceError,
)
from repro.hazards.fragility import ThresholdFragility
from repro.io.results_io import matrix_to_dict
from repro.obs.observer import Observability, activate
from repro.runtime.controller import RetryPolicy
from repro.runtime.supervisor import (
    StudyFailure,
    StudySupervisor,
    SupervisedTask,
)
from repro.service.jobs import JobJournal, JobQueue, JobRecord, JobState
from repro.service.store import ResultStore
from repro.sweep.engine import sweep_study_hash
from repro.sweep.result import cell_summary

SERVICE_API_VERSION = 1

#: JSON spec fields a submission may carry, mapped onto StudyConfig.
#: Anything else is rejected with 400 -- objects (custom generators,
#: prebuilt ensembles, fragility instances) cannot cross HTTP.
_SPEC_FIELDS = frozenset(
    {
        "configurations",
        "placement",
        "scenarios",
        "n_realizations",
        "seed",
        "region",
        "hazard",
        "analysis_seed",
        "chain",
        # Accepted and ignored: 1.x specs carried an executor switch
        # ("batch") that never changed the numbers, and queued 1.x
        # specs are replayed from the journal at boot.
        "batch",
        "jobs",
        "cache_dir",
        "fragility_threshold",
        "sampling",
        "target_ci",
    }
)


def study_config_from_spec(spec: dict) -> StudyConfig:
    """Build a :class:`StudyConfig` from a submitted JSON spec.

    Only registry-name-addressable fields are accepted (architectures,
    scenarios, placement, chain, region, and hazard by name; fragility
    via ``fragility_threshold`` in meters); unknown fields raise
    :class:`ServiceError` so a typo'd submission fails loudly at the
    front door instead of silently running the default study.
    """
    if not isinstance(spec, dict):
        raise ServiceError("study spec must be a JSON object")
    unknown = sorted(set(spec) - _SPEC_FIELDS)
    if unknown:
        raise ServiceError(
            f"unknown study spec field(s) {unknown}; accepted: "
            f"{sorted(_SPEC_FIELDS)}"
        )
    kwargs: dict = {}
    for name in (
        "configurations",
        "placement",
        "scenarios",
        "n_realizations",
        "seed",
        "region",
        "hazard",
        "analysis_seed",
        "chain",
        "jobs",
        "cache_dir",
    ):
        if name in spec:
            kwargs[name] = spec[name]
    if "fragility_threshold" in spec:
        kwargs["fragility"] = ThresholdFragility(
            threshold_m=float(spec["fragility_threshold"])
        )
    if "sampling" in spec or "target_ci" in spec:
        # "sampling" is a plan name or spec dict; "target_ci" promotes
        # the plan to an adaptive run targeting that relative CI.
        from repro.sampling.plans import sampling_from_options

        try:
            kwargs["sampling"] = sampling_from_options(
                spec.get("sampling"), spec.get("target_ci")
            )
        except ReproError as exc:
            raise ServiceError(f"bad sampling spec: {exc}") from exc
    try:
        return StudyConfig(**kwargs)
    except TypeError as exc:
        raise ServiceError(f"malformed study spec: {exc}") from exc


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the study service needs to run."""

    service_dir: str | Path
    host: str = "127.0.0.1"
    port: int = 8765
    #: Bound on *queued* jobs; the admission-control knob.
    queue_capacity: int = 8
    #: Seconds clients are told to wait after a 429.
    retry_after_s: int = 5
    #: Retry policy for supervised study execution.
    retry: RetryPolicy | None = None
    #: Per-study wall-clock deadline (pooled paths only); None = none.
    study_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ServiceError("queue_capacity must be at least 1")
        if self.retry_after_s < 1:
            raise ServiceError("retry_after_s must be at least 1")


class StudyService:
    """Queue, journal, store, and worker -- everything but the HTTP front.

    One worker thread executes studies strictly one at a time: the
    observability layer's active observer is process-global, so a
    single runner keeps each job's telemetry (and its streamed
    progress) attributable to that job.  Results would be bit-identical
    regardless; throughput scales via each study's own ``jobs`` field
    (ensemble-generation workers), not via concurrent studies.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.dir = Path(config.service_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(self.dir / "results")
        self.journal = JobJournal(self.dir / "journal.jsonl")
        self.queue = JobQueue(config.queue_capacity)
        self.jobs: dict[str, JobRecord] = {}
        self.obs = Observability()
        self._lock = threading.Lock()
        self._seq = 0
        self._started = time.monotonic()
        self._draining = False
        self._worker: threading.Thread | None = None
        self._recover()

    # ------------------------------------------------------------------
    # Boot-time journal recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal; re-enqueue interrupted and queued jobs."""
        records = self.journal.replay()
        for job_id in sorted(records):
            record = records[job_id]
            self.jobs[job_id] = record
            self._seq = max(self._seq, _job_seq(job_id))
            if record.state.terminal:
                continue
            if record.study_hash in self.store:
                # The study finished but the 'done' journal line was
                # lost to the crash: the stored result is the truth.
                record.state = JobState.DONE
                self.journal.append("done", record)
                self.obs.inc("service.recovered_done")
                continue
            record.state = JobState.QUEUED
            record.enqueues += 1
            self.journal.append("requeued", record)
            self.queue.submit(record)
            self.obs.inc("service.recovered_requeued")

    # ------------------------------------------------------------------
    # Submission (admission control + cache + dedup)
    # ------------------------------------------------------------------
    def submit(self, spec: dict) -> tuple[JobRecord, bool]:
        """Admit one study; returns ``(job, cached)``.

        Raises :class:`ServiceError` on a bad spec (HTTP 400),
        :class:`AdmissionError` when the queue is full (429), and
        :class:`ServiceError` when draining (503, via ``draining``).
        """
        if self._draining:
            raise ServiceError("service is draining; not accepting studies")
        config = study_config_from_spec(spec)
        study_hash = sweep_study_hash(config)
        with self._lock:
            if study_hash in self.store:
                # Cache hit: a synthetic done-job pointing at the result.
                self.obs.inc("service.cache_hits")
                job = self._job_for_cached(study_hash, spec)
                return job, True
            for job in self.jobs.values():
                if job.study_hash == study_hash and not job.state.terminal:
                    # Identical study already in flight: join it.
                    self.obs.inc("service.dedup_joins")
                    return job, False
            self._seq += 1
            job = JobRecord(
                job_id=f"job-{self._seq:06d}-{study_hash[:8]}",
                study_hash=study_hash,
                spec=dict(spec),
            )
            # Journal before queue: an accepted-but-unjournaled job
            # could be lost to a crash, an admission-refused journal
            # line is merely re-enqueued work on the next boot.
            self.journal.append("submitted", job)
            try:
                self.queue.submit(job)
            except AdmissionError:
                self.journal.append(
                    "failed",
                    _with_error(
                        job,
                        {
                            "error_type": "AdmissionError",
                            "message": "queue full at submission",
                            "attempts": 0,
                        },
                    ),
                )
                self.obs.inc("service.admission_rejects")
                raise
            self.jobs[job.job_id] = job
            self.obs.inc("service.jobs_accepted")
            return job, False

    def _job_for_cached(self, study_hash: str, spec: dict) -> JobRecord:
        for job in self.jobs.values():
            if job.study_hash == study_hash and job.state is JobState.DONE:
                return job
        self._seq += 1
        job = JobRecord(
            job_id=f"job-{self._seq:06d}-{study_hash[:8]}",
            study_hash=study_hash,
            spec=dict(spec),
            state=JobState.DONE,
        )
        self.journal.append("submitted", job)
        self.journal.append("done", job)
        self.jobs[job.job_id] = job
        return job

    # ------------------------------------------------------------------
    # The worker
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._worker is not None:
            raise ServiceError("service worker already started")
        self._worker = threading.Thread(
            target=self._run_worker, name="study-worker", daemon=True
        )
        self._worker.start()

    def _run_worker(self) -> None:
        while True:
            job = self.queue.take(timeout=0.2)
            if job is None:
                if self.queue.closed:
                    return
                continue
            self._execute(job)

    def _execute(self, job: JobRecord) -> None:
        from repro.sampling.adaptive import CancelToken

        with self._lock:
            job.state = JobState.RUNNING
            job.obs = Observability()
            if job.cancel is None:
                job.cancel = CancelToken()
            token = job.cancel
        self.journal.append("started", job)
        supervisor = StudySupervisor(
            policy=self.config.retry,
            strict=False,
            deadline_s=self.config.study_deadline_s,
        )
        config = study_config_from_spec(job.spec)
        task = SupervisedTask(
            position=0,
            label=_spec_label(config),
            study_hash=job.study_hash,
            payload=config,
        )
        with activate(job.obs):
            ((_, outcome),) = list(
                supervisor.run_serial(
                    [task], lambda cfg: self._run_one(cfg, token)
                )
            )
        if isinstance(outcome, StudyFailure):
            # Count before the state flips: a client that sees the
            # terminal state must also see its counter.
            with self._lock:
                self.obs.inc("service.jobs_failed")
                job.state = JobState.FAILED
                job.error = outcome.summary()
            self.journal.append("failed", job)
            return
        if isinstance(outcome, dict) and outcome.pop("_cancelled", False):
            # An adaptive run stopped at a round boundary on request:
            # the partial merged result is discarded (never stored under
            # the study hash -- a resubmission must compute the full
            # answer), and the job lands terminal-cancelled.
            with self._lock:
                self.obs.inc("service.jobs_cancelled")
                job.state = JobState.CANCELLED
            self.journal.append("cancelled", job)
            return
        self.store.put(job.study_hash, outcome)
        with self._lock:
            self.obs.inc("service.jobs_done")
            job.state = JobState.DONE
        self.journal.append("done", job)

    def _run_one(self, config: StudyConfig, token=None) -> dict:
        """Execute one study and shape its result document.

        Adaptive-sampling studies run through the round controller with
        the job's cancel token and stream per-round progress into the
        job's observer; a cancelled run returns a ``_cancelled`` marker
        (not an exception -- the supervisor would retry one).
        """
        plan = config.resolve_sampling()
        if plan is not None and plan.name == "adaptive":
            from repro.obs.observer import current as current_observer
            from repro.sampling.adaptive import run_adaptive_study

            try:
                adaptive = run_adaptive_study(
                    config, obs=current_observer(), cancel=token
                )
            except ConfigurationError:
                # Cancelled before the first round completed: there is
                # no partial estimate to document, but the job is
                # cancelled, not failed.
                if token is not None and token.cancelled:
                    return {"_cancelled": True}
                raise
            document = {
                "summary": cell_summary(config),
                "matrix": matrix_to_dict(adaptive.result.matrix),
                "manifest": adaptive.result.manifest,
            }
            if adaptive.cancelled:
                document["_cancelled"] = True
            return document
        result = run_study(config)
        return {
            "summary": cell_summary(config),
            "matrix": matrix_to_dict(result.matrix),
            "manifest": result.manifest,
        }

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> dict:
        """Cancel one job; returns its (possibly updated) summary.

        A queued job is withdrawn from the queue and lands terminal
        ``cancelled`` immediately.  A running job gets its cooperative
        token tripped: an adaptive-sampling study stops at its next
        round boundary (and then lands ``cancelled``); other studies
        run to completion (the token has no safe preemption point), so
        the response carries ``cancel_requested`` rather than a state
        change.  A terminal job raises :class:`ServiceError` (HTTP 409).
        """
        from repro.sampling.adaptive import CancelToken

        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}")
            if job.state.terminal:
                raise ServiceError(
                    f"job {job_id!r} is already {job.state.value}"
                )
            if job.state is JobState.QUEUED and self.queue.remove(job_id):
                job.state = JobState.CANCELLED
                self.journal.append("cancelled", job)
                self.obs.inc("service.jobs_cancelled")
                return job.summary()
            # Running -- or claimed by the worker between our checks.
            # Both assignments of job.cancel happen under self._lock, so
            # the token we trip here is the one the worker uses.
            if job.cancel is None:
                job.cancel = CancelToken()
            job.cancel.cancel()  # type: ignore[attr-defined]
            self.journal.append("cancel_requested", job)
            self.obs.inc("service.cancel_requests")
            payload = job.summary()
            payload["cancel_requested"] = True
            return payload

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    def status(self, job_id: str) -> dict:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}")
            payload = job.summary()
            if job.state is JobState.RUNNING and isinstance(
                job.obs, Observability
            ):
                payload["progress"] = job.obs.metrics.snapshot()
        return payload

    def result_for_job(self, job_id: str) -> dict:
        status = self.status(job_id)
        if status["state"] != JobState.DONE.value:
            raise ServiceError(
                f"job {job_id!r} is {status['state']}, not done"
            )
        document = self.store.get(status["study_hash"])
        if document is None:
            raise ServiceError(
                f"result for job {job_id!r} missing from the store"
            )
        return document

    def result_for_study(self, study_hash: str) -> dict:
        document = self.store.get(study_hash)
        if document is None:
            raise ServiceError(f"no stored result for study {study_hash!r}")
        return document

    def health(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
        return {
            "api_version": SERVICE_API_VERSION,
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "queued": len(self.queue),
            "queue_capacity": self.config.queue_capacity,
            "jobs": states,
            "results_stored": len(self.store.study_hashes()),
        }

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish in-flight work, compact the journal.

        Returns ``True`` when the worker finished cleanly within
        ``timeout`` (``None`` = wait forever).  Safe to call more than
        once.
        """
        self._draining = True
        self.queue.close()
        clean = True
        if self._worker is not None:
            self._worker.join(timeout)
            clean = not self._worker.is_alive()
        if clean:
            with self._lock:
                self.journal.compact(self.jobs)
        return clean


def _job_seq(job_id: str) -> int:
    """The numeric sequence embedded in ``job-<seq>-<hash8>`` ids."""
    try:
        return int(job_id.split("-")[1])
    except (IndexError, ValueError):
        return 0


def _with_error(job: JobRecord, error: dict) -> JobRecord:
    job.state = JobState.FAILED
    job.error = error
    return job


def _spec_label(config: StudyConfig) -> str:
    summary = cell_summary(config)
    return (
        f"{'+'.join(summary['configurations'])} | "
        f"{'+'.join(summary['scenarios'])} | {summary['placement']}"
    )


# ----------------------------------------------------------------------
# The HTTP front
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP routing onto a :class:`StudyService`."""

    service: StudyService  # installed by make_server
    protocol_version = "HTTP/1.1"

    # Silence the default stderr access log; the service observer
    # carries the signal instead.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _send_json(
        self, code: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        if self.path.rstrip("/") != "/v1/studies":
            self._send_json(404, {"error": f"no such endpoint {self.path}"})
            return
        try:
            spec = self._read_body()
            job, cached = self.service.submit(spec)
        except AdmissionError as exc:
            self._send_json(
                429,
                {"error": str(exc)},
                {"Retry-After": str(self.service.config.retry_after_s)},
            )
        except ServiceError as exc:
            code = 503 if self.service.draining else 400
            self._send_json(code, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
        else:
            payload = job.summary()
            payload["cached"] = cached
            self._send_json(200 if cached else 202, payload)

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        parts = [p for p in self.path.split("/") if p]
        try:
            if parts == ["v1", "health"]:
                self._send_json(200, self.service.health())
            elif parts == ["v1", "metrics"]:
                self._send_json(200, self.service.obs.metrics.snapshot())
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send_json(200, self.service.status(parts[2]))
            elif (
                len(parts) == 4
                and parts[0] == "v1"
                and parts[1] == "jobs"
                and parts[3] == "result"
            ):
                self._send_json(200, self.service.result_for_job(parts[2]))
            elif (
                len(parts) == 4
                and parts[0] == "v1"
                and parts[1] == "studies"
                and parts[3] == "result"
            ):
                self._send_json(200, self.service.result_for_study(parts[2]))
            else:
                self._send_json(404, {"error": f"no such endpoint {self.path}"})
        except ServiceError as exc:
            message = str(exc)
            code = 404 if ("unknown job" in message or "no stored" in message) else 409
            self._send_json(code, {"error": message})

    def do_DELETE(self) -> None:  # noqa: N802 (http.server contract)
        parts = [p for p in self.path.split("/") if p]
        if len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            self._send_json(404, {"error": f"no such endpoint {self.path}"})
            return
        try:
            payload = self.service.cancel(parts[2])
        except ServiceError as exc:
            message = str(exc)
            code = 404 if "unknown job" in message else 409
            self._send_json(code, {"error": message})
        else:
            self._send_json(200, payload)


def make_server(service: StudyService) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to the service's host/port."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer(
        (service.config.host, service.config.port), handler
    )


def run_forever(
    config: ServiceConfig, *, install_signals: bool = True
) -> int:
    """Boot the service, serve until SIGTERM/SIGINT, drain, exit.

    The signal handler closes admission and stops the HTTP loop; the
    in-flight study finishes, the journal compacts, and the function
    returns 0 on a clean drain (1 if the worker had to be abandoned).
    """
    service = StudyService(config)
    server = make_server(service)
    service.start()

    def _shutdown(signum, frame) -> None:
        # shutdown() must come from another thread than serve_forever's.
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    clean = service.drain(timeout=600.0)
    return 0 if clean else 1
