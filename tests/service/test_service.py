"""The study service end to end: HTTP contract, durability, drain.

Each test boots a real ``ThreadingHTTPServer`` on an ephemeral port and
talks to it through :class:`ServiceClient` -- the same path an external
consumer takes -- so status codes, headers, and JSON shapes are pinned
by the suite, not just the Python API.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import run_study, study_config_hash
from repro.errors import ReproError, ServiceError
from repro.io.results_io import matrix_to_dict
from repro.service import (
    JobState,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    StudyService,
    make_server,
    study_config_from_spec,
)
from repro.service.jobs import JobRecord
from repro.obs.observer import Observability

#: A study small enough to finish in about a second.
SMALL_SPEC = {
    "n_realizations": 30,
    "configurations": ["2"],
    "scenarios": ["hurricane"],
}


@pytest.fixture()
def service_dir(tmp_path):
    return tmp_path / "service"


def boot(service_dir, *, start_worker=True, **overrides):
    """A running service + HTTP server + client on an ephemeral port."""
    config = ServiceConfig(service_dir=service_dir, port=0, **overrides)
    service = StudyService(config)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    if start_worker:
        service.start()
    port = server.server_address[1]
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    return service, server, client


def shutdown(service, server):
    server.shutdown()
    server.server_close()
    service.drain(timeout=30.0)


class TestSpecParsing:
    def test_defaults_to_the_paper_study(self):
        config = study_config_from_spec({})
        assert config.n_realizations == 1000

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ServiceError, match="unknown study spec"):
            study_config_from_spec({"n_realisations": 10})

    def test_fragility_threshold_builds_the_model(self):
        config = study_config_from_spec({"fragility_threshold": 1.5})
        assert config.fragility.threshold_m == 1.5

    def test_non_object_spec_is_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            study_config_from_spec([1, 2])


class TestEndToEnd:
    def test_submit_run_fetch_matches_local_run_bit_for_bit(
        self, service_dir
    ):
        service, server, client = boot(service_dir)
        try:
            submitted = client.submit(SMALL_SPEC)
            assert submitted["cached"] is False
            status = client.wait(submitted["job_id"], timeout=120.0)
            assert status["state"] == "done"
            result = client.result(submitted["job_id"])
            # The service path changes transport, never the numbers.
            local = run_study(study_config_from_spec(SMALL_SPEC))
            assert result["matrix"] == matrix_to_dict(local.matrix)
            assert (
                result["manifest"]["config_hash"]
                == local.manifest["config_hash"]
            )
            # The result is also addressable by study identity.
            by_hash = client.result_for_study(submitted["study_hash"])
            assert by_hash == result
        finally:
            shutdown(service, server)

    def test_resubmission_is_a_cache_hit(self, service_dir):
        service, server, client = boot(service_dir)
        try:
            first = client.submit(SMALL_SPEC)
            client.wait(first["job_id"], timeout=120.0)
            second = client.submit(SMALL_SPEC)
            assert second["cached"] is True
            assert second["state"] == "done"
            counters = client.metrics()["counters"]
            assert counters["service.cache_hits"] == 1
        finally:
            shutdown(service, server)

    def test_identical_inflight_submissions_join_one_job(self, service_dir):
        service, server, client = boot(service_dir, start_worker=False)
        try:
            first = client.submit(SMALL_SPEC)
            second = client.submit(SMALL_SPEC)
            assert second["job_id"] == first["job_id"]
        finally:
            shutdown(service, server)

    def test_full_queue_is_429_with_retry_after(self, service_dir):
        service, server, client = boot(
            service_dir, start_worker=False, queue_capacity=1, retry_after_s=7
        )
        try:
            client.submit(SMALL_SPEC)
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit({**SMALL_SPEC, "seed": 999})
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 7.0
            # Backpressure was explicit: the admitted job is untouched.
            assert client.health()["queued"] == 1
        finally:
            shutdown(service, server)

    def test_bad_spec_is_400(self, service_dir):
        service, server, client = boot(service_dir, start_worker=False)
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit({"bogus_field": 1})
            assert excinfo.value.status == 400
        finally:
            shutdown(service, server)

    def test_unknown_job_is_404(self, service_dir):
        service, server, client = boot(service_dir, start_worker=False)
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                client.status("job-999999-deadbeef")
            assert excinfo.value.status == 404
        finally:
            shutdown(service, server)

    def test_result_before_done_is_409(self, service_dir):
        service, server, client = boot(service_dir, start_worker=False)
        try:
            submitted = client.submit(SMALL_SPEC)
            with pytest.raises(ServiceClientError) as excinfo:
                client.result(submitted["job_id"])
            assert excinfo.value.status == 409
        finally:
            shutdown(service, server)

    def test_failed_study_is_recorded_not_fatal(
        self, service_dir, monkeypatch
    ):
        import repro.service.server as server_mod

        def exploding(config, **kwargs):
            raise ReproError("chaos: study exploded")

        monkeypatch.setattr(server_mod, "run_study", exploding)
        service, server, client = boot(service_dir)
        try:
            submitted = client.submit(SMALL_SPEC)
            status = client.wait(submitted["job_id"], timeout=30.0)
            assert status["state"] == "failed"
            assert status["error"]["error_type"] == "ReproError"
            assert "exploded" in status["error"]["message"]
            # The service survived: health still answers.
            assert client.health()["status"] == "ok"
        finally:
            shutdown(service, server)

    def test_running_status_streams_progress(self, service_dir):
        service, server, client = boot(service_dir, start_worker=False)
        try:
            submitted = client.submit(SMALL_SPEC)
            job = service.jobs[submitted["job_id"]]
            job.state = JobState.RUNNING
            job.obs = Observability()
            job.obs.inc("pipeline.realizations", 17)
            status = client.status(submitted["job_id"])
            counters = status["progress"]["counters"]
            assert counters["pipeline.realizations"] == 17
        finally:
            job.state = JobState.QUEUED
            shutdown(service, server)


class TestDurability:
    def test_restart_recovers_queued_jobs_from_the_journal(
        self, service_dir
    ):
        service, server, client = boot(service_dir, start_worker=False)
        submitted = client.submit(SMALL_SPEC)
        # Simulated kill -9: abandon the whole process state.  (drain()
        # is deliberately NOT called -- the journal is all that's left.)
        server.shutdown()
        server.server_close()

        reborn, server2, client2 = boot(service_dir)
        try:
            assert submitted["job_id"] in reborn.jobs
            status = client2.wait(submitted["job_id"], timeout=120.0)
            assert status["state"] == "done"
            assert status["enqueues"] == 2  # original + recovery
            result = client2.result(submitted["job_id"])
            local = run_study(study_config_from_spec(SMALL_SPEC))
            assert result["matrix"] == matrix_to_dict(local.matrix)
        finally:
            shutdown(reborn, server2)

    def test_queued_1_7_spec_with_batch_field_replays(self, service_dir):
        """A journal written by 1.7.0 still replays: its queued spec
        carries the removed ``"batch"`` executor switch, which 2.0.0
        accepts and ignores -- same matrix, same study identity."""
        line = (
            '{"enqueues": 1, "event": "submitted", '
            '"job_id": "job-000001-6f4a2506", "schema_version": 1, '
            '"spec": {"batch": false, "configurations": ["2"], '
            '"n_realizations": 30, "scenarios": ["hurricane"]}, '
            '"state": "queued", '
            '"study_hash": "6f4a25061bdafc85a023f564edb04ff2"}\n'
        )
        service_dir.mkdir(parents=True)
        (service_dir / "journal.jsonl").write_text(line)
        assert study_config_from_spec(
            {**SMALL_SPEC, "batch": False}
        ) == study_config_from_spec(SMALL_SPEC)

        service, server, client = boot(service_dir)
        try:
            status = client.wait("job-000001-6f4a2506", timeout=120.0)
            assert status["state"] == "done"
            assert status["study_hash"] == "6f4a25061bdafc85a023f564edb04ff2"
            result = client.result("job-000001-6f4a2506")
            local = run_study(study_config_from_spec(SMALL_SPEC))
            assert result["matrix"] == matrix_to_dict(local.matrix)
            assert (
                result["manifest"]["config_hash"]
                == local.manifest["config_hash"]
            )
            # A fresh submission without the field is the same study.
            again = client.submit(SMALL_SPEC)
            assert again["cached"] is True
            assert again["study_hash"] == status["study_hash"]
        finally:
            shutdown(service, server)

    def test_restart_with_stored_result_marks_job_done(self, service_dir):
        service, server, client = boot(service_dir)
        submitted = client.submit(SMALL_SPEC)
        client.wait(submitted["job_id"], timeout=120.0)
        server.shutdown()
        server.server_close()
        service.drain(timeout=30.0)
        # Corrupt the last journal line into a torn tail: the 'done'
        # event is lost, but the stored result survives.
        journal = service_dir / "journal.jsonl"
        text = journal.read_text()
        journal.write_text(text[: text.rstrip("\n").rfind("\n") + 1])

        reborn, server2, client2 = boot(service_dir, start_worker=False)
        try:
            # Recovery noticed the stored result instead of re-running.
            status = client2.status(submitted["job_id"])
            assert status["state"] == "done"
            snapshot = reborn.obs.metrics.snapshot()["counters"]
            assert snapshot["service.recovered_done"] == 1
        finally:
            shutdown(reborn, server2)

    def test_drain_refuses_new_work_and_compacts(self, service_dir):
        service, server, client = boot(service_dir)
        submitted = client.submit(SMALL_SPEC)
        client.wait(submitted["job_id"], timeout=120.0)
        assert service.drain(timeout=30.0) is True
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({**SMALL_SPEC, "seed": 31})
        assert excinfo.value.status == 503
        server.shutdown()
        server.server_close()
        # The compacted journal replays to exactly the finished job.
        reborn = StudyService(ServiceConfig(service_dir=service_dir, port=0))
        assert reborn.jobs[submitted["job_id"]].state is JobState.DONE


class TestServeOptions:
    def test_only_max_retries_reaches_the_service_policy(self, tmp_path):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--dir", str(tmp_path), "--max-retries", "5"])
        assert args.max_retries == 5
        # The per-study deadline and the generation timeout never took
        # effect on the service's inline jobs, so they are gone.
        for dead in (["--study-deadline", "5"], ["--task-timeout", "5"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", "--dir", str(tmp_path), *dead])
        with pytest.raises(TypeError):
            ServiceConfig(service_dir=tmp_path, study_deadline_s=5.0)
