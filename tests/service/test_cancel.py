"""Job cancellation over HTTP: DELETE /v1/jobs/<id>.

Queued jobs are withdrawn immediately; running adaptive-sampling jobs
stop cooperatively at their next round boundary; terminal jobs answer
409.  The journal records cancellations, so a restarted service replays
them instead of resurrecting the work.
"""

from __future__ import annotations

import time

import pytest

from repro.service import ServiceClientError, ServiceConfig, StudyService
from repro.service.jobs import JobState

from tests.service.test_service import SMALL_SPEC, boot, shutdown


@pytest.fixture()
def service_dir(tmp_path):
    return tmp_path / "service"


#: An adaptive study whose target is unreachable, so it runs all its
#: rounds -- plenty of boundaries for a cancel to land on.  A round takes
#: a few tens of milliseconds, so the full run must span many seconds:
#: the cancel has to arrive before the last round even when the test
#: thread is descheduled on a loaded machine.  A run that is cancelled
#: stops after its first round or two, so the bound costs nothing.
LONG_ADAPTIVE_SPEC = {
    "n_realizations": 100,
    "configurations": ["2"],
    "scenarios": ["hurricane"],
    "sampling": {
        "plan": "adaptive",
        "round_size": 40,
        "max_rounds": 600,
        "target_rel_ci": 0.0001,
    },
}


class TestQueuedCancellation:
    def test_queued_job_is_withdrawn_immediately(self, service_dir):
        # No worker: the job can only sit in the queue.
        service, server, client = boot(service_dir, start_worker=False)
        try:
            submitted = client.submit(SMALL_SPEC)
            out = client.cancel(submitted["job_id"])
            assert out["state"] == "cancelled"
            assert client.status(submitted["job_id"])["state"] == "cancelled"
        finally:
            shutdown(service, server)

    def test_cancelled_is_terminal_409(self, service_dir):
        service, server, client = boot(service_dir, start_worker=False)
        try:
            submitted = client.submit(SMALL_SPEC)
            client.cancel(submitted["job_id"])
            with pytest.raises(ServiceClientError) as excinfo:
                client.cancel(submitted["job_id"])
            assert excinfo.value.status == 409
        finally:
            shutdown(service, server)

    def test_unknown_job_is_404(self, service_dir):
        service, server, client = boot(service_dir, start_worker=False)
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                client.cancel("job-does-not-exist")
            assert excinfo.value.status == 404
        finally:
            shutdown(service, server)

    def test_done_job_refuses_cancellation(self, service_dir):
        service, server, client = boot(service_dir)
        try:
            submitted = client.submit(SMALL_SPEC)
            assert client.wait(submitted["job_id"], timeout=120.0)["state"] == "done"
            with pytest.raises(ServiceClientError) as excinfo:
                client.cancel(submitted["job_id"])
            assert excinfo.value.status == 409
        finally:
            shutdown(service, server)


class TestRunningCancellation:
    def test_adaptive_job_stops_at_a_round_boundary(self, service_dir):
        service, server, client = boot(service_dir)
        try:
            submitted = client.submit(LONG_ADAPTIVE_SPEC)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if client.status(submitted["job_id"])["state"] == "running":
                    break
                time.sleep(0.05)
            out = client.cancel(submitted["job_id"])
            # The response acknowledges the request; the state flips once
            # the worker reaches its next round boundary.
            assert out.get("cancel_requested") is True
            final = client.wait(submitted["job_id"], timeout=120.0)
            assert final["state"] == "cancelled"
            # A cancelled job never stores a result document.
            with pytest.raises(ServiceClientError) as excinfo:
                client.result(submitted["job_id"])
            assert excinfo.value.status == 409
            counters = client.metrics()["counters"]
            assert counters["service.cancel_requests"] == 1
            assert counters["service.jobs_cancelled"] == 1
        finally:
            shutdown(service, server)


class TestDurability:
    def test_restart_replays_cancelled_jobs(self, service_dir):
        service, server, client = boot(service_dir, start_worker=False)
        try:
            submitted = client.submit(SMALL_SPEC)
            client.cancel(submitted["job_id"])
        finally:
            shutdown(service, server)
        reborn = StudyService(ServiceConfig(service_dir=service_dir, port=0))
        record = reborn.jobs.get(submitted["job_id"])
        assert record.state is JobState.CANCELLED
