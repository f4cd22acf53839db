"""Fault-tolerant run orchestration (checkpoint, retry, supervision).

The :mod:`repro.runtime` subsystem owns long, parallel passes at two
granularities: :class:`~repro.runtime.controller.RunController`
supervises the per-*realization* pass of ensemble generation (retries
crashed or hung workers, validates payloads, streams progress into
sharded :class:`~repro.runtime.checkpoint.CheckpointStore` files so
interrupted runs resume bit-identically), and
:class:`~repro.runtime.supervisor.StudySupervisor` supervises
per-*study* batch execution (fault isolation into
:class:`~repro.runtime.supervisor.StudyFailure` records, retry with
backoff, per-study deadlines, a whole-batch time budget, and pool
rebuild after collapse).  Both run their pooled passes on one
:class:`~repro.runtime.pool.WorkerPool` and classify failures with one
:func:`~repro.runtime.pool.classify_failure`.
:class:`~repro.runtime.faults.FaultPlan`
scripts deterministic chaos (crashes, kills, hangs, corrupt payloads,
torn files) that the test suite uses to prove those guarantees.
"""

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.controller import RetryPolicy, RunController
from repro.runtime.faults import FaultKind, FaultPlan, FaultSpec
from repro.runtime.pool import terminate_pool
from repro.runtime.supervisor import StudyFailure, StudySupervisor, SupervisedTask

__all__ = [
    "CheckpointStore",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "RunController",
    "StudyFailure",
    "StudySupervisor",
    "SupervisedTask",
    "terminate_pool",
]
