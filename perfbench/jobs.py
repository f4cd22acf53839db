"""One study-service job from the client's side: submit, poll, fetch.

The job's latency runs from submit until its result has been fetched.
A traced job also notes when the job first leaves ``queued`` and when it
finishes, which splits the latency into the service's phases.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from checks import (
    DEFAULT_SEED,
    GOLDEN_N,
    canonical_bytes,
    check_golden_red,
    check_matrix_totals,
    check_store_flag,
    red_count_of_document,
)

#: Status poll intervals: fine while a job may still be one that takes
#: tens of milliseconds (a variant), so its latency is not quantized;
#: coarse after that, so polls do not crowd out a study on two cores.
FINE_POLL_S = 0.004
FINE_FOR_S = 0.3
POLL_S = 0.02

TERMINAL = ("done", "failed", "cancelled")


@dataclass
class JobOutcome:
    kind: str
    started: float
    latency_s: float
    cached: bool
    state: str
    document: dict
    submit_s: float = 0.0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    fetch_s: float = 0.0
    polls: int = 0
    block: int = 0

    @property
    def red(self) -> int | None:
        return red_count_of_document(self.document)


def run_job(client, spec: dict, *, traced: bool, kind: str = "") -> JobOutcome:
    """Submit ``spec`` and wait for its result document."""
    clock = time.perf_counter
    start = clock()
    submitted = client.submit(spec)
    submit_s = clock() - start
    state = submitted["state"]
    left_queue = clock() if state != "queued" else None
    polls = 0
    while state not in TERMINAL:
        time.sleep(FINE_POLL_S if clock() - start < FINE_FOR_S else POLL_S)
        state = client.status(submitted["job_id"])["state"]
        polls += 1
        if left_queue is None and state != "queued":
            left_queue = clock()
    finished = clock()
    document = client.result(submitted["job_id"]) if state == "done" else {}
    end = clock()
    outcome = JobOutcome(
        kind=kind,
        started=start,
        latency_s=end - start,
        cached=bool(submitted.get("cached")),
        state=state,
        document=document,
        polls=polls,
    )
    if traced:
        left_queue = finished if left_queue is None else left_queue
        outcome.submit_s = submit_s
        outcome.queue_wait_s = left_queue - start
        outcome.run_s = finished - left_queue
        outcome.fetch_s = end - finished
    return outcome


def check_job(outcome: JobOutcome, kind: str, spec: dict, first: dict[str, bytes]) -> list[str]:
    """Problems with one finished job.  ``first`` maps each spec to the
    bytes of its first computation, which every repeat must match."""
    label = f"{kind} job seed {spec['seed']}"
    if outcome.state != "done":
        return [f"{label} ended {outcome.state}"]
    problems = check_matrix_totals(outcome.document, spec["n_realizations"], label)
    problems += check_store_flag(kind, outcome.cached, label)
    key = json.dumps(spec, sort_keys=True)
    if kind == "repeat":
        if canonical_bytes(outcome.document) != first[key]:
            problems.append(f"{label} differs from its first computation")
    else:
        first[key] = canonical_bytes(outcome.document)
    if kind == "fresh" and spec["seed"] == DEFAULT_SEED and spec["n_realizations"] == GOLDEN_N:
        problems += check_golden_red(outcome.red, f"{label} (paper spec)")
    return problems
