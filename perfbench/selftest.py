#!/usr/bin/env python3
"""Show that every correctness check rejects a corrupted output.

For each workload, real program outputs are produced at small size and
run through the workload's checks twice: unchanged (every check must
pass) and with one value corrupted -- one depth nudged by one ulp, one
count flipped, one document byte changed, one store-hit flag or exit
code flipped (every check must fail).

    python3 perfbench/selftest.py

Exits 0 when every check passed its clean output and rejected its
corrupted one.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import ROOT, SRC, _import_program


def _flip_count(document: dict) -> dict:
    """One red realization of the golden cell becomes green."""
    from checks import GOLDEN_ARCHITECTURE, GOLDEN_SCENARIO

    corrupted = copy.deepcopy(document)
    for entry in corrupted["matrix"]["entries"]:
        if (entry["scenario"], entry["architecture"]) == (GOLDEN_SCENARIO, GOLDEN_ARCHITECTURE):
            entry["counts"]["red"] -= 1
            entry["counts"]["green"] += 1
    return corrupted


def _nudge(matrix: np.ndarray) -> np.ndarray:
    corrupted = matrix.copy()
    corrupted[len(corrupted) // 2, 0] = np.nextafter(corrupted[len(corrupted) // 2, 0], np.inf)
    return corrupted


def cases(workdir):
    """(workload, check, problems on clean output, problems on corrupted)."""
    from repro import StudyConfig, run_study, run_sweep, sweep_grid
    from repro.hazards.hurricane.standard import standard_oahu_generator
    from repro.io.ensemble_cache import load_ensemble_cache, save_ensemble_cache
    from repro.io.results_io import matrix_to_dict
    from repro.service.store import ResultStore

    from checks import (
        DEFAULT_SEED,
        GOLDEN_N,
        canonical_bytes,
        check_bitwise,
        check_digest_stable,
        check_documents_equal,
        check_drained,
        check_golden_red,
        check_setups_agree,
        check_store_round_trip,
        depth_digest,
    )
    from digests import DigestRecord
    from jobs import JobOutcome, check_job
    from system import boot_service
    from workloads import COLD_REALIZATIONS, _golden_red, matrix_bytes, sweep_axes

    study = run_study(StudyConfig(n_realizations=GOLDEN_N, seed=DEFAULT_SEED))
    depths = study.ensemble.depth_matrix()

    # cold-study
    record = DigestRecord(ROOT)
    if f"{COLD_REALIZATIONS}:{DEFAULT_SEED}" not in record.reference:
        yield (
            "cold-study", "depth sha256 matches the committed reference",
            [f"no reference for numeric environment {record.scope}"], [],
        )
    else:
        cold = run_study(StudyConfig(n_realizations=COLD_REALIZATIONS, seed=DEFAULT_SEED))
        cold_depths = cold.ensemble.depth_matrix()
        del cold
        yield (
            "cold-study", "depth sha256 matches the committed reference",
            DigestRecord(ROOT).check(COLD_REALIZATIONS, DEFAULT_SEED, depth_digest(cold_depths)),
            DigestRecord(ROOT).check(
                COLD_REALIZATIONS, DEFAULT_SEED, depth_digest(_nudge(cold_depths))
            ),
        )
    seen: dict[str, str] = {}
    check_digest_stable(seen, "seed", depth_digest(depths))
    yield (
        "cold-study", "depth sha256 stable across requests and runs",
        check_digest_stable(dict(seen), "seed", depth_digest(depths)),
        check_digest_stable(dict(seen), "seed", depth_digest(_nudge(depths))),
    )
    red = _golden_red(study.ensemble)
    yield (
        "cold-study", "golden 93/1000 on the first 1000 rows",
        check_golden_red(red, "clean"), check_golden_red(red - 1, "corrupted"),
    )
    yield (
        "traced probe", "traced replay bit-identical to generate()",
        check_bitwise(depths, depths.copy(), "clean"),
        check_bitwise(depths, _nudge(depths), "corrupted"),
    )
    generator = standard_oahu_generator()
    small = generator.generate(count=200, seed=DEFAULT_SEED)
    pooled = generator.generate(count=200, seed=DEFAULT_SEED, n_jobs=2).depth_matrix()
    yield (
        "traced probe", "generate(n_jobs=2) bit-identical to serial",
        check_bitwise(small.depth_matrix(), pooled, "clean"),
        check_bitwise(small.depth_matrix(), _nudge(pooled), "corrupted"),
    )
    key = generator.cache_key(200, DEFAULT_SEED)
    save_ensemble_cache(small, workdir / "cache", key)
    loaded = load_ensemble_cache(workdir / "cache", key).depth_matrix()
    yield (
        "traced probe", "ensemble cache round trip bit-identical",
        check_bitwise(small.depth_matrix(), loaded, "clean"),
        check_bitwise(small.depth_matrix(), _nudge(loaded), "corrupted"),
    )
    document = {"matrix": matrix_to_dict(study.matrix)}
    yield (
        "cold-study", "re-analysis of the held ensemble matches",
        check_documents_equal([matrix_bytes(study.matrix)], [matrix_bytes(study.matrix)], "clean"),
        check_documents_equal(
            [matrix_bytes(study.matrix)],
            [canonical_bytes(_flip_count(document)["matrix"])], "corrupted",
        ),
    )

    # warm-sweep
    base = StudyConfig(n_realizations=200, seed=7)
    grid = sweep_grid(base, **sweep_axes())
    references = [matrix_bytes(run_study(cell).matrix) for cell in grid]
    cells = [matrix_bytes(cell.matrix) for cell in run_sweep(grid, jobs=1).cells]
    flipped = json.loads(cells[5])
    flipped["entries"][0]["counts"]["red"] += 1
    flipped["entries"][0]["counts"]["green"] -= 1
    corrupted_cells = cells[:5] + [canonical_bytes(flipped)] + cells[6:]
    yield (
        "warm-sweep", "every cell bit-identical to its run_study reference",
        check_documents_equal(references, cells, "clean"),
        check_documents_equal(references, corrupted_cells, "corrupted"),
    )

    setup = {"prime_digest": depth_digest(depths), "references": [c.decode() for c in references]}
    other = copy.deepcopy(setup)
    other["references"][5] = corrupted_cells[5].decode()
    yield (
        "warm-sweep", "set-up repetitions agree with each other",
        check_setups_agree([setup, copy.deepcopy(setup)], ("prime_digest", "references")),
        check_setups_agree([setup, other], ("prime_digest", "references")),
    )

    # service-mixed
    spec = {"n_realizations": GOLDEN_N, "seed": DEFAULT_SEED, "jobs": 2, "cache_dir": "x"}
    service_doc = {"summary": {}, "matrix": matrix_to_dict(study.matrix), "manifest": study.manifest}

    def job(kind: str, doc: dict, cached: bool) -> JobOutcome:
        return JobOutcome(
            kind=kind, started=0.0, latency_s=0.0, cached=cached, state="done", document=doc
        )

    first: dict[str, bytes] = {}
    clean_fresh = check_job(job("fresh", service_doc, False), "fresh", spec, first)
    yield (
        "service-mixed", "paper spec returns the golden 93/1000 red",
        clean_fresh,
        check_job(job("fresh", _flip_count(service_doc), False), "fresh", spec, {}),
    )
    truncated = copy.deepcopy(service_doc)
    truncated["matrix"]["entries"][-1]["counts"]["green"] -= 1
    yield (
        "service-mixed", "every matrix entry covers every realization",
        clean_fresh,
        check_job(job("variant", truncated, False), "variant", spec, {}),
    )
    changed = copy.deepcopy(service_doc)
    changed["manifest"]["wall_clock_s"] += 1.0
    yield (
        "service-mixed", "repeat byte-identical to its first computation",
        check_job(job("repeat", service_doc, True), "repeat", spec, first),
        check_job(job("repeat", changed, True), "repeat", spec, first),
    )
    yield (
        "service-mixed", "repeat served from the result store",
        check_job(job("repeat", service_doc, True), "repeat", spec, first),
        check_job(job("repeat", service_doc, False), "repeat", spec, first),
    )
    yield (
        "service-mixed", "fresh job not a result-store hit",
        check_job(job("fresh", service_doc, False), "fresh", spec, {}),
        check_job(job("fresh", service_doc, True), "fresh", spec, {}),
    )
    yield (
        "service-mixed", "variant job not a result-store hit",
        check_job(job("variant", service_doc, False), "variant", spec, {}),
        check_job(job("variant", service_doc, True), "variant", spec, {}),
    )
    store = ResultStore(workdir / "results")
    payload = {"summary": {}, "matrix": service_doc["matrix"]}
    store.put("selftest", payload)
    got = store.get("selftest")
    yield (
        "traced probe", "result store get returns what was put",
        check_store_round_trip(payload, got, "clean"),
        check_store_round_trip(payload, {**got, "matrix": _flip_count(got)["matrix"]}, "corrupted"),
    )
    service, _ = boot_service(SRC, workdir / "service")
    code = service.stop()
    yield (
        "service-mixed", "server drains cleanly on SIGTERM",
        check_drained(code, "clean"),
        check_drained(code if code else 1, "corrupted exit code"),
    )


def main() -> int:
    from system import adopt_orphans, reap_children

    adopt_orphans()
    try:
        return _selftest()
    finally:
        reap_children()


def _selftest() -> int:
    _import_program()
    failures = 0
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        for workload, check, clean, corrupted in cases(workdir):
            ok = not clean and bool(corrupted)
            failures += not ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {workload:14s} {check:52s} "
                f"clean: {'pass' if not clean else clean}  "
                f"corrupted: {'rejected' if corrupted else 'ACCEPTED'}",
                flush=True,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'all checks reject corrupted outputs' if not failures else f'{failures} checks failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
