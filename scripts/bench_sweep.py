"""Sweep-engine benchmark -> BENCH_sweep.json.

Times the paper's study matrix two ways over the same grid:

- ``sequential`` -- one :func:`repro.run_study` call per cell, the way a
  script without the sweep engine would run it.  Every call regenerates
  (or at best re-loads) the hazard ensemble.
- ``sweep``      -- one :func:`repro.sweep.run_sweep` call: the grid is
  partitioned by hazard identity, the shared ensemble is generated once,
  and per-cell analysis fans out over ``--jobs`` workers.

Both paths are bit-identical per cell (asserted), so the reported
speedup is pure scheduling: (cells - 1) saved ensemble generations plus
parallel analysis.  ``--assert-single-generation`` additionally fails
the run unless the sweep's own counters show exactly one ensemble
generation -- CI uses this as the dedup smoke check.  With ``--jobs``
above 1 the run also fails unless pool workers attached the shared
ensemble and no ``sweep.parallel_fallback`` event fired, so a sweep
that quietly ran serially cannot pass.  Run from the repo root::

    PYTHONPATH=src python scripts/bench_sweep.py [--count 200] [--jobs 2] \\
        [--output BENCH_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.api import StudyConfig, run_study
from repro.hazards.hurricane.standard import DEFAULT_SEED
from repro.io.results_io import matrix_to_dict
from repro.sweep import run_sweep, sweep_grid


def build_grid(count: int, seed: int) -> list[StudyConfig]:
    """The paper matrix as grid cells: 5 architectures x 4 scenarios."""
    base = StudyConfig(n_realizations=count, seed=seed, observability=False)
    return sweep_grid(
        base,
        configurations=["2", "2-2", "6", "6-6", "6+6+6"],
        scenarios=[
            "hurricane",
            "hurricane+intrusion",
            "hurricane+isolation",
            "hurricane+intrusion+isolation",
        ],
    )


def time_sequential(grid: list[StudyConfig]) -> tuple[float, list[dict]]:
    start = time.perf_counter()
    matrices = [matrix_to_dict(run_study(config).matrix) for config in grid]
    return time.perf_counter() - start, matrices


def time_sweep(grid: list[StudyConfig], jobs: int) -> tuple[float, object]:
    start = time.perf_counter()
    result = run_sweep(grid, jobs=jobs)
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="ensemble size")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=2, help="sweep analysis workers")
    parser.add_argument("--output", default="BENCH_sweep.json")
    parser.add_argument(
        "--assert-single-generation",
        action="store_true",
        help="fail unless the sweep generated the shared ensemble exactly once",
    )
    args = parser.parse_args()

    grid = build_grid(args.count, args.seed)
    print(f"grid: {len(grid)} studies, {args.count} realizations, jobs={args.jobs}")

    sweep_s, result = time_sweep(grid, args.jobs)
    counters = result.observability.metrics.snapshot().get("counters", {})
    generated = int(counters.get("sweep.ensemble.generated", 0))
    reused = int(counters.get("sweep.ensemble.reused", 0))
    shared_publish = int(counters.get("sweep.ensemble.shared_publish", 0))
    shared_attach = int(counters.get("sweep.ensemble.shared_attach", 0))
    fallbacks = result.observability.events.of_kind("sweep.parallel_fallback")
    print(
        f"sweep:      {sweep_s:8.2f}s  (generated {generated}, reused {reused}, "
        f"shm published {shared_publish}, worker attaches {shared_attach})"
    )
    if args.assert_single_generation and generated != 1:
        print(f"FAIL: expected exactly 1 ensemble generation, saw {generated}")
        return 1
    if args.jobs > 1 and (shared_attach == 0 or fallbacks):
        reasons = [event.get("reason") for event in fallbacks]
        print(
            f"FAIL: --jobs {args.jobs} did not run the pool (worker attaches "
            f"{shared_attach}, parallel fallbacks {reasons})"
        )
        return 1

    sequential_s, matrices = time_sequential(grid)
    print(f"sequential: {sequential_s:8.2f}s  ({len(grid)} run_study calls)")

    for cell, solo in zip(result.cells, matrices):
        if matrix_to_dict(cell.matrix) != solo:
            print(f"FAIL: sweep matrix diverges from run_study for {cell.study_hash}")
            return 1
    print("per-cell matrices bit-identical to run_study")

    speedup = sequential_s / sweep_s if sweep_s > 0 else float("inf")
    print(f"speedup:    {speedup:8.2f}x")

    payload = {
        "benchmark": "sweep",
        "n_studies": len(grid),
        "n_groups": result.manifest["n_groups"],
        "count": args.count,
        "seed": args.seed,
        "jobs": args.jobs,
        "sweep_s": round(sweep_s, 4),
        "sequential_s": round(sequential_s, 4),
        "speedup": round(speedup, 3),
        "ensemble_generated": generated,
        "ensemble_reused": reused,
        "ensemble_shared_publish": shared_publish,
        "ensemble_shared_attach": shared_attach,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
