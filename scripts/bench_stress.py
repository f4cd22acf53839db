"""100k-realization stress benchmark -> BENCH_stress.json.

Proves the batched executor's headline claim end to end, at scale:

1. **Generate** a large ensemble (default 100,000 realizations) on a
   coarsened coastal mesh (``--mesh-spacing``, default 12 km) so the
   hazard side stays tractable while the analysis side sees the full
   realization count.  The mesh spacing changes *which* depths come out,
   never the executor contract, so the oracle comparison is unaffected.
2. **Time** the paper's full (scenario x architecture) matrix through
   both executors -- a per-realization loop of ``ThreatChain.run`` (the
   oracle) and the fused batched kernels -- and fail unless the
   speedup clears ``--min-speedup`` (10x by default).  A second
   *stochastic* lane repeats the measurement with ``LogisticFragility``
   and the randomized ``ProbabilisticAttacker`` -- the chains that only
   batch under the RNG-draw contract -- gated by the same floor.
3. **Verify** profile-level bitwise identity cell by cell at the stress
   count (both lanes), and re-check the paper's golden split (93/1000
   RED for ``hurricane+intrusion`` on ``2-2``) at the standard
   1000-realization count through *both* public entry points,
   ``run_study`` and ``run_sweep``.

Run from the repo root::

    PYTHONPATH=src python scripts/bench_stress.py [--count 100000] [--min-speedup 10]

CI runs a reduced-count smoke (see ``.github/workflows``); the committed
``BENCH_stress.json`` comes from the full default run.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.api import StudyConfig, run_study
from repro.core.chain import CHAIN_PAPER, ChainContext
from repro.core.outcomes import OperationalProfile, ScenarioMatrix
from repro.core.pipeline import CompoundThreatAnalysis
from repro.core.states import OperationalState
from repro.core.threat import PAPER_SCENARIOS
from repro.hazards.hurricane.standard import (
    DEFAULT_SEED,
    standard_oahu_generator,
)
from repro.scada.architectures import PAPER_CONFIGURATIONS
from repro.scada.placement import PLACEMENT_WAIAU
from repro.sweep import run_sweep

GOLDEN_RED = 93
GOLDEN_N = 1000
GOLDEN_CELL = ("hurricane+intrusion", "2-2")


def coarse_generator(mesh_spacing_km: float):
    """The standard generator on a coarser mesh (cheap at 100k)."""
    import dataclasses

    base = standard_oahu_generator()
    return dataclasses.replace(base, mesh_spacing_km=mesh_spacing_km)


def measure_batched(ensemble, **kwargs) -> tuple[float, object]:
    """The paper matrix through ``CompoundThreatAnalysis`` (batched)."""
    analysis = CompoundThreatAnalysis(ensemble, **kwargs)
    start = time.perf_counter()
    matrix = analysis.run_matrix(
        list(PAPER_CONFIGURATIONS), PLACEMENT_WAIAU, list(PAPER_SCENARIOS)
    )
    return time.perf_counter() - start, matrix


def measure_oracle(
    ensemble, fragility=None, attacker=None, seed: int = 0
) -> tuple[float, object]:
    """The paper matrix as a loop of ``ThreatChain.run`` per cell, with a
    fresh ``default_rng(seed)`` per cell (the per-realization executor)."""
    start = time.perf_counter()
    matrix = ScenarioMatrix(placement_label=PLACEMENT_WAIAU.label())
    for scenario in PAPER_SCENARIOS:
        for architecture in PAPER_CONFIGURATIONS:
            ctx = ChainContext(
                architecture,
                PLACEMENT_WAIAU,
                scenario,
                fragility=fragility,
                attacker=attacker,
            )
            rng = np.random.default_rng(seed)
            states = []
            for realization in ensemble:
                ctx.realization = realization
                states.append(CHAIN_PAPER.run(ctx, rng).state)
            matrix.add(
                scenario.name,
                architecture.name,
                OperationalProfile.from_states(states),
            )
    return time.perf_counter() - start, matrix


def stochastic_kwargs() -> dict:
    """The stochastic lane's chain: both stages consume the rng stream."""
    from repro.core.attacker import ProbabilisticAttacker
    from repro.hazards.fragility import LogisticFragility

    return dict(
        fragility=LogisticFragility(steepness_per_m=4.0),
        attacker=ProbabilisticAttacker(p_intrusion=0.7, p_isolation=0.7),
        seed=20220522,
    )


def check_golden() -> dict:
    """The paper's 93/1000 split through both public entry points."""
    study = run_study(StudyConfig(observability=False))
    study_red = study.matrix.get(*GOLDEN_CELL).count(OperationalState.RED)
    sweep = run_sweep([StudyConfig()], jobs=1)
    sweep_red = sweep.cells[0].matrix.get(*GOLDEN_CELL).count(
        OperationalState.RED
    )
    ok = study_red == GOLDEN_RED and sweep_red == GOLDEN_RED
    if not ok:
        raise SystemExit(
            f"golden split broken: run_study={study_red}, "
            f"run_sweep={sweep_red}, expected {GOLDEN_RED}/{GOLDEN_N} RED"
        )
    return {
        "cell": list(GOLDEN_CELL),
        "expected_red": GOLDEN_RED,
        "run_study_red": study_red,
        "run_sweep_red": sweep_red,
        "preserved": ok,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--mesh-spacing",
        type=float,
        default=12.0,
        help="coastal mesh spacing in km (coarser = cheaper generation; "
        "the executor comparison is mesh-independent)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="fail unless batched/per-realization speedup clears this",
    )
    parser.add_argument(
        "--skip-golden",
        action="store_true",
        help="skip the standard-mesh 1000-realization golden re-check",
    )
    parser.add_argument("--output", default="BENCH_stress.json")
    args = parser.parse_args(argv)

    generator = coarse_generator(args.mesh_spacing)
    print(
        f"generating {args.count} realizations "
        f"(mesh spacing {args.mesh_spacing} km, {generator.mesh_size} nodes, "
        f"seed {args.seed}) ..."
    )
    start = time.perf_counter()
    ensemble = generator.generate(count=args.count, seed=args.seed)
    generate_s = time.perf_counter() - start
    print(f"generated in {generate_s:.1f}s")

    cells = len(PAPER_SCENARIOS) * len(PAPER_CONFIGURATIONS)
    print(f"running the {cells}-cell matrix, per-realization executor ...")
    oracle_s, oracle_matrix = measure_oracle(ensemble)
    print(f"per-realization: {oracle_s:.1f}s")
    print(f"running the {cells}-cell matrix, batched executor ...")
    batched_s, batched_matrix = measure_batched(ensemble)
    print(f"batched: {batched_s:.3f}s")

    identical = all(
        oracle_matrix.get(s.name, a.name) == batched_matrix.get(s.name, a.name)
        for s in PAPER_SCENARIOS
        for a in PAPER_CONFIGURATIONS
    )
    if not identical:
        raise SystemExit(
            "batched executor disagrees with the per-realization oracle "
            "at stress scale -- refusing to report a speedup"
        )
    speedup = oracle_s / batched_s

    print(f"running the {cells}-cell stochastic matrix, per-realization ...")
    st_oracle_s, st_oracle_matrix = measure_oracle(
        ensemble, **stochastic_kwargs()
    )
    print(f"per-realization (stochastic): {st_oracle_s:.1f}s")
    print(f"running the {cells}-cell stochastic matrix, batched ...")
    st_batched_s, st_batched_matrix = measure_batched(
        ensemble, **stochastic_kwargs()
    )
    print(f"batched (stochastic): {st_batched_s:.3f}s")
    st_identical = all(
        st_oracle_matrix.get(s.name, a.name) == st_batched_matrix.get(s.name, a.name)
        for s in PAPER_SCENARIOS
        for a in PAPER_CONFIGURATIONS
    )
    if not st_identical:
        raise SystemExit(
            "stochastic batched executor disagrees with the per-realization "
            "oracle -- the RNG-draw contract is broken"
        )
    st_speedup = st_oracle_s / st_batched_s

    golden = None
    if not args.skip_golden:
        print("re-checking the golden 1000-realization split ...")
        golden = check_golden()

    report = {
        "count": args.count,
        "seed": args.seed,
        "mesh_spacing_km": args.mesh_spacing,
        "mesh_nodes": generator.mesh_size,
        "cells": cells,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generate_seconds": round(generate_s, 2),
        "per_realization_seconds": round(oracle_s, 3),
        "batched_seconds": round(batched_s, 3),
        "speedup": round(speedup, 1),
        "min_speedup": args.min_speedup,
        "bitwise_identical": identical,
        "stochastic": {
            "fragility": "LogisticFragility(steepness_per_m=4.0)",
            "attacker": "ProbabilisticAttacker(p_intrusion=0.7, p_isolation=0.7)",
            "per_realization_seconds": round(st_oracle_s, 3),
            "batched_seconds": round(st_batched_s, 3),
            "speedup": round(st_speedup, 1),
            "bitwise_identical": st_identical,
        },
        "golden": golden,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")
    if speedup < args.min_speedup:
        raise SystemExit(
            f"batched speedup {speedup:.1f}x is below the "
            f"{args.min_speedup:.0f}x floor"
        )
    if st_speedup < args.min_speedup:
        raise SystemExit(
            f"stochastic batched speedup {st_speedup:.1f}x is below the "
            f"{args.min_speedup:.0f}x floor"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
