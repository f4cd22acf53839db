"""warm-sweep set-up in a process of its own.

Primes the ensemble cache with one fresh study, then computes the
per-cell ``run_study`` reference of every sweep cell against that cache,
and prints one JSON line with the timings, the host-speed samples taken
around the prime, and the reference documents.
Running it in a child keeps the benchmark process's memory as it was
after import, so the loop's peak RSS shows what a sweep itself holds.

    PYTHONPATH=src python3 perfbench/warm_setup.py --cache-dir DIR --seed N --count N
"""

from __future__ import annotations

import argparse
import json
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()

    from repro import StudyConfig, run_study, sweep_grid

    from checks import depth_digest
    from speed import SpeedTrack
    from workloads import matrix_bytes, sweep_axes

    base = StudyConfig(n_realizations=args.count, seed=args.seed, cache_dir=args.cache_dir)
    track = SpeedTrack()
    track.sample()
    began = time.perf_counter()
    prime = run_study(base)
    prime_span = [began, time.perf_counter()]
    track.sample()
    references, reference_s = [], []
    for cell in sweep_grid(base, **sweep_axes()):
        began = time.perf_counter()
        reference = run_study(cell)
        reference_s.append(time.perf_counter() - began)
        references.append(matrix_bytes(reference.matrix).decode())
    print(
        json.dumps(
            {
                "prime_span": prime_span,
                "kernel_at": track.at,
                "kernel_s": track.seconds,
                "prime_digest": depth_digest(prime.ensemble.depth_matrix()),
                "reference_s": reference_s,
                "references": references,
            }
        )
    )


if __name__ == "__main__":
    main()
