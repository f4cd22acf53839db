"""Ablation: is 1000 realizations enough?

Sweeps the ensemble size and reports how the headline probability
(Honolulu flooding, equivalently configuration "2" red) converges,
validating the paper's choice of 1000 realizations.
"""

from __future__ import annotations

import math

from repro.geo import HONOLULU_CC

SIZES = [50, 100, 200, 400, 700, 1000]


def convergence_series(standard_ensemble):
    rows = []
    full = standard_ensemble.flood_probability(HONOLULU_CC)
    for size in SIZES:
        subset = standard_ensemble.subset(size)
        p = subset.flood_probability(HONOLULU_CC)
        stderr = math.sqrt(max(p * (1 - p), 1e-9) / size)
        rows.append({"n": size, "p": p, "stderr": stderr, "error": abs(p - full)})
    return rows


def test_ablation_realization_convergence(benchmark, standard_ensemble):
    # Reuses the session ensemble (disk-cached); the sweep itself touches
    # sum(SIZES) realizations per iteration, so report that as throughput.
    rows = benchmark(convergence_series, standard_ensemble)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        rate = sum(SIZES) / benchmark.stats.stats.mean
        benchmark.extra_info["realizations_per_sec"] = rate
        print(f"\nconvergence sweep: {rate:,.0f} realizations/sec analysed")

    print()
    print("Monte Carlo convergence of P(Honolulu CC floods):")
    print(f"  {'N':>5s} {'estimate':>9s} {'std err':>8s} {'|err vs N=1000|':>16s}")
    for row in rows:
        print(
            f"  {row['n']:5d} {row['p']:9.3f} {row['stderr']:8.3f} "
            f"{row['error']:16.3f}"
        )

    final = rows[-1]
    assert final["n"] == 1000
    # At N=1000 the binomial standard error on a ~9.5% probability is
    # under one percentage point -- the paper's sample size is adequate.
    assert final["stderr"] < 0.01
    # Estimates tighten: the last estimate is within ~2 std errors of all
    # larger-half estimates.
    for row in rows[3:]:
        assert row["error"] <= 2.5 * row["stderr"]
