#!/usr/bin/env python3
"""The compound-threat engine's end-to-end, layer-by-layer benchmark.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cold-study --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same closed loop with layer timers on alternate requests plus the
layer-probe suite, and prints the per-layer metrics.  Either way every
output is checked, a human-readable report goes to stderr, the full
record (environment, notes, layer breakdown) is written under
``.bench_work/results/``, and the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The metric names and units this benchmark promises.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def _reported(kind: str, values: dict) -> dict:
    """Every metric BENCHMARK.json lists under ``kind``, with its unit."""
    missing = sorted({m["name"] for m in SPEC[kind]} - set(values))
    if missing:
        raise RuntimeError(f"run did not measure {kind} metrics {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in SPEC[kind]}


def _report(workload: str, record: dict) -> str:
    lines = [f"== {workload} (seed {record['seed']}, trace {record['trace']})"]
    raw = record["notes"].get("raw", {})
    if raw:
        lines.append(
            f"  times in reference-host units; host ran {record['notes']['host_slowdown']:.2f}x "
            f"the reference kernel time; raw wall-clock in the last column"
        )
        drift = record["notes"]["calibration_drift"]
        if drift["flagged"]:
            lines.append(
                f"  FLAGGED: kernel time inside the timed loop is {drift['value']:+.0%} off its "
                f"time before the loop, so normalized times may misstate the program's cost"
            )
    for name, metric in record["metrics"].items():
        raw_value = f"{raw[name]:14.6g}" if name in raw else ""
        lines.append(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']:6s}{raw_value}")
    tail = record["notes"].get("request_s_tail")
    if tail:
        lines.append(
            f"  request_s_tail is p{tail['percentile']} of {tail['samples']} "
            f"requests ({tail['beyond']} beyond it)"
        )
    digests = record["notes"].get("digests")
    if digests:
        compared = ", ".join(digests["compared_with_reference"])
        lines.append(
            f"  depth digests compared with the committed reference for {compared}"
            if compared else
            f"  no committed reference digest for numeric environment {digests['scope']}; "
            f"only this checkout's earlier runs were compared"
        )
    layers = record["layers"].get("layers")
    if layers:
        lines.append(
            f"  traced-loop layers (self time, share of traced request time; "
            f"trace.overhead_frac {record['layers']['trace.overhead_frac']:+.3f}):"
        )
        for name, entry in layers.items():
            lines.append(f"    {name:20s} {entry['self_s']:10.4f} s {entry['share']:7.1%}")
    probe = record["layers"].get("probe")
    if probe:
        lines.append(
            f"  probe: core.share {probe['core.share']:.2%} of a cold study "
            f"(hazards.share {probe['hazards.share']:.1%}); "
            f"runtime.pool_ratio {probe['runtime.pool_ratio']:.2f} "
            f"(generate(n_jobs=2) / serial, >1 means pooled is slower)"
        )
    lines.append(
        f"  attempted {record['attempted']}, failed {record['failed']}, "
        f"failed_frac {record['failed'] / max(record['attempted'], 1):.3f}"
    )
    for problem in record["problems"][:20]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from system import adopt_orphans, reap_children

    adopt_orphans()
    try:
        return _run(parser, args)
    finally:
        reap_children()


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _import_program()
    from system import environment, load_average, reap_children
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    work_root = ROOT / ".bench_work"
    (work_root / "results").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    load_before = load_average()
    run = Run(
        root=ROOT, src=SRC, workdir=workdir, seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace),
    )
    started = time.time()
    try:
        metrics, detail = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    killed = reap_children()
    if killed:
        run.problems.append(f"processes still running after the run were killed: {killed}")
    if args.trace:
        layers = detail["layers"]
        reported = _reported("per_layer", {
            **layers["probe"],
            **{k: layers[k] for k in ("trace.overhead_frac", "obs.overhead_frac",
                                      "runtime.retries", "io.cache_hit_ratio")},
        })
    else:
        reported = _reported("end_to_end", metrics)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **environment(),
            "loadavg_before": load_before,
            "loadavg_after": load_average(),
        },
        "started_unix_s": started,
        "metrics": reported,
        "notes": detail["notes"],
        "layers": detail["layers"],
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    }
    out = work_root / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
    print(_report(args.workload, record), file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
