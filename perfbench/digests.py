#!/usr/bin/env python3
"""Depth-matrix digests: the committed reference and the per-checkout record.

The hurricane depth matrix of a (count, seed) pair is bitwise-fixed for
a given numeric environment (numpy version and build, SIMD, libc), not
for a given source tree.  Digests are therefore keyed by that
environment alone, so a changed program is compared with what the
unchanged one produced:

- ``reference_digests.json`` (committed) holds the digest of the
  ``DEFAULT_SEED`` cold-study ensemble for each numeric environment it
  was recorded in.  A program change that alters even one depth bit
  fails the cold-study check.  A change that alters the depths on
  purpose must re-record the reference, in the same commit::

      python3 perfbench/digests.py --record

- ``.bench_work/digests.json`` (not committed) remembers every other
  seed's digest seen in this checkout, so repeated runs of the same
  seed must agree.

In an environment the reference does not cover, the reference check is
skipped and the run record says so.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

from checks import DEFAULT_SEED, check_digest_stable, depth_digest

REFERENCE = Path(__file__).with_name("reference_digests.json")


def numeric_environment() -> dict:
    """What the depth bits depend on."""
    from system import environment

    env = environment()
    return {
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "python": env["python"],
        **{k: env.get(k) for k in ("numpy", "blas", "simd_baseline", "simd_found")},
    }


def scope_of(env: dict) -> str:
    return hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16]


def _read(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


class DigestRecord:
    """Depth-matrix digests per (count, seed) for this numeric environment."""

    def __init__(self, root: Path) -> None:
        self.scope = scope_of(numeric_environment())
        self.reference = _read(REFERENCE).get(self.scope, {}).get("digests", {})
        self.path = root / ".bench_work" / "digests.json"
        self.stored = _read(self.path)
        self.seen: dict[str, str] = {**self.stored.get(self.scope, {}), **self.reference}
        self.compared_with_reference: list[str] = []

    def check(self, count: int, seed: int, digest: str) -> list[str]:
        key = f"{count}:{seed}"
        if key in self.reference:
            self.compared_with_reference.append(key)
        return check_digest_stable(self.seen, key, digest)

    def save(self) -> None:
        self.stored[self.scope] = {
            k: v for k, v in self.seen.items() if k not in self.reference
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stored, sort_keys=True))
        os.replace(tmp, self.path)

    def note(self) -> dict:
        return {
            "scope": self.scope,
            "reference_keys": sorted(self.reference),
            "compared_with_reference": sorted(set(self.compared_with_reference)),
        }


def record_reference(count: int) -> dict:
    """Generate the ``DEFAULT_SEED`` ensemble and store its digest."""
    from repro import StudyConfig, run_study

    study = run_study(StudyConfig(n_realizations=count, seed=DEFAULT_SEED))
    env = numeric_environment()
    stored = _read(REFERENCE)
    entry = stored.setdefault(scope_of(env), {"environment": env, "digests": {}})
    entry["digests"][f"{count}:{DEFAULT_SEED}"] = depth_digest(study.ensemble.depth_matrix())
    REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return entry


def main() -> int:
    import argparse

    from run import _import_program
    from workloads import COLD_REALIZATIONS

    parser = argparse.ArgumentParser(description="Record the reference depth digest.")
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    _import_program()
    print(json.dumps(record_reference(COLD_REALIZATIONS), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
