"""Correctness checks applied to the outputs of every benchmark run.

Every check is a pure function of outputs the program already produced
and returns a list of problems; an empty list means the output passed.
``selftest.py`` feeds each check a deliberately corrupted output to show
that it rejects it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: The paper's ensemble seed (``repro``'s ``DEFAULT_SEED``).
DEFAULT_SEED = 20220522
#: The paper's locked cell: architecture "2" under "hurricane" turns red
#: in 93 of the first 1000 realizations of the default-seed ensemble.
GOLDEN_N = 1000
GOLDEN_RED = 93
GOLDEN_SCENARIO = "hurricane"
GOLDEN_ARCHITECTURE = "2"


def depth_digest(matrix: np.ndarray) -> str:
    """sha256 of a depth matrix's shape and raw float64 bytes."""
    array = np.ascontiguousarray(matrix, dtype=np.float64)
    digest = hashlib.sha256(repr(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def canonical_bytes(document: dict) -> bytes:
    """The sorted-key JSON encoding the study service also sends."""
    return json.dumps(document, sort_keys=True).encode()


def red_count_of_document(document: dict) -> int | None:
    """The golden cell's red count in a service result document."""
    for entry in document.get("matrix", {}).get("entries", []):
        if (
            entry.get("scenario") == GOLDEN_SCENARIO
            and entry.get("architecture") == GOLDEN_ARCHITECTURE
        ):
            return entry["counts"]["red"]
    return None


def check_golden_red(red: int | None, what: str) -> list[str]:
    if red != GOLDEN_RED:
        return [f"{what}: golden cell has {red} red, expected {GOLDEN_RED}"]
    return []


def check_digest_stable(seen: dict[str, str], key: str, digest: str) -> list[str]:
    """Record ``digest`` under ``key`` on first sight; later ones must match."""
    first = seen.setdefault(key, digest)
    if first != digest:
        return [f"depth matrix for {key} changed: {first[:12]} -> {digest[:12]}"]
    return []


def check_bitwise(expected: np.ndarray, actual: np.ndarray, what: str) -> list[str]:
    """Same shape, dtype and bytes (so -0.0 and NaN payloads count too)."""
    expected = np.ascontiguousarray(expected)
    actual = np.ascontiguousarray(actual)
    if expected.shape != actual.shape or expected.dtype != actual.dtype:
        return [
            f"{what}: shape/dtype {actual.shape}/{actual.dtype} "
            f"!= {expected.shape}/{expected.dtype}"
        ]
    if expected.tobytes() != actual.tobytes():
        rows = np.flatnonzero((expected != actual).reshape(len(expected), -1).any(axis=1))
        return [f"{what}: not bit-identical ({len(rows)} rows differ)"]
    return []


def check_documents_equal(
    expected: list[bytes], actual: list[bytes], what: str
) -> list[str]:
    """Position-by-position byte equality of serialized documents."""
    if len(expected) != len(actual):
        return [f"{what}: {len(actual)} documents, expected {len(expected)}"]
    bad = [i for i, (e, a) in enumerate(zip(expected, actual)) if e != a]
    if bad:
        return [f"{what}: documents at positions {bad} differ from the reference"]
    return []


def check_matrix_totals(document: dict, realizations: int, what: str) -> list[str]:
    """Every matrix entry of a result document covers every realization."""
    entries = document.get("matrix", {}).get("entries", [])
    if not entries:
        return [f"{what}: result document has no matrix entries"]
    bad = [
        (e["scenario"], e["architecture"])
        for e in entries
        if sum(e["counts"].values()) != realizations
    ]
    if bad:
        return [f"{what}: entries {bad} do not sum to {realizations}"]
    return []


def check_store_flag(kind: str, cached: bool, what: str) -> list[str]:
    """A repeat must be a result-store hit; a fresh or variant job must not."""
    if kind == "repeat" and not cached:
        return [f"{what} was recomputed, not served from the store"]
    if kind != "repeat" and cached:
        return [f"{what} hit the result store on first submission"]
    return []


def check_drained(returncode: int | None, what: str) -> list[str]:
    """A server stopped with SIGTERM drains and exits with code 0."""
    if returncode != 0:
        return [f"{what} did not drain cleanly on SIGTERM (exit {returncode})"]
    return []


def check_setups_agree(setups: list[dict], keys: tuple[str, ...]) -> list[str]:
    """Every set-up repetition produced the same ``keys`` as the first."""
    return [
        f"set-up repetition {i} differs from the first in {key!r}"
        for i, setup in enumerate(setups[1:], start=1)
        for key in keys
        if setup[key] != setups[0][key]
    ]


def check_store_round_trip(put: dict, got: dict | None, what: str) -> list[str]:
    """What a store returns carries the matrix it was given, byte for byte."""
    if got is None:
        return [f"{what}: nothing came back"]
    if canonical_bytes(got.get("matrix", {})) != canonical_bytes(put["matrix"]):
        return [f"{what}: the matrix that came back differs from the one put"]
    return []
