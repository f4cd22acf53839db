"""Sharded, crash-consistent checkpoints for long ensemble runs.

A run's progress lives under ``<cache_dir>/run-<key>/``:

* ``shard-<block>.npz`` -- the realizations of one contiguous index block
  (``shard_size`` wide): an ``indices`` vector plus matching ``depths``
  and ``params`` row blocks.  A shard may be *partial* (only some of its
  block completed) -- the ``indices`` vector is authoritative.
* ``manifest.json`` -- the run identity (cache key, count, seed, scenario
  name, asset names) and, per persisted shard, its filename, row count,
  and sha256 checksum.

Every file is written atomically (tmp sibling + ``os.replace``), and the
manifest is rewritten after each shard flush, so a controller killed at
*any* instant leaves either the previous or the new consistent state on
disk.  On resume the store re-verifies everything -- checksum, shapes,
index ranges, and that each stored parameter row is bit-identical to the
recomputed serial parameter pass -- and quarantines any shard that fails
(``<name>.corrupt`` + :class:`CorruptArtifactWarning`) so only its block
is regenerated.  Because realization ``i`` is a pure function of
``(seed, i)``, an ensemble resumed from shards is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import CheckpointCorruptError
from repro.hazards.hurricane.ensemble import PARAM_COLUMNS
from repro.io.atomic import atomic_path, atomic_write_text, quarantine_file

CHECKPOINT_FORMAT_VERSION = 1
DEFAULT_SHARD_SIZE = 32


def sha256_of(path: Path) -> str:
    """Streaming sha256 of a file (checksums for shard/manifest entries)."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


_sha256_of = sha256_of  # backwards-compatible alias


class CheckpointStore:
    """Persists per-realization progress for one (key, count, seed) run.

    Progress is held as the run's own ``(count x A)`` depth and
    ``(count x 7)`` parameter rows plus a completed-row mask; shards are
    slices of them.  ``asset_names`` names the depth columns, in order.
    """

    def __init__(
        self,
        run_dir: str | Path,
        key: str,
        count: int,
        seed: int | None,
        scenario_name: str,
        shard_size: int = DEFAULT_SHARD_SIZE,
        flush_interval: int | None = None,
        *,
        asset_names: Sequence[str],
    ) -> None:
        if count < 1:
            raise CheckpointCorruptError("checkpointed run needs at least one task")
        if shard_size < 1:
            raise CheckpointCorruptError("shard size must be at least 1")
        self.run_dir = Path(run_dir)
        self.key = key
        self.count = count
        self.seed = seed
        self.scenario_name = scenario_name
        self.shard_size = shard_size
        # How many newly recorded realizations may sit only in memory
        # before partial shards are flushed to disk.
        self.flush_interval = flush_interval or shard_size
        self._asset_names = list(asset_names)
        self._depths = np.empty((count, len(self._asset_names)))
        self._params = np.empty((count, len(PARAM_COLUMNS)))
        self._done = np.zeros(count, dtype=bool)
        self._dirty_blocks: set[int] = set()
        self._unflushed = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.json"

    def shard_path(self, block: int) -> Path:
        return self.run_dir / f"shard-{block:05d}.npz"

    def _block_of(self, index: int) -> int:
        return index // self.shard_size

    def _block_indices(self, block: int) -> range:
        start = block * self.shard_size
        return range(start, min(start + self.shard_size, self.count))

    def _done_in(self, block: int) -> list[int]:
        span = self._block_indices(block)
        done = np.flatnonzero(self._done[span.start : span.stop])
        return (done + span.start).tolist()

    # ------------------------------------------------------------------
    # Recording progress
    # ------------------------------------------------------------------
    def completed_indices(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._done).tolist())

    def is_complete(self) -> bool:
        return bool(self._done.all())

    def rows(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (depth, parameter) rows of completed ``indices``."""
        indices = list(indices)
        if not self._done[indices].all():
            raise CheckpointCorruptError("asked for rows the run has not completed")
        return self._depths[indices], self._params[indices]

    def record(
        self, indices: Sequence[int], depths: np.ndarray, params: np.ndarray
    ) -> None:
        """Accept completed rows (``depths``/``params`` line up with
        ``indices``); flush shards as blocks fill.  Already-recorded
        indices are ignored."""
        for index in indices:
            if not 0 <= index < self.count:
                raise CheckpointCorruptError(
                    f"realization index {index} outside run of {self.count}"
                )
        fresh = [k for k, index in enumerate(indices) if not self._done[index]]
        if not fresh:
            return
        rows = [indices[k] for k in fresh]
        self._depths[rows] = depths[fresh]
        self._params[rows] = params[fresh]
        self._done[rows] = True
        self._unflushed += len(rows)
        blocks = {self._block_of(index) for index in rows}
        self._dirty_blocks |= blocks
        block_done = any(
            len(self._done_in(b)) == len(self._block_indices(b)) for b in blocks
        )
        if block_done or self._unflushed >= self.flush_interval:
            self.flush()

    def flush(self) -> None:
        """Write every dirty shard and the manifest, all atomically."""
        if not self._dirty_blocks:
            return
        self.run_dir.mkdir(parents=True, exist_ok=True)
        for block in sorted(self._dirty_blocks):
            self._write_shard(block)
        self._dirty_blocks.clear()
        self._unflushed = 0
        self._write_manifest()

    def _write_shard(self, block: int) -> None:
        indices = self._done_in(block)
        if not indices:
            return
        with atomic_path(self.shard_path(block)) as tmp:
            with tmp.open("wb") as handle:
                np.savez_compressed(
                    handle,
                    indices=np.array(indices, dtype=np.int64),
                    depths=self._depths[indices],
                    params=self._params[indices],
                )

    def _write_manifest(self) -> None:
        shards = {}
        for block in range((self.count + self.shard_size - 1) // self.shard_size):
            path = self.shard_path(block)
            if not path.exists():
                continue
            shards[str(block)] = {
                "file": path.name,
                "rows": len(self._done_in(block)),
                "sha256": _sha256_of(path),
            }
        manifest = {
            "format": CHECKPOINT_FORMAT_VERSION,
            "key": self.key,
            "count": self.count,
            "seed": self.seed,
            "scenario_name": self.scenario_name,
            "shard_size": self.shard_size,
            "asset_names": self._asset_names,
            "completed": int(self._done.sum()),
            "shards": shards,
        }
        atomic_write_text(self.manifest_path, json.dumps(manifest, indent=2))

    # ------------------------------------------------------------------
    # Loading / resuming
    # ------------------------------------------------------------------
    def load(self, expected_params: np.ndarray | None = None) -> list[int]:
        """Recover verified progress from disk into the store.

        ``expected_params`` is the recomputed serial parameter pass as
        the run's (count x 7) parameter table; any shard whose stored
        rows do not match it bit-for-bit is quarantined, as are shards
        with bad checksums, undecodable contents, or out-of-range
        indices.  Returns the recovered indices in order; their rows are
        retained (see :meth:`rows`), so later flushes keep them on disk.
        """
        self._done[:] = False
        self._dirty_blocks.clear()
        self._unflushed = 0
        if not self.manifest_path.exists():
            return []
        try:
            manifest = json.loads(self.manifest_path.read_text())
            ok = (
                manifest["format"] == CHECKPOINT_FORMAT_VERSION
                and manifest["key"] == self.key
                and manifest["count"] == self.count
                and manifest["seed"] == self.seed
                and manifest["shard_size"] == self.shard_size
                and manifest["asset_names"] == self._asset_names
            )
        except (json.JSONDecodeError, KeyError, TypeError, OSError) as exc:
            quarantine_file(self.manifest_path, f"unreadable manifest: {exc}")
            return []
        if not ok:
            quarantine_file(self.manifest_path, "manifest does not match this run")
            return []
        for block_label, entry in sorted(manifest.get("shards", {}).items()):
            try:
                block = int(block_label)
                self._load_shard(block, entry, expected_params)
            except CheckpointCorruptError as exc:
                path = self.run_dir / str(entry.get("file", f"shard-{block_label}"))
                if path.exists():
                    quarantine_file(path, str(exc))
        return np.flatnonzero(self._done).tolist()

    def _load_shard(self, block: int, entry: dict, expected_params) -> None:
        path = self.run_dir / entry["file"]
        if not path.exists():
            raise CheckpointCorruptError(f"shard file {entry['file']} missing")
        if _sha256_of(path) != entry.get("sha256"):
            raise CheckpointCorruptError("shard checksum mismatch")
        try:
            with np.load(path) as data:
                indices = data["indices"]
                depths = data["depths"]
                params = data["params"]
        except Exception as exc:  # zipfile/np errors: torn write survived checksum?
            raise CheckpointCorruptError(f"undecodable shard: {exc}") from exc
        n = len(indices)
        if depths.shape != (n, len(self._asset_names)) or params.shape != (
            n,
            len(PARAM_COLUMNS),
        ):
            raise CheckpointCorruptError("shard array shapes inconsistent")
        block_range = self._block_indices(block)
        rows = [int(i) for i in indices]
        for index in rows:
            if index not in block_range:
                raise CheckpointCorruptError(
                    f"index {index} outside shard block {block}"
                )
        if expected_params is not None:
            diverged = ~(params == expected_params[rows]).all(axis=1)
            if diverged.any():
                first = rows[int(np.argmax(diverged))]
                raise CheckpointCorruptError(
                    f"stored parameters for realization {first} diverge from "
                    "the deterministic parameter pass"
                )
        self._depths[rows] = depths
        self._params[rows] = params
        self._done[rows] = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget in-memory and on-disk progress (a fresh, non-resumed run)."""
        self._done[:] = False
        self._dirty_blocks.clear()
        self._unflushed = 0
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)

    def discard(self) -> None:
        """Delete the run directory (called once the final artifact exists)."""
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
