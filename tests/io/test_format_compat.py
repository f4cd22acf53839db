"""On-disk formats stay byte-compatible across the array-native ensemble.

The cache entry and the checkpoint shards below are written by hand, in
the layout earlier releases wrote -- npz keys, dtypes, JSON fields and
format versions spelled out here rather than taken from the writers --
so a cache hit and a resume prove that existing entries still load.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.hazards.hurricane.standard import standard_oahu_generator
from repro.io.ensemble_cache import load_ensemble_cache, save_ensemble_cache
from repro.obs.observer import Observability, activate
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.controller import RunController

COUNT = 40
SEED = 31337
PARAM_COLUMNS = [
    "landfall_lat",
    "landfall_lon",
    "heading_deg",
    "central_pressure_mb",
    "rmw_km",
    "forward_speed_kmh",
    "track_offset_km",
]


@pytest.fixture(scope="module")
def generator():
    return standard_oahu_generator()


@pytest.fixture(scope="module")
def reference(generator):
    return generator.generate(count=COUNT, seed=SEED)


def _write_legacy_cache(directory, key, ensemble) -> None:
    depths = np.array(ensemble.depth_view(), dtype=np.float64)
    params = np.array(ensemble.param_view(), dtype=np.float64)
    with open(directory / f"ensemble-{key}.npz", "wb") as handle:
        np.savez_compressed(handle, depths=depths, params=params)
    with open(directory / f"ensemble-{key}-depths.npy", "wb") as handle:
        np.save(handle, depths)
    meta = {
        "format": 1,
        "key": key,
        "scenario_name": ensemble.scenario_name,
        "seed": ensemble.seed,
        "count": len(ensemble),
        "asset_names": list(ensemble.asset_names),
        "param_columns": PARAM_COLUMNS,
    }
    (directory / f"ensemble-{key}.json").write_text(json.dumps(meta, indent=2))


def _write_legacy_shards(run_dir, key, ensemble, indices, shard_size=32) -> None:
    run_dir.mkdir(parents=True)
    shards = {}
    for block in sorted({i // shard_size for i in indices}):
        rows = [i for i in indices if i // shard_size == block]
        path = run_dir / f"shard-{block:05d}.npz"
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                indices=np.array(rows, dtype=np.int64),
                depths=np.array(ensemble.depth_view()[rows], dtype=np.float64),
                params=np.array(ensemble.param_view()[rows], dtype=np.float64),
            )
        shards[str(block)] = {
            "file": path.name,
            "rows": len(rows),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }
    manifest = {
        "format": 1,
        "key": key,
        "count": len(ensemble),
        "seed": ensemble.seed,
        "scenario_name": ensemble.scenario_name,
        "shard_size": shard_size,
        "asset_names": list(ensemble.asset_names),
        "completed": len(indices),
        "shards": shards,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))


class TestCacheEntries:
    def test_legacy_entry_is_a_bit_identical_hit(self, generator, reference, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        _write_legacy_cache(tmp_path, key, reference)
        obs = Observability()
        with activate(obs):
            loaded = generator.generate(count=COUNT, seed=SEED, cache_dir=str(tmp_path))
        assert obs.metrics.snapshot()["counters"]["cache.ensemble.hit"] == 1
        assert np.array_equal(loaded.depth_view(), reference.depth_view())
        assert np.array_equal(loaded.param_view(), reference.param_view())
        assert [r.params for r in loaded] == [r.params for r in reference]

    def test_legacy_depth_sidecar_is_ignored(self, generator, reference, tmp_path):
        """Releases 1.x-2.0.0 wrote a ``-depths.npy`` copy beside each
        entry.  The loader never reads it: even a damaged one leaves the
        entry a bit-identical hit, and nothing is quarantined."""
        key = generator.cache_key(COUNT, SEED)
        _write_legacy_cache(tmp_path, key, reference)
        sidecar = tmp_path / f"ensemble-{key}-depths.npy"
        sidecar.write_bytes(b"not an npy file")
        obs = Observability()
        with activate(obs):
            loaded = generator.generate(count=COUNT, seed=SEED, cache_dir=str(tmp_path))
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cache.ensemble.hit"] == 1
        assert "cache.ensemble.quarantined" not in counters
        assert np.array_equal(loaded.depth_view(), reference.depth_view())
        assert sidecar.read_bytes() == b"not an npy file"

    def test_writer_keeps_the_layout(self, generator, reference, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        npz_path = save_ensemble_cache(reference, tmp_path, key)
        with np.load(npz_path) as data:
            assert sorted(data.files) == ["depths", "params"]
            assert data["depths"].dtype == np.float64
            assert data["params"].dtype == np.float64
            assert data["params"].shape == (COUNT, len(PARAM_COLUMNS))
        meta = json.loads((tmp_path / f"ensemble-{key}.json").read_text())
        assert meta["format"] == 1 and meta["param_columns"] == PARAM_COLUMNS
        assert set(meta) == {
            "format", "key", "scenario_name", "seed", "count",
            "asset_names", "param_columns",
        }
        assert load_ensemble_cache(tmp_path, key) is not None
        assert not (tmp_path / f"ensemble-{key}-depths.npy").exists()


class TestCheckpointShards:
    def test_legacy_shards_resume_bit_identically(self, generator, reference, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        run_dir = tmp_path / f"run-{key}"
        done = list(range(0, 20)) + [33, 35]  # a full shard, a partial one
        _write_legacy_shards(run_dir, key, reference, done)
        store = CheckpointStore(
            run_dir, key, COUNT, SEED, reference.scenario_name,
            asset_names=generator.asset_order,
        )
        controller = RunController(generator, COUNT, SEED, checkpoint=store)
        ensemble = controller.run(resume=True)
        assert controller.resumed_realizations == len(done)
        assert np.array_equal(ensemble.depth_view(), reference.depth_view())
        assert np.array_equal(ensemble.param_view(), reference.param_view())

    def test_writer_keeps_the_layout(self, generator, reference, tmp_path):
        key = generator.cache_key(COUNT, SEED)
        store = CheckpointStore(
            tmp_path / "run", key, COUNT, SEED, reference.scenario_name,
            asset_names=generator.asset_order,
        )
        store.record(range(5), reference.depth_view()[:5], reference.param_view()[:5])
        store.flush()
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["format"] == 1 and manifest["shard_size"] == 32
        assert set(manifest) == {
            "format", "key", "count", "seed", "scenario_name", "shard_size",
            "asset_names", "completed", "shards",
        }
        with np.load(store.shard_path(0)) as data:
            assert sorted(data.files) == ["depths", "indices", "params"]
            assert data["indices"].dtype == np.int64
            assert data["depths"].dtype == np.float64
            assert data["params"].dtype == np.float64
