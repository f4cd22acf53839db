"""Checkpoint shards: atomicity, integrity verification, quarantine."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.io.atomic import CorruptArtifactWarning
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultPlan

COUNT = 20
SEED = 1234
SHARD = 8


@pytest.fixture(scope="module")
def generator():
    from repro.hazards.hurricane.standard import standard_oahu_generator

    return standard_oahu_generator()


@pytest.fixture(scope="module")
def ensemble(generator):
    """The generated run whose rows the stores record."""
    return generator.generate(count=COUNT, seed=SEED)


@pytest.fixture(scope="module")
def realizations():
    """Every row index, in run order."""
    return list(range(COUNT))


@pytest.fixture(scope="module")
def expected_params(ensemble):
    return ensemble.param_view()


@pytest.fixture
def record(ensemble):
    """Record each index's row of the generated run, one at a time."""

    def record_rows(store: CheckpointStore, indices) -> None:
        for i in indices:
            store.record([i], ensemble.depth_view()[[i]], ensemble.param_view()[[i]])

    return record_rows


@pytest.fixture
def make_store(tmp_path, generator):
    def build(**overrides) -> CheckpointStore:
        defaults = dict(
            run_dir=tmp_path / "run-abc",
            key="abc",
            count=COUNT,
            seed=SEED,
            scenario_name="oahu-cat2",
            shard_size=SHARD,
            asset_names=generator.asset_order,
        )
        defaults.update(overrides)
        return CheckpointStore(**defaults)

    return build


class TestRoundTrip:
    def test_full_run_round_trips_bitwise(
        self, make_store, record, realizations, ensemble, expected_params
    ):
        store = make_store()
        record(store, realizations)
        store.flush()
        assert store.is_complete()

        fresh = make_store()
        loaded = fresh.load(expected_params=expected_params)
        assert loaded == list(range(COUNT))
        depths, params = fresh.rows(loaded)
        assert np.array_equal(depths, ensemble.depth_view())
        assert np.array_equal(params, ensemble.param_view())

    def test_partial_progress_survives(
        self, make_store, record, realizations, expected_params
    ):
        store = make_store()
        # Complete one full block and a sliver of another, out of order.
        record(store, realizations[:SHARD] + [realizations[SHARD + 2]])
        store.flush()

        loaded = make_store().load(expected_params=expected_params)
        assert loaded == list(range(SHARD)) + [SHARD + 2]

    def test_no_tmp_siblings_after_flush(self, make_store, record, realizations):
        store = make_store()
        record(store, realizations)
        store.flush()
        leftovers = list(store.run_dir.glob("*.tmp"))
        assert leftovers == []

    def test_duplicate_records_are_idempotent(self, make_store, record, realizations):
        store = make_store()
        record(store, [realizations[0]])
        record(store, [realizations[0]])
        assert store.completed_indices() == frozenset({0})


class TestIntegrity:
    @pytest.fixture
    def full_store(self, make_store, record, realizations) -> CheckpointStore:
        store = make_store()
        record(store, realizations)
        store.flush()
        return store

    def test_corrupted_shard_is_quarantined_not_loaded(
        self, full_store, make_store, expected_params
    ):
        victim = full_store.shard_path(0)
        FaultPlan(seed=1).corrupt_file(victim)

        fresh = make_store()
        with pytest.warns(CorruptArtifactWarning):
            loaded = fresh.load(expected_params=expected_params)
        # Block 0 lost, quarantined; the others intact.
        assert loaded == list(range(SHARD, COUNT))
        assert not victim.exists()
        assert victim.with_name(victim.name + ".corrupt").exists()

    def test_truncated_shard_is_quarantined(
        self, full_store, make_store, expected_params
    ):
        FaultPlan().truncate_file(full_store.shard_path(1), keep_fraction=0.3)
        with pytest.warns(CorruptArtifactWarning):
            loaded = make_store().load(expected_params=expected_params)
        assert loaded == list(range(SHARD)) + list(range(2 * SHARD, COUNT))

    def test_mangled_manifest_means_empty_resume(
        self, full_store, make_store, expected_params
    ):
        full_store.manifest_path.write_text("{ not json")
        with pytest.warns(CorruptArtifactWarning):
            loaded = make_store().load(expected_params=expected_params)
        assert loaded == []

    def test_manifest_for_other_run_is_rejected(
        self, full_store, make_store, expected_params
    ):
        manifest = json.loads(full_store.manifest_path.read_text())
        manifest["seed"] = SEED + 1
        full_store.manifest_path.write_text(json.dumps(manifest))
        with pytest.warns(CorruptArtifactWarning):
            loaded = make_store().load(expected_params=expected_params)
        assert loaded == []

    def test_parameter_drift_is_detected(self, full_store, make_store, generator):
        """Stored parameter rows must match the serial pass bit-for-bit."""
        drifted = generator.generate(count=COUNT, seed=SEED + 1).param_view()
        with pytest.warns(CorruptArtifactWarning):
            loaded = make_store().load(expected_params=drifted)
        assert loaded == []

    def test_missing_shard_file_is_tolerated(
        self, full_store, make_store, expected_params
    ):
        full_store.shard_path(0).unlink()
        loaded = make_store().load(expected_params=expected_params)
        assert loaded == list(range(SHARD, COUNT))


class TestLifecycle:
    def test_reset_wipes_disk_state(self, make_store, record, realizations):
        store = make_store()
        record(store, realizations)
        store.flush()
        store.reset()
        assert not store.run_dir.exists()
        assert make_store().load() == []

    def test_discard_removes_run_dir(self, make_store, record, realizations):
        store = make_store()
        record(store, [realizations[0]])
        store.flush()
        store.discard()
        assert not store.run_dir.exists()

    def test_block_completion_flushes_automatically(
        self, make_store, record, realizations
    ):
        store = make_store()
        record(store, realizations[:SHARD])
        # The completed block hit the disk without an explicit flush().
        assert store.shard_path(0).exists()
