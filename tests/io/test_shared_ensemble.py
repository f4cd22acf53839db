"""Shared-memory ensemble transport: fidelity and lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import HazardError, SerializationError
from repro.hazards.base import MatrixEnsemble
from repro.hazards.fragility import ThresholdFragility
from repro.io.shared_ensemble import (
    attach_shared_ensemble,
    publish_shared_ensemble,
    shareable_ensemble,
)


def _array_ensemble(n=8, n_assets=3, seed=11):
    rng = np.random.default_rng(seed)
    names = [f"asset-{i}" for i in range(n_assets)]
    return MatrixEnsemble(
        scenario_name="transport-test",
        depths=rng.uniform(0.0, 1.2, size=(n, n_assets)),
        asset_names=names,
        seed=seed,
    )


# ----------------------------------------------------------------------
# MatrixEnsemble as a HazardEnsemble
# ----------------------------------------------------------------------
def test_array_ensemble_realizations_match_matrix():
    ensemble = _array_ensemble()
    depths = ensemble.depth_view()
    assert len(ensemble) == depths.shape[0]
    for i, realization in enumerate(ensemble):
        assert realization.index == i
        row = [realization.depths_m[n] for n in ensemble.asset_names]
        assert row == depths[i].tolist()
    # failed_assets agrees with a direct threshold on the matrix.
    model = ThresholdFragility(threshold_m=0.5)
    for i, realization in enumerate(ensemble):
        expected = {
            name
            for j, name in enumerate(ensemble.asset_names)
            if depths[i, j] > 0.5
        }
        assert realization.failed_assets(model) == frozenset(expected)


def test_array_ensemble_shape_mismatch_rejected():
    with pytest.raises(HazardError, match="shape"):
        MatrixEnsemble(
            scenario_name="bad",
            depths=np.zeros((4, 3)),
            asset_names=["a", "b"],
        )


def test_shareable_probe():
    assert shareable_ensemble(_array_ensemble())
    assert not shareable_ensemble(object())
    assert not shareable_ensemble([1, 2, 3])


# ----------------------------------------------------------------------
# Shared-memory roundtrip and lifecycle
# ----------------------------------------------------------------------
def test_shm_publish_attach_roundtrip_bit_identical():
    source = _array_ensemble()
    handle = publish_shared_ensemble(source)
    assert handle is not None
    try:
        attached = attach_shared_ensemble(handle.descriptor)
        assert attached.scenario_name == source.scenario_name
        assert attached.seed == source.seed
        assert attached.asset_names == source.asset_names
        assert np.array_equal(attached.depth_view(), source.depth_view())
        # The attached grid is the same bytes, not a pickled copy.
        assert attached.depth_view().base is not None
    finally:
        handle.close()
        handle.unlink()


def test_unlink_is_idempotent_and_destroys_the_segment():
    handle = publish_shared_ensemble(_array_ensemble())
    descriptor = handle.descriptor
    handle.close()
    handle.unlink()
    handle.unlink()  # second unlink is a no-op, not an error
    with pytest.raises(FileNotFoundError):
        attach_shared_ensemble(descriptor)


def test_publish_returns_none_for_unshareable():
    assert publish_shared_ensemble(object()) is None


def test_attach_rejects_unknown_kind():
    with pytest.raises(SerializationError, match="descriptor kind"):
        attach_shared_ensemble(
            {"kind": "carrier-pigeon", "shape": [1, 1], "asset_names": ["a"]}
        )
