"""Pooled generation on a wide catalog: bitwise equal to serial, array-native.

The paper's Oahu catalog is tiled into a many-asset synthetic catalog
(the row-width regime where the pooled result payload is largest) on a
coarse mesh so surge stays cheap.  Pooled ``generate(n_jobs=2)`` must
reproduce the serial ensemble bit for bit -- depths and storm parameters
-- and the returned ensemble must hold its matrix rather than rebuild it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.geo import build_oahu_catalog, build_oahu_region
from repro.geo.catalog import AssetCatalog
from repro.geo.coords import destination_point
from repro.hazards.hurricane.ensemble import EnsembleGenerator
from repro.hazards.hurricane.standard import DEFAULT_SEED, standard_oahu_scenario

REPLICAS = 60
COUNT = 130  # two full row blocks and a short one when pooled


def replicated_catalog(replicas: int) -> AssetCatalog:
    """The Oahu catalog tiled ``replicas`` times with shifted positions.

    Each clone keeps its template's elevation and role and moves a few
    hundred meters along a deterministic bearing, so its depth column is
    distinct.
    """
    base = build_oahu_catalog()
    records = []
    for k in range(replicas):
        for record in base:
            if k == 0:
                records.append(record)
                continue
            moved = destination_point(
                record.location, bearing_deg=(37.0 * k) % 360.0, distance_km=0.2 * k
            )
            records.append(
                dataclasses.replace(record, name=f"{record.name} [{k}]", location=moved)
            )
    return AssetCatalog.from_records(f"{base.region_name} x{replicas}", records)


@pytest.fixture(scope="module")
def generator():
    return EnsembleGenerator(
        region=build_oahu_region(),
        catalog=replicated_catalog(REPLICAS),
        scenario=standard_oahu_scenario(),
        mesh_spacing_km=12.0,
    )


@pytest.fixture(scope="module")
def serial(generator):
    return generator.generate(count=COUNT, seed=DEFAULT_SEED)


def test_pooled_is_bitwise_equal_to_serial(generator, serial):
    assert len(generator.asset_order) == REPLICAS * len(build_oahu_catalog())
    pooled = generator.generate(count=COUNT, seed=DEFAULT_SEED, n_jobs=2)
    assert pooled.depth_view().shape == (COUNT, len(generator.asset_order))
    assert np.array_equal(pooled.depth_view(), serial.depth_view())
    assert np.array_equal(pooled.param_view(), serial.param_view())
    assert [r.params for r in pooled] == [r.params for r in serial]


def test_ensemble_holds_the_matrix_without_rebuilding_it(generator, serial):
    view = serial.depth_view()
    # The same array on every call, owned by the ensemble (not a shared
    # segment), and iterating the rows leaves it untouched.
    assert view is serial.depth_view()
    assert view.flags.owndata and view.dtype == np.float64
    for realization in serial:
        realization.inundation.depths_m
    assert serial.depth_view() is view
    copy = serial.depth_matrix()
    assert copy is not view and np.array_equal(copy, view)
