"""Tests for hurricane-driven grid damage."""

from __future__ import annotations

import pytest

from repro.geo import HONOLULU_CC
from repro.grid.model import build_oahu_grid
from repro.grid.storm_impact import (
    damaged_grid,
    ensemble_grid_impact,
    storm_grid_impact,
)
from tests.core.test_pipeline import PARAMS
from repro.hazards.hurricane.ensemble import HurricaneEnsemble, HurricaneRealization
from repro.hazards.hurricane.inundation import InundationField


@pytest.fixture(scope="module")
def grid():
    return build_oahu_grid()


def grid_realization(index: int, depths: dict[str, float]) -> HurricaneRealization:
    return HurricaneRealization(index, PARAMS, InundationField(depths))


CALM = grid_realization(0, {"Waiau Power Plant": 0.0, HONOLULU_CC: 0.0})
WAIAU_FLOODED = grid_realization(1, {"Waiau Power Plant": 1.2, HONOLULU_CC: 0.0})
SOUTH_SHORE_HIT = grid_realization(
    2,
    {
        "Waiau Power Plant": 1.5,
        "Honolulu Power Plant": 1.5,
        "Iwilei Substation": 1.2,
        "Makalapa Substation": 1.0,
        HONOLULU_CC: 1.5,
    },
)


class TestDamagedGrid:
    def test_no_damage_returns_same_grid(self, grid):
        survivor, shed = damaged_grid(grid, frozenset())
        assert survivor is grid
        assert shed == 0.0

    def test_unknown_assets_ignored(self, grid):
        survivor, shed = damaged_grid(grid, frozenset({HONOLULU_CC}))
        assert survivor is grid
        assert shed == 0.0

    def test_flooded_bus_removed_with_lines_and_gens(self, grid):
        survivor, shed = damaged_grid(grid, frozenset({"Waiau Power Plant"}))
        assert "Waiau Power Plant" not in survivor.buses
        assert all("Waiau Power Plant" not in line.key for line in survivor.lines)
        assert all(
            gen.bus != "Waiau Power Plant" for gen in survivor.generators.values()
        )
        assert shed == 0.0  # plants carry no load in the model

    def test_shed_counts_substation_demand(self, grid):
        survivor, shed = damaged_grid(grid, frozenset({"Iwilei Substation"}))
        assert shed == pytest.approx(180.0)


class TestStormGridImpact:
    def test_calm_realization_serves_everything(self, grid):
        impact = storm_grid_impact(grid, CALM)
        assert impact.served_fraction == pytest.approx(1.0)
        assert impact.out_buses == ()

    def test_losing_waiau_plant_still_serves_with_scada(self, grid):
        impact = storm_grid_impact(grid, WAIAU_FLOODED)
        assert impact.out_buses == ("Waiau Power Plant",)
        # 450 MW of generation gone but capacity margin holds; the grid
        # splits around the lost bus, stranding some windward load.
        assert 0.5 < impact.served_fraction <= 1.0

    def test_south_shore_hit_sheds_load(self, grid):
        impact = storm_grid_impact(grid, SOUTH_SHORE_HIT)
        assert set(impact.out_buses) == {
            "Waiau Power Plant",
            "Honolulu Power Plant",
            "Iwilei Substation",
            "Makalapa Substation",
        }
        assert impact.shed_at_damaged_mw == pytest.approx(270.0)
        assert impact.served_fraction < 0.8

    def test_scada_loss_never_helps(self, grid):
        for realization in (CALM, WAIAU_FLOODED, SOUTH_SHORE_HIT):
            with_scada = storm_grid_impact(grid, realization, scada_operational=True)
            without = storm_grid_impact(grid, realization, scada_operational=False)
            assert without.served_fraction <= with_scada.served_fraction + 1e-9


class TestEnsembleGridImpact:
    def test_standard_ensemble_statistics(self, grid, standard_ensemble):
        impact = ensemble_grid_impact(grid, standard_ensemble.subset(300))
        # The south-shore plants flood in the same ~9% band as the
        # control centers, plus weaker events that only hit the plants.
        assert 0.05 < impact.damage_probability < 0.6
        assert 0.85 < impact.mean_served_fraction <= 1.0
        assert impact.worst_served_fraction < impact.mean_served_fraction
        assert "mean served" in impact.summary()

    def test_empty_ensemble_impossible(self, grid):
        from repro.errors import HazardError

        with pytest.raises(HazardError):
            HurricaneEnsemble.from_realizations("x", ())
