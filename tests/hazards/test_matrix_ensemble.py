"""The one ensemble representation: an (R x A) matrix with lazy row views."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import HazardError
from repro.hazards.base import MatrixEnsemble
from repro.hazards.hurricane.ensemble import HurricaneEnsemble


@pytest.fixture
def ensemble(small_ensemble):
    """A private copy of the shared fixture's matrices, safe to mutate."""
    return HurricaneEnsemble(
        small_ensemble.scenario_name,
        small_ensemble.depth_matrix(),
        small_ensemble.asset_names,
        small_ensemble.seed,
        np.array(small_ensemble.param_view()),
    )


class TestRowViews:
    def test_row_view_depths_equal_the_matrix_row(self, ensemble):
        matrix = ensemble.depth_view()
        names = ensemble.asset_names
        for i, realization in enumerate(list(ensemble)):
            depths = realization.inundation.depths_m
            assert realization.index == i
            assert list(depths) == names
            assert [depths[n] for n in names] == matrix[i].tolist()
            assert list(depths.items()) == list(zip(names, matrix[i].tolist()))

    def test_iterating_never_copies_the_matrix(self, ensemble):
        views = list(ensemble)
        name = ensemble.asset_names[0]
        # A write into the matrix shows through every view built before it.
        ensemble.depth_view()[3, 0] = 123.25
        assert views[3].inundation.depths_m[name] == 123.25
        assert ensemble[3].depth_at(name) == 123.25

    def test_iteration_allocates_far_less_than_the_matrix(self, standard_ensemble):
        matrix_bytes = standard_ensemble.depth_view().nbytes
        tracemalloc.start()
        try:
            for realization in standard_ensemble:
                realization.inundation.depths_m  # noqa: B018 - touch the view
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes / 4

    def test_params_round_trip_the_parameter_table(self, ensemble):
        table = ensemble.param_view()
        offsets = [r.params.track_offset_km for r in ensemble]
        assert offsets == ensemble.param_column("track_offset_km").tolist()
        assert [r.params.landfall.lat for r in ensemble] == table[:, 0].tolist()

    def test_negative_index_and_bounds(self, ensemble):
        assert ensemble[-1].index == len(ensemble) - 1
        with pytest.raises(IndexError):
            ensemble[len(ensemble)]


class TestConstruction:
    def test_realization_tuples_go_through_from_realizations(self, small_ensemble):
        rebuilt = HurricaneEnsemble.from_realizations(
            small_ensemble.scenario_name, small_ensemble.realizations
        )
        assert np.array_equal(rebuilt.depth_view(), small_ensemble.depth_view())
        assert np.array_equal(rebuilt.param_view(), small_ensemble.param_view())
        with pytest.raises(TypeError):
            HurricaneEnsemble("t", small_ensemble.realizations)

    def test_hurricane_ensemble_needs_its_parameter_table(self):
        with pytest.raises(HazardError, match="parameter table"):
            HurricaneEnsemble("t", np.zeros((2, 1)), ["a"])

    def test_subset_is_a_view_of_the_same_class(self, ensemble):
        sub = ensemble.subset(5)
        assert type(sub) is HurricaneEnsemble
        assert np.shares_memory(sub.depth_view(), ensemble.depth_view())
        assert [r.params for r in sub] == [r.params for r in ensemble][:5]

    def test_bare_matrix_rows_carry_no_parameters(self):
        bare = MatrixEnsemble("bare", np.array([[0.2, 0.9]]), ["a", "b"])
        (row,) = list(bare)
        assert row.failed_assets() == frozenset({"b"})
        with pytest.raises(HazardError, match="no parameter column"):
            bare.param_column("track_offset_km")
