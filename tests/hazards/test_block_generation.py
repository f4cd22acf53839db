"""Block hazard generation is bitwise equal to one realization at a time.

``smooth_shoreline`` on a ``(B, N)`` block must reproduce a loop of 1-D
calls bit for bit, including zeros (dropouts), negative readings,
``window=0`` and single-node segments; ``InundationMapper.map_depths``
must reproduce the per-row ``depths_from_wse`` and the historical
per-realization ``weights @ row`` expression; and
``EnsembleGenerator.realize_block`` must reproduce one-row ``realize``
calls.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hazards.hurricane.inundation import InundationMapper, smooth_shoreline
from repro.hazards.hurricane.mesh import CoastalMesh, build_coastal_mesh
from repro.hazards.hurricane.standard import standard_oahu_generator
from tests.geo.test_region import square_region
from tests.hazards.test_inundation import coastal_catalog

REGION = square_region(side_deg=0.4)
MESH = build_coastal_mesh(REGION, spacing_km=2.0)
N = len(MESH)

readings = st.one_of(
    st.just(0.0),
    st.floats(min_value=-2.0, max_value=6.0, allow_nan=False),
)


def relabelled(cuts: set[int]) -> CoastalMesh:
    """MESH with its nodes regrouped into segments split at ``cuts``.

    Adjacent cut points make single-node segments.
    """
    bounds = [0, *sorted(cuts), N]
    nodes = [
        replace(MESH.nodes[i], segment_name=f"s{k}")
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        for i in range(lo, hi)
    ]
    return CoastalMesh(MESH.region, tuple(nodes), MESH.projection)


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestBlockSmoothing:
    @given(
        rows=st.integers(min_value=1, max_value=6).flatmap(
            lambda b: st.lists(
                st.lists(readings, min_size=N, max_size=N), min_size=b, max_size=b
            )
        ),
        window=st.integers(min_value=0, max_value=6),
        cuts=st.sets(st.integers(min_value=1, max_value=N - 1), max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_equals_per_row_loop_bitwise(self, rows, window, cuts):
        mesh = relabelled(cuts)
        block = np.array(rows)
        smoothed = smooth_shoreline(mesh, block, window)
        looped = np.stack([smooth_shoreline(mesh, row, window) for row in block])
        assert smoothed.shape == block.shape
        assert bits(smoothed) == bits(looped)

    def test_single_row_block_equals_1d(self):
        wse = np.linspace(-0.5, 3.0, N)
        wse[::4] = 0.0
        assert bits(smooth_shoreline(MESH, wse[None, :])[0]) == bits(
            smooth_shoreline(MESH, wse)
        )

    def test_precomputed_segments_change_nothing(self):
        wse = np.abs(np.sin(np.arange(3 * N, dtype=float))).reshape(3, N)
        segments = tuple(MESH.segment_slices().values())
        assert bits(smooth_shoreline(MESH, wse, segments=segments)) == bits(
            smooth_shoreline(MESH, wse)
        )

    @pytest.mark.parametrize("shape", [(N + 1,), (2, N - 1), (1, 2, N)])
    def test_rejects_wrong_shapes(self, shape):
        from repro.errors import HazardError

        with pytest.raises(HazardError):
            smooth_shoreline(MESH, np.zeros(shape))


class TestBlockMapping:
    MAPPER = InundationMapper(REGION, MESH, coastal_catalog(REGION))

    @given(st.lists(st.lists(readings, min_size=N, max_size=N), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_map_depths_equals_per_row_depths_bitwise(self, rows):
        block = np.array(rows)
        depths = self.MAPPER.map_depths(self.MAPPER.smooth(block))
        for row, wse in zip(depths, block):
            single = self.MAPPER.depths_from_wse(wse)
            assert bits(row) == bits(np.array(list(single.values())))


class TestRealizeBlock:
    def test_block_equals_one_row_realize(self):
        generator = standard_oahu_generator()
        count, seed = 9, 31
        params = generator.sample_all_parameters(count, seed)
        block = generator.realize_block(
            range(count), params, generator._realization_rngs(count, seed)
        )
        rngs = generator._realization_rngs(count, seed)
        for i in range(count):
            single = generator.realize(i, params[i], rngs[i]).inundation.depths_m
            assert list(single) == list(generator.asset_order)
            assert bits(block[i]) == bits(np.array(list(single.values())))

    def test_mapping_is_one_gemv_per_row(self):
        """Pinned against the historical per-realization expression on real
        surge peaks, where one GEMM over the block drifts in the last bits."""
        generator = standard_oahu_generator()
        count, seed = 64, 1
        params = generator.sample_all_parameters(count, seed)
        rngs = generator._realization_rngs(count, seed)
        peaks = np.array(
            [
                generator._surge.run(p.to_track(f"r{i}"), rng).peak_wse_m
                for i, (p, rng) in enumerate(zip(params, rngs))
            ]
        )
        mapper = generator._mapper
        smoothed = mapper.smooth(peaks)
        expected = np.stack(
            [np.maximum(0.0, mapper._weights @ row - mapper._elevations) for row in smoothed]
        )
        assert bits(mapper.map_depths(smoothed)) == bits(expected)

    def test_timings_cover_the_three_sub_layers(self):
        generator = standard_oahu_generator()
        params = generator.sample_all_parameters(3, 5)
        timings: dict[str, float] = {}
        generator.realize_block(
            range(3), params, generator._realization_rngs(3, 5), timings=timings
        )
        assert set(timings) == {"hazard.surge", "hazard.smoothing", "hazard.depth_map"}
        assert all(t >= 0.0 for t in timings.values())

    def test_empty_block_has_no_rows(self):
        generator = standard_oahu_generator()
        depths = generator.realize_block((), (), ())
        assert depths.shape == (0, len(generator.asset_order))
