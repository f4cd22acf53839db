"""Monte Carlo hurricane ensembles (the paper's 1000 realizations).

The paper generates 1000 ADCIRC realizations of a Category-2 hurricane on a
planner-supplied track and records the peak inundation at each power asset.
This module reproduces that pipeline: a base scenario (landfall, heading,
intensity) is perturbed per realization -- track offset, heading, central
pressure, storm size, forward speed -- the surge solver produces shoreline
WSE, and the inundation mapper turns it into per-asset depths.

Generation is split into two deterministic passes: a serial parameter pass
drawing every realization's storm parameters from the single main rng, and
a realization pass in which realization ``i``'s coarse-mesh dropout rng is
seeded from ``np.random.SeedSequence(seed).spawn(count)[i]``.  Because no
rng is shared across realizations in the second pass, the fault-tolerant
run controller (:mod:`repro.runtime.controller`) parallelizes it over
worker processes (``n_jobs``) with bit-identical output for any worker
count -- including across worker retries, pool rebuilds, and checkpointed
resumes -- and ensembles can round-trip through the on-disk cache
(``cache_dir``, see :mod:`repro.io.ensemble_cache`) without drift.
The realization pass runs in row blocks (:meth:`EnsembleGenerator.realize_block`)
whose rows are bitwise equal to realizing each one alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import HazardError
from repro.geo.catalog import AssetCatalog
from repro.geo.coords import GeoPoint, destination_point
from repro.geo.region import CoastalRegion
from repro.hazards.base import MatrixEnsemble, RowMapping
from repro.hazards.fragility import FragilityModel, ThresholdFragility
from repro.hazards.hurricane.inundation import ExtensionParams, InundationField, InundationMapper
from repro.hazards.hurricane.mesh import build_coastal_mesh
from repro.hazards.hurricane.surge import SurgeModel, SurgeModelParams
from repro.hazards.hurricane.track import StormTrack, synthesize_linear_track

if TYPE_CHECKING:  # runtime imports lazily inside generate() (no cycle)
    from repro.runtime.controller import RetryPolicy
    from repro.runtime.faults import FaultPlan


@dataclass(frozen=True)
class HurricaneScenarioSpec:
    """The base storm and its per-realization perturbation magnitudes."""

    name: str
    base_landfall: GeoPoint
    base_heading_deg: float
    track_offset_sd_km: float = 45.0
    heading_sd_deg: float = 12.0
    pressure_mean_mb: float = 972.0
    pressure_sd_mb: float = 7.0
    pressure_bounds_mb: tuple[float, float] = (956.0, 990.0)
    rmw_median_km: float = 30.0
    rmw_log_sd: float = 0.30
    forward_speed_mean_kmh: float = 18.0
    forward_speed_sd_kmh: float = 5.0
    forward_speed_bounds_kmh: tuple[float, float] = (8.0, 35.0)

    def __post_init__(self) -> None:
        if self.track_offset_sd_km < 0 or self.heading_sd_deg < 0:
            raise HazardError("perturbation magnitudes cannot be negative")
        lo, hi = self.pressure_bounds_mb
        if not lo < hi:
            raise HazardError("pressure bounds must be an increasing pair")


@dataclass(frozen=True)
class StormParameters:
    """One realization's sampled storm parameters."""

    landfall: GeoPoint
    heading_deg: float
    central_pressure_mb: float
    rmw_km: float
    forward_speed_kmh: float
    track_offset_km: float

    def to_track(self, name: str) -> StormTrack:
        return synthesize_linear_track(
            name=name,
            landfall=self.landfall,
            heading_deg=self.heading_deg,
            forward_speed_kmh=self.forward_speed_kmh,
            central_pressure_mb=self.central_pressure_mb,
            rmw_km=self.rmw_km,
        )


#: The storm-parameter table's columns, in :func:`params_to_row` order.
PARAM_COLUMNS = (
    "landfall_lat",
    "landfall_lon",
    "heading_deg",
    "central_pressure_mb",
    "rmw_km",
    "forward_speed_kmh",
    "track_offset_km",
)


def params_to_row(params: StormParameters) -> list[float]:
    """Flatten storm parameters into the canonical 7-column row."""
    return [
        params.landfall.lat,
        params.landfall.lon,
        params.heading_deg,
        params.central_pressure_mb,
        params.rmw_km,
        params.forward_speed_kmh,
        params.track_offset_km,
    ]


def params_from_row(row) -> StormParameters:
    """Rebuild storm parameters from a canonical 7-column row."""
    lat, lon, heading, pressure, rmw, speed, offset = row
    return StormParameters(
        landfall=GeoPoint(float(lat), float(lon)),
        heading_deg=float(heading),
        central_pressure_mb=float(pressure),
        rmw_km=float(rmw),
        forward_speed_kmh=float(speed),
        track_offset_km=float(offset),
    )


@dataclass(frozen=True)
class HurricaneRealization:
    """One hurricane outcome: storm parameters plus asset inundation."""

    index: int
    params: StormParameters
    inundation: InundationField

    def depth_at(self, asset_name: str) -> float:
        return self.inundation.depth_at(asset_name)

    def failed_assets(
        self,
        fragility: FragilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        model = fragility or ThresholdFragility()
        return model.failed_assets(self.inundation.depths_m, rng)


class HurricaneEnsemble(MatrixEnsemble):
    """Hurricane realizations as the (R x A) depth matrix plus the
    (R x 7) storm-parameter table (columns :data:`PARAM_COLUMNS`).

    Realizations are row views (:class:`HurricaneRealization`) built on
    demand; :meth:`from_realizations` packs hand-built realizations.
    """

    param_columns = PARAM_COLUMNS

    def _realization(self, index: int) -> HurricaneRealization:
        return HurricaneRealization(
            index=index,
            params=params_from_row(self._params[index]),
            inundation=InundationField(depths_m=self._row(index)),
        )

    @classmethod
    def from_realizations(
        cls,
        scenario_name: str,
        realizations: Sequence[HurricaneRealization],
        seed: int | None = None,
    ) -> "HurricaneEnsemble":
        """Pack realizations (row ``i`` is ``realizations[i]``) into the matrix.

        Every realization must carry the first one's asset set; columns
        follow its mapping order.
        """
        if not realizations:
            raise HazardError("ensemble must contain at least one realization")
        names = list(realizations[0].inundation.depths_m)
        try:
            depths = np.array(
                [[r.inundation.depths_m[n] for n in names] for r in realizations],
                dtype=np.float64,
            )
        except KeyError as exc:
            raise HazardError(
                f"realizations disagree on their assets: {exc.args[0]!r} missing"
            ) from None
        params = np.array([params_to_row(r.params) for r in realizations])
        return cls(scenario_name, depths, names, seed, params)

    def flood_probability(
        self, asset_name: str, fragility: FragilityModel | None = None
    ) -> float:
        """Fraction of realizations in which the asset fails."""
        return self.joint_flood_probability([asset_name], fragility)

    def joint_flood_probability(
        self, names: Sequence[str], fragility: FragilityModel | None = None
    ) -> float:
        """Fraction of realizations flooding *all* the named assets."""
        model = fragility or ThresholdFragility()
        mask = self._certain_failures(names, model).all(axis=1)
        return int(np.count_nonzero(mask)) / len(self)

    def conditional_flood_probability(
        self,
        target: str,
        given: str,
        fragility: FragilityModel | None = None,
    ) -> float:
        """P(target floods | given floods); NaN if the condition never occurs."""
        model = fragility or ThresholdFragility()
        both = self._certain_failures([given, target], model)
        given_hits = int(np.count_nonzero(both[:, 0]))
        if given_hits == 0:
            return math.nan
        return int(np.count_nonzero(both.all(axis=1))) / given_hits


@dataclass
class EnsembleGenerator:
    """Generates hurricane ensembles for a region + asset catalog.

    Construction builds the coastal mesh and the (mesh x asset) inundation
    mapping once; each realization then costs one track sweep of the surge
    solver plus a matrix-vector product, with shoreline smoothing shared
    across a block of realizations (:meth:`realize_block`).
    """

    region: CoastalRegion
    catalog: AssetCatalog
    scenario: HurricaneScenarioSpec
    surge_params: SurgeModelParams = field(default_factory=SurgeModelParams)
    extension_params: ExtensionParams = field(default_factory=ExtensionParams)
    mesh_spacing_km: float = 2.0

    deterministic = True

    def __post_init__(self) -> None:
        self._mesh = build_coastal_mesh(self.region, self.mesh_spacing_km)
        self._surge = SurgeModel(self._mesh, self.surge_params)
        self._mapper = InundationMapper(
            self.region, self._mesh, self.catalog, self.extension_params
        )
        self._columns = {name: i for i, name in enumerate(self._mapper.asset_names)}
        from repro.geo.digest import geo_content_key

        self._geo_key = geo_content_key(self.catalog, self.region)

    @property
    def mesh_size(self) -> int:
        return len(self._mesh)

    @property
    def asset_order(self) -> tuple[str, ...]:
        """Asset names in depth-mapping order (the catalog's order).

        Every realization's ``depths_m`` mapping iterates in exactly this
        order, and it is the column order of the ensemble's depth matrix.
        """
        return tuple(self._mapper.asset_names)

    def sample_parameters(
        self,
        rng: np.random.Generator,
        *,
        offset_km: float | None = None,
    ) -> StormParameters:
        """Draw one realization's storm parameters from the scenario spec.

        ``offset_km`` overrides the track-offset draw (no rng consumed
        for it): the hook :mod:`repro.sampling` uses to substitute a
        variance-reduced offset stream.  The default ``None`` keeps the
        historical draw order bit-identical.
        """
        s = self.scenario
        if offset_km is None:
            offset = float(rng.normal(0.0, s.track_offset_sd_km))
        else:
            offset = float(offset_km)
        heading = float(rng.normal(s.base_heading_deg, s.heading_sd_deg))
        # Offset the landfall perpendicular to the storm heading, so the
        # ensemble sweeps the track sideways across the island.
        landfall = destination_point(s.base_landfall, (heading + 90.0) % 360.0, offset)
        pressure = float(
            np.clip(
                rng.normal(s.pressure_mean_mb, s.pressure_sd_mb),
                *s.pressure_bounds_mb,
            )
        )
        rmw = float(s.rmw_median_km * math.exp(rng.normal(0.0, s.rmw_log_sd)))
        speed = float(
            np.clip(
                rng.normal(s.forward_speed_mean_kmh, s.forward_speed_sd_kmh),
                *s.forward_speed_bounds_kmh,
            )
        )
        return StormParameters(
            landfall=landfall,
            heading_deg=heading % 360.0,
            central_pressure_mb=pressure,
            rmw_km=rmw,
            forward_speed_kmh=speed,
            track_offset_km=offset,
        )

    def realize_block(
        self,
        indices: Sequence[int],
        params: Sequence[StormParameters],
        rngs: Sequence[np.random.Generator],
        timings: dict[str, float] | None = None,
    ) -> np.ndarray:
        """Run the surge + inundation pipeline for a block of realizations.

        Row ``k`` is realization ``indices[k]`` from ``params[k]`` with its
        own dropout ``rngs[k]``.  The surge model runs once per row; the
        ``(B, N)`` peak-WSE block is then smoothed in one pass per shoreline
        segment and mapped to assets row by row, so every row is bitwise
        equal to running it alone.  Returns ``(B, A)`` float64 depths in
        :attr:`asset_order`.  ``timings``, if given, accumulates seconds
        under ``hazard.surge``, ``hazard.smoothing`` and ``hazard.depth_map``.
        """
        clock = time.perf_counter
        started = clock()
        peaks = np.empty((len(indices), len(self._mesh)))
        for row, index, p, rng in zip(peaks, indices, params, rngs):
            track = p.to_track(f"{self.scenario.name}-r{index}")
            row[:] = self._surge.run(track, rng).peak_wse_m
        surged = clock()
        smoothed = self._mapper.smooth(peaks)
        smoothed_at = clock()
        depths = self._mapper.map_depths(smoothed)
        if timings is not None:
            for name, seconds in (
                ("hazard.surge", surged - started),
                ("hazard.smoothing", smoothed_at - surged),
                ("hazard.depth_map", clock() - smoothed_at),
            ):
                timings[name] = timings.get(name, 0.0) + seconds
        return depths

    def realize(self, index: int, params: StormParameters, rng: np.random.Generator) -> HurricaneRealization:
        """One realization: the one-row case of :meth:`realize_block`."""
        depths = self.realize_block((index,), (params,), (rng,))
        return HurricaneRealization(
            index=index,
            params=params,
            inundation=InundationField(
                depths_m=RowMapping(depths[0], self._columns)
            ),
        )

    def sample_all_parameters(self, count: int, seed: int) -> list[StormParameters]:
        """The serial parameter pass: every realization's storm parameters.

        All draws come from the single main rng in realization order, so the
        parameter stream is independent of how the realization pass is
        later scheduled (worker count, caching).
        """
        rng = np.random.default_rng(seed)
        return [self.sample_parameters(rng) for _ in range(count)]

    def _realization_rngs(self, count: int, seed: int) -> list[np.random.Generator]:
        """One independent dropout rng per realization, spawned from ``seed``."""
        return [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(count)
        ]

    def generate(
        self,
        count: int = 1000,
        seed: int = 0,
        n_jobs: int = 1,
        cache_dir: str | None = None,
        resume: bool = False,
        retry: "RetryPolicy | None" = None,
        faults: "FaultPlan | None" = None,
    ) -> HurricaneEnsemble:
        """Generate a full ensemble deterministically from ``seed``.

        The realization pass is delegated to the fault-tolerant
        :class:`~repro.runtime.controller.RunController`: ``n_jobs``
        parallelizes it over worker processes (bit-identical output for
        every worker count, because each realization owns a spawned rng),
        failed or hung workers are retried under ``retry`` (a
        :class:`~repro.runtime.controller.RetryPolicy`), and ``faults``
        injects a deterministic
        :class:`~repro.runtime.faults.FaultPlan` for chaos testing.
        Pooled workers return their row blocks as arrays.

        ``cache_dir`` names an on-disk cache directory: a hit (same
        scenario, surge/extension physics, mesh spacing, seed, and count)
        loads the stored ensemble instead of regenerating, and corrupt or
        stale entries are quarantined and regenerated.  With a cache
        directory, per-realization progress is also checkpointed to
        sharded files under ``run-<key>/``; ``resume=True`` restarts an
        interrupted run from those shards instead of from scratch.
        """
        if count < 1:
            raise HazardError("ensemble size must be at least 1")
        if n_jobs < 1:
            raise HazardError("n_jobs must be at least 1")
        if resume and cache_dir is None:
            raise HazardError("resume requires a cache_dir to hold checkpoints")
        from repro.obs.observer import current as current_observer

        obs = current_observer()
        with obs.span(
            "ensemble.generate",
            scenario=self.scenario.name,
            count=count,
            seed=seed,
            n_jobs=n_jobs,
        ):
            key = self.cache_key(count, seed)
            if cache_dir is not None:
                from repro.io.ensemble_cache import load_ensemble_cache

                with obs.span("ensemble.cache_lookup"):
                    cached = load_ensemble_cache(cache_dir, key)
                if cached is not None:
                    return cached

            from repro.runtime.checkpoint import CheckpointStore
            from repro.runtime.controller import RunController

            checkpoint = None
            if cache_dir is not None:
                checkpoint = CheckpointStore(
                    run_dir=Path(cache_dir) / f"run-{key}",
                    key=key,
                    count=count,
                    seed=seed,
                    scenario_name=self.scenario.name,
                    asset_names=self.asset_order,
                )
            controller = RunController(
                self,
                count=count,
                seed=seed,
                n_jobs=n_jobs,
                policy=retry,
                faults=faults,
                checkpoint=checkpoint,
            )
            ensemble = controller.run(resume=resume)
            if cache_dir is not None:
                from repro.io.ensemble_cache import save_ensemble_cache

                with obs.span("ensemble.cache_store"):
                    save_ensemble_cache(ensemble, cache_dir, key)
                checkpoint.discard()
            return ensemble

    def cache_key(self, count: int, seed: int) -> str:
        """Content hash identifying this generator's output for (count, seed)."""
        from repro.io.ensemble_cache import ensemble_cache_key

        return ensemble_cache_key(
            scenario=self.scenario,
            surge_params=self.surge_params,
            extension_params=self.extension_params,
            mesh_spacing_km=self.mesh_spacing_km,
            count=count,
            seed=seed,
            geo_key=self._geo_key,
        )


