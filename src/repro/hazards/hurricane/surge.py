"""Simplified storm-surge solver (wind setup + inverse barometer).

The paper drives its analysis with ADCIRC, a finite-element shallow-water
solver.  ADCIRC itself is an HPC code with proprietary meshes; what the
downstream framework consumes is only the *peak water surface elevation
(WSE) at shoreline nodes per hurricane realization*.  This module produces
that quantity with the standard first-order surge physics:

* **wind setup**: steady-state onshore wind stress balance gives a setup
  proportional to the square of the onshore wind component, scaled by the
  local shelf factor (broad shallow shelves pile up far more water), and
* **inverse barometer**: ~1 cm of sea-level rise per mb of local pressure
  deficit, following the storm's Holland pressure profile,
* **wave setup**: a fixed fraction of the wind setup, representing breaking
  wave momentum flux.

The solver sweeps the storm track in time steps and records the peak WSE
per node.  It then reproduces the coarse-mesh artifact the paper
describes ("a water surface elevation of 1.5 m, but then 0 m nearby in
several locations") by dropping a random subset of node readings to zero;
the shoreline-averaging step in :mod:`repro.hazards.hurricane.inundation`
repairs this exactly as the paper's post-processing does.

Two kernels produce the sweep.  :meth:`SurgeModel.run` evaluates the whole
(timestep x node) grid in one batched numpy computation: per-timestep track
states and wind-field scalars are precomputed once (cheap Python loop over
~30 timesteps), the setup + inverse-barometer physics is evaluated as 2-D
array ops, and the peak is an ``np.max``/``argmax`` reduction over the time
axis.  :meth:`SurgeModel.run_reference` keeps the original per-timestep
Python loop; the two are bitwise identical (asserted by tests), so the
reference path serves as both a correctness oracle and the baseline for
the ensemble-throughput benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import HazardError
from repro.geo.coords import haversine_km, initial_bearing_deg, unit_vector_deg
from repro.hazards.hurricane.mesh import CoastalMesh
from repro.hazards.hurricane.track import AMBIENT_PRESSURE_MB, StormTrack
from repro.hazards.hurricane.wind import (
    AIR_DENSITY_KG_M3,
    ASYMMETRY_FACTOR,
    INFLOW_ANGLE_DEG,
    SURFACE_WIND_FACTOR,
    HollandWindField,
    coriolis_parameter,
)


@dataclass(frozen=True)
class SurgeModelParams:
    """Tunable physics coefficients of the surge solver.

    Defaults are calibrated (see ``tests/hazards/test_calibration.py``) so
    that the Oahu case-study ensemble reproduces the paper's headline
    failure statistics: the Honolulu control center floods in roughly 9.5%
    of 1000 Category-2 realizations.
    """

    setup_coefficient: float = 0.00112  # m per (m/s)^2 of onshore wind, shelf=1
    wave_setup_fraction: float = 0.25  # extra fraction of wind setup
    inverse_barometer_m_per_mb: float = 0.010
    time_step_h: float = 1.0
    dropout_probability: float = 0.15  # coarse-mesh zero-reading artifact
    sea_level_offset_m: float = 0.0  # climate sea-level rise / tide stage

    def __post_init__(self) -> None:
        if self.setup_coefficient <= 0.0:
            raise HazardError("setup coefficient must be positive")
        if not 0.0 <= self.wave_setup_fraction <= 1.0:
            raise HazardError("wave setup fraction must be in [0, 1]")
        if self.inverse_barometer_m_per_mb < 0.0:
            raise HazardError("inverse barometer coefficient cannot be negative")
        if self.time_step_h <= 0.0:
            raise HazardError("time step must be positive")
        if not 0.0 <= self.dropout_probability < 1.0:
            raise HazardError("dropout probability must be in [0, 1)")
        if not -1.0 <= self.sea_level_offset_m <= 3.0:
            raise HazardError("sea level offset must be in [-1, 3] m")


@dataclass(frozen=True)
class SurgeResult:
    """Peak water surface elevation per mesh node for one storm."""

    mesh: CoastalMesh
    raw_peak_wse_m: np.ndarray  # before coarse-mesh dropout
    peak_wse_m: np.ndarray  # after dropout (what the "model output" shows)
    peak_time_h: np.ndarray

    def max_wse_m(self) -> float:
        return float(np.max(self.raw_peak_wse_m))


#: Holland B exponent used by the surge sweep (the wind-field default).
_HOLLAND_B: float = HollandWindField.__dataclass_fields__["holland_b"].default


class SurgeModel:
    """Computes peak WSE along a coastal mesh for a storm track."""

    def __init__(self, mesh: CoastalMesh, params: SurgeModelParams | None = None) -> None:
        self.mesh = mesh
        self.params = params or SurgeModelParams()
        self._xy = mesh.xy_km
        self._normals = mesh.normals
        self._shelf = mesh.shelf_factors

    def _wse_at_time(self, track: StormTrack, time_h: float) -> np.ndarray:
        state = track.state_at(time_h)
        field = HollandWindField(
            state=state,
            motion_kmh=track.forward_speed_kmh_at(time_h),
            motion_bearing_deg=track.heading_deg_at(time_h),
        )
        wind = field.wind_vectors(self._xy, self.mesh.projection)
        onshore = wind[:, 0] * self._normals[:, 0] + wind[:, 1] * self._normals[:, 1]
        onshore = np.maximum(onshore, 0.0)
        setup = self.params.setup_coefficient * self._shelf * onshore * onshore
        setup *= 1.0 + self.params.wave_setup_fraction

        cx, cy = self.mesh.projection.to_xy(state.center)
        radius_km = np.hypot(self._xy[:, 0] - cx, self._xy[:, 1] - cy)
        local_pressure = field.pressure_mb(radius_km)
        deficit_mb = np.maximum(
            0.0, np.full_like(local_pressure, 1013.0) - local_pressure
        )
        barometer = self.params.inverse_barometer_m_per_mb * deficit_mb
        return setup + barometer + self.params.sea_level_offset_m

    def _track_scalars(self, track: StormTrack, times: list[float]) -> dict[str, np.ndarray]:
        """Per-timestep storm scalars, mirroring the reference arithmetic.

        Evaluates the same expressions :meth:`StormTrack.state_at`,
        :meth:`StormTrack.heading_deg_at`, :meth:`StormTrack.forward_speed_kmh_at`,
        :meth:`LocalProjection.to_xy`, and the wind field's scalar profile use
        (same operations, same order) without constructing the intermediate
        ``TrackPoint``/``HollandWindField`` objects, so the batched kernel is
        bitwise identical to the per-timestep reference sweep.
        """
        origin = self.mesh.projection.origin
        kx = math.cos(math.radians(origin.lat))
        from repro.geo.coords import EARTH_RADIUS_KM

        columns = {
            name: np.empty(len(times))
            for name in ("cx", "cy", "pc", "deficit", "rmax_m", "f", "vmax", "motion_ms", "mx", "my")
        }
        pairs = list(zip(track.points, track.points[1:]))
        # The geodesic motion scalars depend only on the bracketing pair,
        # so they are computed once per track segment, not per timestep.
        motion: dict[int, tuple[float, float, float]] = {}
        for j, t in enumerate(times):
            for k, (a, b) in enumerate(pairs):
                if a.time_h <= t <= b.time_h:
                    break
            else:  # pragma: no cover - track.times() stays inside the track
                raise HazardError(f"time {t} h not bracketed")
            frac = (t - a.time_h) / (b.time_h - a.time_h)
            lat = a.center.lat + frac * (b.center.lat - a.center.lat)
            lon = a.center.lon + frac * (b.center.lon - a.center.lon)
            pressure = a.central_pressure_mb + frac * (
                b.central_pressure_mb - a.central_pressure_mb
            )
            rmw_km = a.rmw_km + frac * (b.rmw_km - a.rmw_km)
            if k not in motion:
                motion[k] = (
                    haversine_km(a.center, b.center) / (b.time_h - a.time_h),
                    *unit_vector_deg(initial_bearing_deg(a.center, b.center)),
                )
            motion_kmh, mx, my = motion[k]

            deficit_mb = AMBIENT_PRESSURE_MB - pressure
            deficit_pa = deficit_mb * 100.0
            columns["cx"][j] = math.radians(lon - origin.lon) * EARTH_RADIUS_KM * kx
            columns["cy"][j] = math.radians(lat - origin.lat) * EARTH_RADIUS_KM
            columns["pc"][j] = pressure
            columns["deficit"][j] = deficit_mb
            columns["rmax_m"][j] = rmw_km * 1000.0
            columns["f"][j] = abs(coriolis_parameter(lat))
            columns["vmax"][j] = max(
                math.sqrt(_HOLLAND_B * deficit_pa / (AIR_DENSITY_KG_M3 * math.e)), 1e-9
            )
            columns["motion_ms"][j] = motion_kmh / 3.6 if motion_kmh > 0.0 else 0.0
            columns["mx"][j] = mx
            columns["my"][j] = my
        return columns

    def _wse_grid(self, track: StormTrack, times: list[float]) -> np.ndarray:
        """The full (timestep x node) WSE grid in one batched computation.

        Every elementwise expression below mirrors :meth:`_wse_at_time` /
        :meth:`HollandWindField.wind_vectors` exactly (same ufuncs, same
        operand order) with the per-timestep scalars broadcast as column
        vectors, so each grid row is bitwise equal to the reference sweep's
        per-timestep output.
        """
        s = self._track_scalars(track, times)
        col = {k: v[:, None] for k, v in s.items()}  # (T, 1) broadcast columns

        dx = self._xy[:, 0][None, :] - col["cx"]
        dy = self._xy[:, 1][None, :] - col["cy"]
        radius_km = np.hypot(dx, dy)

        # Holland gradient wind (wind.gradient_wind_ms, batched over time).
        r_m = np.maximum(radius_km * 1000.0, 1.0)
        ratio_b = (col["rmax_m"] / r_m) ** _HOLLAND_B
        rf_half = r_m * col["f"] / 2.0
        exp_neg_ratio_b = np.exp(-ratio_b)
        term = ratio_b * _HOLLAND_B * (col["deficit"] * 100.0) / AIR_DENSITY_KG_M3 * exp_neg_ratio_b
        gradient = np.sqrt(term + rf_half**2) - rf_half

        # Surface wind vectors (wind.wind_vectors, batched over time).
        speed = SURFACE_WIND_FACTOR * gradient
        safe_r = np.maximum(radius_km, 1e-6)
        ux = dx / safe_r
        uy = dy / safe_r
        inflow = math.radians(INFLOW_ANGLE_DEG)
        cos_a, sin_a = math.cos(inflow), math.sin(inflow)
        wind_x = (cos_a * (-uy) + sin_a * (-ux)) * speed
        wind_y = (cos_a * ux + sin_a * (-uy)) * speed
        decay = gradient / col["vmax"]
        wind_x = wind_x + ASYMMETRY_FACTOR * col["motion_ms"] * col["mx"] * decay
        wind_y = wind_y + ASYMMETRY_FACTOR * col["motion_ms"] * col["my"] * decay

        # Wind setup against the onshore normal (surge._wse_at_time).
        onshore = wind_x * self._normals[:, 0] + wind_y * self._normals[:, 1]
        onshore = np.maximum(onshore, 0.0)
        setup = self.params.setup_coefficient * self._shelf * onshore * onshore
        setup *= 1.0 + self.params.wave_setup_fraction

        # Inverse barometer from the Holland pressure profile (wind.pressure_mb);
        # the profile's exp(-(Rmax/r)^B) is the same factor computed above.
        local_pressure = col["pc"] + col["deficit"] * exp_neg_ratio_b
        deficit_mb = np.maximum(0.0, 1013.0 - local_pressure)
        barometer = self.params.inverse_barometer_m_per_mb * deficit_mb
        return setup + barometer + self.params.sea_level_offset_m

    def _apply_dropout(
        self, peak: np.ndarray, rng: np.random.Generator | None
    ) -> np.ndarray:
        observed = peak.copy()
        if rng is not None and self.params.dropout_probability > 0.0:
            dropped = rng.random(len(peak)) < self.params.dropout_probability
            observed = np.where(dropped, 0.0, observed)
        return observed

    def run(self, track: StormTrack, rng: np.random.Generator | None = None) -> SurgeResult:
        """Sweep the track and return peak WSE per node (batched kernel).

        ``rng`` drives the coarse-mesh dropout artifact; pass ``None`` to
        disable dropout (raw physics only).  Bitwise identical to
        :meth:`run_reference`.
        """
        times = track.times(self.params.time_step_h)
        grid = self._wse_grid(track, times)
        raw_max = grid.max(axis=0)
        first_idx = grid.argmax(axis=0)
        # The reference loop starts its running peak at 0, so sub-zero WSE
        # never registers and the peak time stays at the sweep start.
        positive = raw_max > 0.0
        peak = np.where(positive, raw_max, 0.0)
        peak_time = np.where(positive, np.asarray(times)[first_idx], times[0])
        return SurgeResult(
            mesh=self.mesh,
            raw_peak_wse_m=peak,
            peak_wse_m=self._apply_dropout(peak, rng),
            peak_time_h=peak_time,
        )

    def run_reference(
        self, track: StormTrack, rng: np.random.Generator | None = None
    ) -> SurgeResult:
        """The original per-timestep sweep, kept as the correctness oracle.

        Tests assert ``run`` produces bitwise-identical peaks; benchmarks
        use this path as the pre-vectorization baseline.
        """
        times = track.times(self.params.time_step_h)
        n = len(self.mesh)
        peak = np.zeros(n)
        peak_time = np.full(n, times[0])
        for t in times:
            wse = self._wse_at_time(track, t)
            improved = wse > peak
            peak = np.where(improved, wse, peak)
            peak_time = np.where(improved, t, peak_time)
        return SurgeResult(
            mesh=self.mesh,
            raw_peak_wse_m=peak,
            peak_wse_m=self._apply_dropout(peak, rng),
            peak_time_h=peak_time,
        )
