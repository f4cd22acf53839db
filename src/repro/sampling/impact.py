"""Downstream impact: load shed and economic loss per realization.

The paper's output is a green/orange/red count; production risk questions
want *how much* -- megawatts shed and dollars lost -- as exceedance
curves and expected annual loss (the compound cyberattack/extreme-weather
economics framing of arXiv 2209.04927).  This module adds that layer two
ways that share one solver and one memo:

* :class:`LoadShedStage` / :class:`EconomicLossStage` -- chain stages
  (the ``"tail-risk"`` preset) publishing per-realization impact into
  ``ctx.extras`` for timeline inspection, memoized per distinct damage
  pattern exactly like
  :class:`~repro.core.chain.InterdependencyStage`.
* :func:`compute_impacts` -- the vectorized driver behind
  :meth:`StudyResult.exceedance`: one DC load-flow cascade per distinct
  damage pattern, broadcast back over realizations, with importance
  weights carried into every aggregate.

The load-flow approximation is the existing grid substrate: storm-failed
buses are removed (:func:`~repro.grid.storm_impact.damaged_grid`), the
surviving grid re-islands and sheds under
:func:`~repro.grid.contingency.simulate_contingency`, and the unserved
megawatts (relative to pre-storm demand) are the realization's load
shed.  Loss converts shed energy at a value-of-lost-load rate and adds
per-failed-asset restoration cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.hazards.fragility import FragilityModel, ThresholdFragility

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchContext, ChainBatch
    from repro.core.chain import ChainContext
    from repro.core.system_state import SystemState
    from repro.grid.model import GridModel

__all__ = [
    "LossModel",
    "GridImpact",
    "ImpactResult",
    "ExceedanceCurve",
    "ExpectedAnnualLoss",
    "LoadShedStage",
    "EconomicLossStage",
    "compute_impacts",
]


@dataclass(frozen=True)
class LossModel:
    """Economic conversion of physical damage (deliberately simple).

    Defaults follow common planning figures: a value of lost load of
    $9,000/MWh (DOE-range for firm load), a 24 h restoration window for
    the shed energy integral, $2M average restoration cost per failed
    asset, and a 0.12/yr landfalling-storm rate for annualization.
    """

    value_of_lost_load_usd_per_mwh: float = 9_000.0
    outage_hours: float = 24.0
    restoration_cost_usd_per_asset: float = 2_000_000.0
    event_rate_per_year: float = 0.12

    def __post_init__(self) -> None:
        if min(
            self.value_of_lost_load_usd_per_mwh,
            self.outage_hours,
            self.restoration_cost_usd_per_asset,
            self.event_rate_per_year,
        ) < 0:
            raise ConfigurationError("loss model parameters cannot be negative")

    def loss_usd(self, shed_mw: float, failed_assets: int) -> float:
        energy = shed_mw * self.outage_hours
        return (
            energy * self.value_of_lost_load_usd_per_mwh
            + failed_assets * self.restoration_cost_usd_per_asset
        )


@dataclass(frozen=True)
class GridImpact:
    """One damage pattern's solved grid outcome."""

    out_buses: tuple[str, ...]
    shed_mw: float
    served_fraction: float


class _GridImpactSolver:
    """The shared per-damage-pattern DC load-flow memo."""

    def __init__(self, grid: "GridModel | None" = None) -> None:
        self._grid = grid
        self._cache: dict[frozenset[str], GridImpact] = {}

    def _materialize(self) -> "GridModel":
        if self._grid is None:
            from repro.grid.model import build_oahu_grid

            self._grid = build_oahu_grid()
        return self._grid

    def solve(self, failed: frozenset[str]) -> GridImpact:
        """Impact of one failed-asset set (memoized per bus pattern)."""
        from repro.grid.contingency import simulate_contingency
        from repro.grid.storm_impact import damaged_grid

        grid = self._materialize()
        out_buses = frozenset(name for name in failed if name in grid.buses)
        try:
            return self._cache[out_buses]
        except KeyError:
            pass
        survivor, _shed_at_damaged = damaged_grid(grid, out_buses)
        degenerate = (
            not survivor.lines
            or not survivor.generators
            or survivor.total_demand_mw == 0
        )
        if degenerate:
            served_mw = 0.0
        else:
            cascade = simulate_contingency(survivor, set(), True)
            served_mw = cascade.served_fraction * survivor.total_demand_mw
        demand = grid.total_demand_mw
        shed_mw = max(0.0, demand - served_mw)
        impact = GridImpact(
            out_buses=tuple(sorted(out_buses)),
            shed_mw=shed_mw,
            served_fraction=served_mw / demand if demand > 0 else 1.0,
        )
        self._cache[out_buses] = impact
        return impact


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExceedanceCurve:
    """A weighted survival function P(X > level) over impact levels."""

    metric: str
    levels: tuple[float, ...]
    probabilities: tuple[float, ...]

    @classmethod
    def from_samples(
        cls, values: np.ndarray, weights: np.ndarray, metric: str
    ) -> "ExceedanceCurve":
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.shape != weights.shape:
            raise AnalysisError(
                f"weights shape {weights.shape} does not match values "
                f"shape {values.shape}"
            )
        total = float(weights.sum())
        if total <= 0:
            raise AnalysisError("exceedance needs a positive total weight")
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        # Weight remaining strictly above each distinct level: the
        # reversed cumulative sum evaluated past each level's last entry.
        levels, first_index = np.unique(sorted_values, return_index=True)
        mass_at = np.add.reduceat(weights[order], first_index)
        above = total - np.cumsum(mass_at)
        return cls(
            metric=metric,
            levels=tuple(float(v) for v in levels),
            probabilities=tuple(max(0.0, float(p)) / total for p in above),
        )

    def probability_exceeding(self, level: float) -> float:
        """P(X > level), a right-continuous step function."""
        index = np.searchsorted(np.array(self.levels), level, side="right") - 1
        if index < 0:
            # Below the smallest observed value: everything exceeds it
            # unless the smallest value itself is above ``level``.
            return 1.0
        return self.probabilities[int(index)]

    def level_at_probability(self, p: float) -> float:
        """The smallest observed level whose exceedance prob is <= p."""
        if not 0.0 <= p <= 1.0:
            raise AnalysisError(f"probability must be in [0, 1], got {p}")
        for level, prob in zip(self.levels, self.probabilities):
            if prob <= p:
                return level
        return self.levels[-1]

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "levels": list(self.levels),
            "probabilities": list(self.probabilities),
        }


@dataclass(frozen=True)
class ExpectedAnnualLoss:
    """Weighted mean event loss annualized by the event rate."""

    mean_event_loss_usd: float
    ci_halfwidth_usd: float
    event_rate_per_year: float

    @property
    def eal_usd(self) -> float:
        return self.event_rate_per_year * self.mean_event_loss_usd

    @classmethod
    def from_samples(
        cls,
        losses: np.ndarray,
        weights: np.ndarray,
        event_rate_per_year: float,
        z: float = 1.96,
    ) -> "ExpectedAnnualLoss":
        losses = np.asarray(losses, dtype=float)
        weights = np.asarray(weights, dtype=float)
        total = float(weights.sum())
        if total <= 0:
            raise AnalysisError("expected annual loss needs a positive total weight")
        mean = float((weights * losses).sum() / total)
        var = float((weights**2 * (losses - mean) ** 2).sum() / total**2)
        return cls(
            mean_event_loss_usd=mean,
            ci_halfwidth_usd=z * math.sqrt(var),
            event_rate_per_year=event_rate_per_year,
        )

    def to_dict(self) -> dict:
        return {
            "mean_event_loss_usd": self.mean_event_loss_usd,
            "ci_halfwidth_usd": self.ci_halfwidth_usd,
            "event_rate_per_year": self.event_rate_per_year,
            "eal_usd": self.eal_usd,
        }


@dataclass(frozen=True)
class ImpactResult:
    """Per-realization impact arrays plus their weighted aggregates."""

    shed_mw: np.ndarray
    served_fraction: np.ndarray
    loss_usd: np.ndarray
    weights: np.ndarray
    loss_model: LossModel

    def exceedance(self, metric: str = "loss_usd") -> ExceedanceCurve:
        try:
            values = getattr(self, metric)
        except AttributeError:
            raise AnalysisError(
                f"unknown impact metric {metric!r}; choose from "
                f"['shed_mw', 'served_fraction', 'loss_usd']"
            ) from None
        return ExceedanceCurve.from_samples(values, self.weights, metric)

    def expected_annual_loss(self) -> ExpectedAnnualLoss:
        return ExpectedAnnualLoss.from_samples(
            self.loss_usd, self.weights, self.loss_model.event_rate_per_year
        )


def compute_impacts(
    ensemble,
    *,
    fragility: FragilityModel | None = None,
    weights: np.ndarray | None = None,
    grid: "GridModel | None" = None,
    loss_model: LossModel | None = None,
) -> ImpactResult:
    """Solve every realization's grid impact (one cascade per distinct
    damage pattern) and convert to economic loss."""
    from repro.grid.storm_impact import damage_pattern_groups

    loss_model = loss_model if loss_model is not None else LossModel()
    solver = _GridImpactSolver(grid)
    model = fragility if fragility is not None else ThresholdFragility()
    if not getattr(model, "deterministic", False):
        raise ConfigurationError(
            "impact computation needs a deterministic fragility model "
            "(stochastic failures have no single damage pattern per "
            "realization)"
        )
    failed = model.failure_matrix(ensemble.depth_view())
    n = failed.shape[0]
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise AnalysisError(
            f"weights shape {weights.shape} does not match ensemble "
            f"size {n}"
        )
    grid_model = solver._materialize()
    patterns, inverse = damage_pattern_groups(
        failed, ensemble.asset_names, frozenset(grid_model.buses)
    )
    shed_by_pattern = np.empty(len(patterns))
    served_by_pattern = np.empty(len(patterns))
    for p, pattern in enumerate(patterns):
        impact = solver.solve(pattern)
        shed_by_pattern[p] = impact.shed_mw
        served_by_pattern[p] = impact.served_fraction
    failed_counts = failed.sum(axis=1)
    shed = shed_by_pattern[inverse]
    loss = (
        shed * loss_model.outage_hours * loss_model.value_of_lost_load_usd_per_mwh
        + failed_counts * loss_model.restoration_cost_usd_per_asset
    )
    return ImpactResult(
        shed_mw=shed,
        served_fraction=served_by_pattern[inverse],
        loss_usd=loss,
        weights=weights,
        loss_model=loss_model,
    )


# ----------------------------------------------------------------------
# Chain stages (the "tail-risk" preset)
# ----------------------------------------------------------------------
class LoadShedStage:
    """DC load-flow load shed of the surviving grid, per realization.

    Deterministic and memoized per distinct damage pattern (the
    :class:`~repro.core.chain.InterdependencyStage` trick), so an
    ensemble pays one cascade per pattern.  Publishes
    ``ctx.extras["load_shed"]`` (a :class:`GridImpact`); never alters
    the system state, so classification is untouched.
    """

    name = "load-shed"
    deterministic = True

    def __init__(self, grid: "GridModel | None" = None) -> None:
        self._solver = _GridImpactSolver(grid)

    def apply(
        self,
        state: "SystemState | None",
        ctx: "ChainContext",
        rng: np.random.Generator | None,
    ) -> "SystemState":
        if state is None:
            state = ctx.base_state()
        failed = ctx.extras.get("failed_assets")
        if failed is None:
            failed = ctx.failed_assets(rng)
            ctx.extras["failed_assets"] = failed
        ctx.extras["load_shed"] = self._solver.solve(frozenset(failed))
        return state

    # In the fused batched pass the stage is a no-op: impact numbers for
    # batch runs come from compute_impacts / StudyResult.exceedance(),
    # keeping run_batch bitwise identical to the scalar classification.
    def apply_batch(
        self,
        batch: "ChainBatch | None",
        ctx: "BatchContext",
        rng: np.random.Generator | None,
    ) -> "ChainBatch":
        return batch if batch is not None else ctx.base_batch()


class EconomicLossStage:
    """Convert the load-shed impact into dollars, per realization.

    Requires a :class:`LoadShedStage` earlier in the chain; publishes
    ``ctx.extras["economic_loss"]`` (USD) without touching the state.
    """

    name = "economic-loss"
    deterministic = True

    def __init__(self, loss_model: LossModel | None = None) -> None:
        self.loss_model = loss_model if loss_model is not None else LossModel()

    def apply(
        self,
        state: "SystemState | None",
        ctx: "ChainContext",
        rng: np.random.Generator | None,
    ) -> "SystemState":
        if state is None:
            state = ctx.base_state()
        impact = ctx.extras.get("load_shed")
        if impact is None:
            raise ConfigurationError(
                "EconomicLossStage needs a LoadShedStage earlier in the "
                "chain (no load_shed in the context)"
            )
        failed = ctx.extras.get("failed_assets", frozenset())
        ctx.extras["economic_loss"] = self.loss_model.loss_usd(
            impact.shed_mw, len(failed)
        )
        return state

    def apply_batch(
        self,
        batch: "ChainBatch | None",
        ctx: "BatchContext",
        rng: np.random.Generator | None,
    ) -> "ChainBatch":
        return batch if batch is not None else ctx.base_batch()
