"""Asset fragility: when does inundation take an asset out of service?

The paper assumes an asset fails when peak inundation exceeds 0.5 m (2 ft),
the typical switch height in power plants and substations.  That threshold
rule is the default here; a probabilistic depth-damage curve is provided as
an extension for sensitivity studies.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import HazardError

PAPER_FAILURE_THRESHOLD_M = 0.5


class FragilityModel(abc.ABC):
    """Maps inundation depth at an asset to a failure outcome.

    Stochastic models follow the **RNG-draw contract** (see
    ``docs/architecture.md``): one :meth:`failed_assets` call consumes
    exactly one ``rng.random(len(depths_m))`` vector draw, with asset
    ``i`` (in mapping order) compared against draw ``i``.  Because the
    per-realization draw count is a fixed function of the asset set, the
    batched executor can replay the exact same generator stream with a
    single ``rng.random((n_realizations, n_assets))`` matrix draw and
    stay bitwise-identical to the scalar loop.
    """

    #: True when :meth:`failed_assets` is a pure function of the depths --
    #: no rng draws ever -- so callers may compute it once per realization
    #: and reuse the result (see ``CompoundThreatAnalysis.run_matrix``).
    deterministic: bool = False

    #: True when the model honors the RNG-draw contract above, i.e.
    #: :meth:`failed_assets` draws exactly ``rng.random(len(depths_m))``
    #: and :meth:`sample_failure_matrix` consumes the matching matrix
    #: draw.  A subclass that overrides :meth:`failed_assets` with its
    #: own rng consumption pattern must set this False so the batched
    #: executor declines it instead of silently diverging.
    batch_sampling: bool = True

    @abc.abstractmethod
    def failure_probability(self, depth_m: float) -> float:
        """Probability the asset fails at the given inundation depth."""

    def fails(self, depth_m: float, rng: np.random.Generator | None = None) -> bool:
        """Sample (or decide deterministically) whether the asset fails."""
        p = self.failure_probability(depth_m)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        if rng is None:
            raise HazardError(
                "probabilistic fragility model requires an rng to sample outcomes"
            )
        return bool(rng.random() < p)

    def failed_assets(
        self,
        depths_m: Mapping[str, float],
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        """The set of asset names that fail under this model.

        Deterministic models never touch the rng.  Stochastic models
        with an rng consume exactly one ``rng.random(len(depths_m))``
        vector draw -- asset ``i`` in mapping order against draw ``i``,
        whatever its probability -- so the draw count per realization is
        fixed and the batched executor can replay the stream (the
        RNG-draw contract).  Without an rng the per-asset path applies,
        raising :class:`HazardError` on the first probability strictly
        between 0 and 1.
        """
        if self.deterministic or rng is None:
            return frozenset(
                name for name, depth in depths_m.items() if self.fails(depth, rng)
            )
        draws = rng.random(len(depths_m))
        return frozenset(
            name
            for (name, depth), u in zip(depths_m.items(), draws)
            if u < self.failure_probability(depth)
        )

    def probability_matrix(self, depths: np.ndarray) -> np.ndarray:
        """Failure probabilities over a (realization x asset) depth grid.

        Routes every cell through the scalar :meth:`failure_probability`
        (deduplicated over the distinct depths, which repeat heavily --
        most assets stay dry), so the grid carries the exact same
        float64 values the scalar path compares against.  A numpy
        re-derivation could differ by 1 ulp and flip a ``u < p``
        comparison, breaking the bitwise-identity bar.
        """
        unique, inverse = np.unique(depths, return_inverse=True)
        probs = np.fromiter(
            (self.failure_probability(float(d)) for d in unique), float, unique.size
        )
        # return_inverse shape varies across numpy releases; normalize.
        return probs[np.asarray(inverse).reshape(-1)].reshape(depths.shape)

    def sample_failure_matrix(
        self,
        depths: np.ndarray,
        draws: np.ndarray,
        probabilities: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized stochastic sampling under the RNG-draw contract.

        ``draws`` is the ``(n_realizations, n_assets)`` uniform block
        the executor drew for this stage; row ``r`` holds the same
        stream values the scalar loop's realization-``r``
        ``rng.random(n_assets)`` draw would, so ``draws < p`` is
        bitwise-identical to looping :meth:`failed_assets`.
        ``probabilities`` optionally passes a precomputed (memoized)
        :meth:`probability_matrix` for the same depth grid.
        """
        if draws.shape != depths.shape:
            raise HazardError(
                f"draw block shape {draws.shape} does not match "
                f"depth grid shape {depths.shape}"
            )
        p = (
            probabilities
            if probabilities is not None
            else self.probability_matrix(depths)
        )
        return draws < p

    def failure_matrix(self, depths: np.ndarray) -> np.ndarray:
        """Vectorized failure mask over a (realization x asset) depth grid.

        The batched executor's fragility pass: one boolean per cell,
        bitwise-identical to calling :meth:`fails` on each depth.  Only
        defined for deterministic outcomes -- a probability strictly
        between 0 and 1 would need an rng draw per cell, so it raises
        :class:`HazardError` exactly as :meth:`fails` does without an
        rng (and the batched path falls back to per-realization
        execution for models whose ``deterministic`` flag is False).
        """
        probs = self.probability_matrix(depths)
        if bool(np.any((probs > 0.0) & (probs < 1.0))):
            raise HazardError(
                "probabilistic fragility model requires an rng to sample outcomes"
            )
        return probs >= 1.0


@dataclass(frozen=True)
class ThresholdFragility(FragilityModel):
    """The paper's rule: fail iff depth exceeds the switch height."""

    deterministic = True

    threshold_m: float = PAPER_FAILURE_THRESHOLD_M

    def __post_init__(self) -> None:
        if self.threshold_m < 0.0:
            raise HazardError("fragility threshold cannot be negative")

    def failure_probability(self, depth_m: float) -> float:
        return 1.0 if depth_m > self.threshold_m else 0.0

    def failure_matrix(self, depths: np.ndarray) -> np.ndarray:
        """One fused comparison; same bits as the per-depth rule."""
        return depths > self.threshold_m


@dataclass(frozen=True)
class LogisticFragility(FragilityModel):
    """Smooth depth-damage curve: P(fail) = sigmoid(steepness*(d - midpoint)).

    An extension used by the threshold-sensitivity ablation; with high
    steepness it converges to :class:`ThresholdFragility`.
    """

    midpoint_m: float = PAPER_FAILURE_THRESHOLD_M
    steepness_per_m: float = 8.0

    def __post_init__(self) -> None:
        if self.midpoint_m < 0.0:
            raise HazardError("fragility midpoint cannot be negative")
        if self.steepness_per_m <= 0.0:
            raise HazardError("fragility steepness must be positive")

    def failure_probability(self, depth_m: float) -> float:
        x = self.steepness_per_m * (depth_m - self.midpoint_m)
        # Stable logistic.
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        z = math.exp(x)
        return z / (1.0 + z)
