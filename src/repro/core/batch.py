"""Fused batched execution of the threat chain (the hot-path kernels).

The per-realization executor (:meth:`~repro.core.chain.ThreatChain.run`)
makes one Python pass per realization; this module holds the structures
the *batched* executor uses to evaluate the whole (realization x asset)
grid in a handful of numpy passes: fragility thresholds as one matrix
comparison, the grid/WAN cascade as one coupling call per *distinct*
damage pattern, the worst-case attack as a vectorized greedy sweep
(:meth:`~repro.core.attacker.WorstCaseAttacker.attack_batch`), and
Table I as a vectorized rule table
(:func:`~repro.core.evaluator.evaluate_batch`).

Correctness contract: the batched path must be **bitwise identical** to
looping ``run`` over the ensemble.  Everything here is a straight
vectorization of the scalar code in :mod:`repro.core.evaluator`,
:mod:`repro.core.attacker`, and :mod:`repro.core.chain` -- never a
re-derivation -- and ``tests/core/test_batch_properties.py`` compares
the two element-wise across randomized thresholds, attackers, and asset
sets for every registered preset.

Stochastic stages batch too, under the **RNG-draw contract**: every
stochastic model consumes a *fixed number* of uniform draws per
realization (``rng.random(shape)``, never data-dependent), so the
per-realization loop's interleaved stream is fixed-stride and the
batched executor can replay it exactly -- one
``rng.random((n_realizations, total_draws))`` matrix draw fills
row-major, which is the same generator stream as ``n`` successive
per-realization draws, and each stage reads its column block.  Stages
declare their capability (and per-realization draw count) through
:class:`BatchSupport`; :meth:`~repro.core.chain.ThreatChain.batch_plan`
folds the declarations into a :class:`ChainBatchPlan` the executor and
the pipeline's executor selection consult.  A stage whose model cannot
honor the contract declines with a reason, and the analysis falls back
to the per-realization executor (counter ``batch.fallback``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.evaluator import evaluate_batch
from repro.core.system_state import SiteStatus, SystemState
from repro.core.threat import ThreatScenario
from repro.errors import AnalysisError
from repro.hazards.fragility import FragilityModel
from repro.scada.architectures import ArchitectureSpec
from repro.scada.placement import Placement

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle guard)
    from repro.core.chain import Attacker

__all__ = [
    "BatchSupport",
    "ChainBatchPlan",
    "ChainBatch",
    "BatchContext",
    "model_token",
    "classify_batch",
]


@dataclass(frozen=True)
class BatchSupport:
    """One stage's batch-capability declaration for a specific context.

    ``ok`` says whether the stage can run the fused pass, ``reason``
    names the obstacle when it cannot (surfaced through the
    ``batch.fallback`` counter and event), and
    ``draws`` declares how many uniform rng doubles one *scalar*
    application of the stage consumes per realization -- the stage's
    stride in the RNG-draw contract (0 for deterministic stages).
    """

    ok: bool
    reason: str | None = None
    draws: int = 0


@dataclass(frozen=True)
class ChainBatchPlan:
    """A whole chain's batch verdict plus its per-stage draw layout.

    Built by :meth:`~repro.core.chain.ThreatChain.batch_plan` from the
    stages' :class:`BatchSupport` declarations.  ``stage_draws[i]`` is
    stage ``i``'s per-realization draw count; the executor materializes
    the scalar loop's whole stream as one
    ``rng.random((n_realizations, total_draws))`` matrix (row-major
    fill == per-realization draw order) and hands each stage its
    column block.
    """

    ok: bool
    reason: str | None = None
    stage_draws: tuple[int, ...] = ()
    #: Name of the declining stage when ``not ok`` (None when the whole
    #: context is unusable, e.g. no depth grid); keys the per-reason
    #: ``batch.fallback.reason.*`` counter split.
    stage: str | None = None

    @property
    def total_draws(self) -> int:
        """Uniform doubles one realization consumes across the chain."""
        return sum(self.stage_draws)

    def draw_blocks(
        self, n_realizations: int, rng: np.random.Generator | None
    ) -> tuple[np.ndarray | None, ...]:
        """Per-stage draw blocks replaying the scalar stream exactly.

        One ``rng.random((n, total))`` draw consumes the identical
        PCG64 stream as ``n`` successive per-realization scalar draws
        (numpy fills C-contiguous row-major), so slicing row ``r``'s
        columns reproduces realization ``r``'s draws bit for bit.
        """
        total = self.total_draws
        if total == 0:
            return tuple(None for _ in self.stage_draws)
        if rng is None:
            raise AnalysisError(
                f"chain draw plan needs an rng: stages consume "
                f"{total} stochastic draws per realization"
            )
        matrix = rng.random((n_realizations, total))
        blocks: list[np.ndarray | None] = []
        offset = 0
        for count in self.stage_draws:
            blocks.append(matrix[:, offset : offset + count] if count else None)
            offset += count
        return tuple(blocks)


def model_token(model: object) -> object:
    """A dict key identifying a model instance for memoization.

    Hashable models (the library's frozen dataclasses) key by value, so
    two equal thresholds share one failure matrix; unhashable models
    fall back to identity.
    """
    try:
        hash(model)
    except TypeError:
        return id(model)
    return model


@dataclass(frozen=True, eq=False)
class ChainBatch:
    """The batched analogue of a :class:`SystemState` mid-chain.

    All site arrays are aligned ``(n_realizations, n_sites)`` grids in
    the architecture's slot order.  ``failed`` is the hazard stage's
    ``(n_realizations, n_assets)`` failed-asset grid handed downstream
    (the batched analogue of ``ctx.extras["failed_assets"]``); it is
    ``None`` until a hazard stage runs.  ``classified`` is set by a
    classification stage: ``(n_realizations,)`` severity codes indexing
    :data:`~repro.core.states.STATE_ORDER`.
    """

    flooded: np.ndarray
    isolated: np.ndarray
    intrusions: np.ndarray
    failed: np.ndarray | None = None
    classified: np.ndarray | None = None

    def replace(self, **changes: object) -> "ChainBatch":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


class BatchContext:
    """Everything one batched chain run can read.

    The per-cell analogue of :class:`~repro.core.chain.ChainContext`:
    one is built per (architecture, placement, scenario) cell, wrapping
    the ensemble's full ``(n_realizations, n_assets)`` depth matrix
    instead of one realization.  ``matrix_cache`` is an externally owned
    memo (model token -> failure matrix) the pipeline shares across
    cells, so an ensemble pays one fragility pass per distinct model.
    ``stage_seconds`` accumulates each stage's wall-clock by name across
    :meth:`~repro.core.chain.ThreatChain.run_batch` calls.
    """

    __slots__ = (
        "architecture",
        "placement",
        "scenario",
        "fragility",
        "attacker",
        "asset_names",
        "depths",
        "site_names",
        "draws",
        "stage_seconds",
        "_site_columns",
        "_matrix_cache",
    )

    def __init__(
        self,
        architecture: ArchitectureSpec,
        placement: Placement,
        scenario: ThreatScenario,
        *,
        fragility: FragilityModel,
        attacker: "Attacker",
        asset_names: list[str],
        depths: np.ndarray,
        matrix_cache: dict[object, np.ndarray] | None = None,
    ) -> None:
        self.architecture = architecture
        self.placement = placement
        self.scenario = scenario
        self.fragility = fragility
        self.attacker = attacker
        self.asset_names = list(asset_names)
        self.depths = depths
        self.site_names = placement.sites_for(architecture)
        columns = {name: i for i, name in enumerate(self.asset_names)}
        # A placed site absent from the hazard catalog never floods --
        # exactly as a name missing from a failed-asset set.
        self._site_columns = tuple(columns.get(n) for n in self.site_names)
        self._matrix_cache = {} if matrix_cache is None else matrix_cache
        #: The executor assigns the current stage's uniform draw block
        #: ((n_realizations, stage_draws) or ``None``) here immediately
        #: before each ``apply_batch`` call -- the batched analogue of
        #: handing the shared generator down the scalar chain.
        self.draws: np.ndarray | None = None
        self.stage_seconds: dict[str, float] = {}

    @property
    def n_realizations(self) -> int:
        return int(self.depths.shape[0])

    def failure_matrix(self, model: FragilityModel | None = None) -> np.ndarray:
        """The (memoized) failed-asset grid under ``model``.

        ``None`` selects the analysis-level fragility model, mirroring
        how stages built without their own model inherit the context's.
        """
        resolved = model if model is not None else self.fragility
        token = model_token(resolved)
        try:
            return self._matrix_cache[token]
        except KeyError:
            pass
        matrix = resolved.failure_matrix(self.depths)
        self._matrix_cache[token] = matrix
        return matrix

    def probability_matrix(self, model: FragilityModel | None = None) -> np.ndarray:
        """The (memoized) failure-probability grid under ``model``.

        The stochastic counterpart of :meth:`failure_matrix`: a pure
        function of the depth grid (no draws), so it shares the same
        externally owned memo across matrix cells -- each cell then
        samples its own fresh draw block against it.  The sampled
        boolean outcomes are never cached (they depend on the cell's
        rng stream).
        """
        resolved = model if model is not None else self.fragility
        token = ("probability", model_token(resolved))
        try:
            return self._matrix_cache[token]
        except KeyError:
            pass
        matrix = resolved.probability_matrix(self.depths)
        self._matrix_cache[token] = matrix
        return matrix

    def flooded_sites(self, failed: np.ndarray) -> np.ndarray:
        """Map a failed-asset grid onto the placed site slots."""
        out = np.zeros((self.n_realizations, len(self.site_names)), dtype=bool)
        for j, col in enumerate(self._site_columns):
            if col is not None:
                out[:, j] = failed[:, col]
        return out

    def fresh_batch(self, failed: np.ndarray) -> ChainBatch:
        """The batched ``initial_state``: flooded sites, nothing else."""
        shape = (self.n_realizations, len(self.site_names))
        return ChainBatch(
            flooded=self.flooded_sites(failed),
            isolated=np.zeros(shape, dtype=bool),
            intrusions=np.zeros(shape, dtype=np.int64),
            failed=failed,
        )

    def base_batch(self) -> ChainBatch:
        """The batched ``base_state``: untouched by any hazard."""
        shape = (self.n_realizations, len(self.site_names))
        return ChainBatch(
            flooded=np.zeros(shape, dtype=bool),
            isolated=np.zeros(shape, dtype=bool),
            intrusions=np.zeros(shape, dtype=np.int64),
        )

    def state_from_rows(
        self,
        flooded: np.ndarray,
        isolated: np.ndarray,
        intrusions: np.ndarray,
    ) -> SystemState:
        """One row of the grid as a scalar :class:`SystemState`."""
        sites = tuple(
            SiteStatus(
                asset_name=name,
                spec=spec,
                flooded=bool(flooded[j]),
                isolated=bool(isolated[j]),
                intrusions=int(intrusions[j]),
            )
            for j, (name, spec) in enumerate(
                zip(self.site_names, self.architecture.sites)
            )
        )
        return SystemState(self.architecture, sites)


def _replay_attack_batch(
    attacker: "Attacker", ctx: BatchContext, batch: ChainBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Batch any *deterministic* attacker by per-pattern replay.

    A deterministic attacker is a pure function of ``(state, budget)``,
    and the (flooded, isolated, intrusions) grid has far fewer distinct
    rows than realizations; run the scalar attack once per distinct row
    and scatter the results.  Used for custom deterministic attackers
    without their own ``attack_batch``.
    """
    n_sites = len(ctx.site_names)
    key = np.hstack(
        [
            batch.flooded.astype(np.int64),
            batch.isolated.astype(np.int64),
            batch.intrusions.astype(np.int64),
        ]
    )
    patterns, inverse = np.unique(key, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    iso_out = np.zeros((len(patterns), n_sites), dtype=bool)
    intr_out = np.zeros((len(patterns), n_sites), dtype=np.int64)
    budget = ctx.scenario.budget
    for p, row in enumerate(patterns):
        state = ctx.state_from_rows(
            row[:n_sites] != 0,
            row[n_sites : 2 * n_sites] != 0,
            row[2 * n_sites :],
        )
        attacked = attacker.attack(state, budget, None)
        for j, site in enumerate(attacked.sites):
            iso_out[p, j] = site.isolated
            intr_out[p, j] = site.intrusions
    return iso_out[inverse], intr_out[inverse]


def classify_batch(ctx: BatchContext, batch: ChainBatch) -> np.ndarray:
    """Severity codes for every realization of a finished batch."""
    return evaluate_batch(
        ctx.architecture, batch.flooded, batch.isolated, batch.intrusions
    )
