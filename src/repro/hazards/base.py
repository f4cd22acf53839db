"""Hazard-agnostic interfaces consumed by the analysis pipeline.

The compound threat model is generic in the natural disaster (paper
Section III-B): the pipeline only needs, per realization, *which assets
failed*.  Any hazard that yields realizations with a ``failed_assets``
method and an index therefore plugs in -- the hurricane ensemble is the
paper's case study, the earthquake ensemble demonstrates the generality.

Every family's ensemble is a :class:`MatrixEnsemble`: the ``(R x A)``
intensity matrix plus a per-row parameter table, with realizations as
lazy row views over it.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import HazardError
from repro.hazards.fragility import FragilityModel, ThresholdFragility


@runtime_checkable
class HazardRealization(Protocol):
    """One sampled disaster outcome."""

    index: int

    def failed_assets(
        self,
        fragility: FragilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        """Asset names rendered non-operational in this realization."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class HazardEnsemble(Protocol):
    """An ordered collection of hazard realizations."""

    def __len__(self) -> int:
        ...  # pragma: no cover - protocol

    def __iter__(self) -> Iterator[HazardRealization]:
        ...  # pragma: no cover - protocol


@runtime_checkable
class Hazard(Protocol):
    """A hazard family's ensemble generator.

    Every hazard family (hurricane surge, earthquake shaking, riverine
    flooding, ...) exposes the same four capabilities so the study
    facade, sweep engine, and ensemble cache can treat them uniformly:

    * ``generate(count, seed, ...)`` -- sample ``count`` realizations
      into a :class:`HazardEnsemble`.  Implementations accept (and may
      ignore) the delivery keywords ``n_jobs``, ``cache_dir``,
      ``resume``, ``retry``, and ``faults`` so callers never need to
      know whether generation is parallel or cached.
    * per-asset intensity sampling -- the returned ensemble exposes
      ``depth_matrix()``/``depth_view()`` (the family's intensity
      measure: inundation depth, PGA, flood stage) for the batched
      executor and fragility models.
    * ``cache_key(count, seed)`` -- a content hash covering the scenario
      parameters *and* the geography they act on, so two generators
      share cached ensembles iff they would generate identical data.
    * ``deterministic`` -- True when ``generate`` is a pure function of
      ``(count, seed)``; lets schedulers cache/regenerate freely.
    """

    deterministic: bool

    def generate(
        self,
        count: int,
        seed: int,
        **delivery: object,
    ) -> HazardEnsemble:
        """Sample ``count`` realizations deterministically from ``seed``."""
        ...  # pragma: no cover - protocol

    def cache_key(self, count: int, seed: int) -> str:
        """Content hash identifying the generated ensemble."""
        ...  # pragma: no cover - protocol


class RowMapping(Mapping[str, float]):
    """One ensemble row as a read-only ``{asset name: value}`` mapping.

    A view, not a copy: it holds the matrix row (itself a numpy view)
    and the ensemble's shared name -> column index.  Values come back as
    Python floats with exactly the matrix's bits, and iteration follows
    the column order, which the fragility RNG-draw contract relies on.
    """

    __slots__ = ("_row", "_columns")

    def __init__(self, row: np.ndarray, columns: Mapping[str, int]) -> None:
        self._row = row
        self._columns = columns

    def __getitem__(self, name: str) -> float:
        return float(self._row[self._columns[name]])

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def items(self) -> "_RowItems":
        return _RowItems(self)

    def __repr__(self) -> str:
        return f"RowMapping({dict(self.items())!r})"


class _RowItems(ItemsView):
    """``(name, value)`` pairs of a row, converted in one ``tolist`` pass."""

    def __iter__(self) -> Iterator[tuple[str, float]]:
        row = self._mapping  # type: ignore[attr-defined]
        return zip(row._columns, row._row.tolist())


class Realization:
    """A row of a :class:`MatrixEnsemble` that carries no parameters."""

    __slots__ = ("index", "depths_m")

    def __init__(self, index: int, depths_m: Mapping[str, float]) -> None:
        self.index = index
        self.depths_m = depths_m

    def depth_at(self, asset_name: str) -> float:
        return self.depths_m[asset_name]

    def failed_assets(
        self,
        fragility: FragilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> frozenset[str]:
        model = fragility or ThresholdFragility()
        return model.failed_assets(self.depths_m, rng)


class MatrixEnsemble:
    """A hazard ensemble held as its ``(R x A)`` float64 intensity matrix.

    Every hazard family stores its ensemble this way: row ``r`` is
    realization ``r``, column ``a`` is asset ``asset_names[a]``, and the
    value is the family's intensity measure (inundation depth, PGA).
    ``params`` is a per-row parameter table whose columns a subclass
    names in :attr:`param_columns`.  The batched executor reads
    :meth:`depth_view` in place; realizations are row views built only
    when a caller iterates or indexes, so they never copy the matrix.
    ``owner`` pins whatever backs ``depths`` (a shared-memory segment)
    for the ensemble's lifetime.
    """

    #: Names of the parameter table's columns; subclasses add theirs.
    param_columns: tuple[str, ...] = ()

    def __init__(
        self,
        scenario_name: str,
        depths: np.ndarray,
        asset_names: Sequence[str],
        seed: int | None = None,
        params: np.ndarray | None = None,
        *,
        owner: object | None = None,
    ) -> None:
        names = list(asset_names)
        if depths.ndim != 2 or depths.shape[1] != len(names):
            raise HazardError(
                f"depth matrix shape {depths.shape} does not match "
                f"{len(names)} asset names"
            )
        if depths.shape[0] < 1:
            raise HazardError("ensemble must contain at least one realization")
        if params is None:
            if self.param_columns:
                raise HazardError(
                    f"{type(self).__name__} needs its parameter table "
                    f"{self.param_columns}"
                )
            params = np.empty((depths.shape[0], 0))
        if params.shape != (depths.shape[0], len(self.param_columns)):
            raise HazardError(
                f"parameter table shape {params.shape} does not match "
                f"{depths.shape[0]} rows x {len(self.param_columns)} columns"
            )
        self.scenario_name = scenario_name
        self.seed = seed
        self._depths = depths
        self._params = params
        self._names = names
        self._columns = {name: i for i, name in enumerate(names)}
        self._owner = owner

    @property
    def asset_names(self) -> list[str]:
        return list(self._names)

    def depth_view(self) -> np.ndarray:
        """The backing (R x A) matrix itself; treat it as read-only."""
        return self._depths

    def depth_matrix(self) -> np.ndarray:
        """A private copy of the (R x A) matrix."""
        return np.array(self._depths)

    def param_view(self) -> np.ndarray:
        """The backing (R x P) parameter table; treat it as read-only."""
        return self._params

    def param_column(self, name: str) -> np.ndarray:
        """One named column of the parameter table."""
        try:
            return self._params[:, self.param_columns.index(name)]
        except ValueError:
            raise HazardError(
                f"{type(self).__name__} has no parameter column {name!r}"
            ) from None

    def __len__(self) -> int:
        return int(self._depths.shape[0])

    def __iter__(self) -> Iterator[HazardRealization]:
        for index in range(len(self)):
            yield self._realization(index)

    def __getitem__(self, index: int) -> HazardRealization:
        return self._realization(range(len(self))[index])

    @property
    def realizations(self) -> tuple[HazardRealization, ...]:
        """Every row view, in index order."""
        return tuple(self)

    def _row(self, index: int) -> RowMapping:
        return RowMapping(self._depths[index], self._columns)

    def _realization(self, index: int) -> HazardRealization:
        """Row ``index`` as a realization; subclasses add their parameters."""
        return Realization(index, self._row(index))

    def _certain_failures(
        self, names: Sequence[str], model: FragilityModel
    ) -> np.ndarray:
        """(R x len(names)) mask: the named assets fail with probability 1."""
        try:
            cols = [self._columns[name] for name in names]
        except KeyError as exc:
            raise HazardError(f"no intensity data for asset {exc.args[0]!r}") from None
        return model.probability_matrix(self._depths[:, cols]) >= 1.0

    def subset(self, count: int) -> "MatrixEnsemble":
        """The first ``count`` realizations (for convergence studies)."""
        if not 1 <= count <= len(self):
            raise HazardError(f"subset size {count} outside [1, {len(self)}]")
        return type(self)(
            self.scenario_name,
            self._depths[:count],
            self._names,
            self.seed,
            self._params[:count],
            owner=self._owner,
        )
