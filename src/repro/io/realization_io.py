"""Persist and reload hurricane ensembles.

Generating 1000 realizations takes seconds, but pinning the exact dataset
a result was produced from matters for reproducibility, so ensembles
round-trip through CSV: one row per realization with the storm parameters
and the inundation depth at every asset.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.errors import SerializationError
from repro.io.atomic import atomic_path
from repro.hazards.hurricane.ensemble import PARAM_COLUMNS, HurricaneEnsemble

_PARAM_COLUMNS = list(PARAM_COLUMNS)
_DEPTH_PREFIX = "depth:"


def save_ensemble_csv(ensemble: HurricaneEnsemble, path: str | Path) -> None:
    """Write an ensemble to CSV (parameters + per-asset depths)."""
    path = Path(path)
    asset_names = ensemble.asset_names
    header = ["index", "scenario", "seed"] + _PARAM_COLUMNS + [
        f"{_DEPTH_PREFIX}{name}" for name in asset_names
    ]
    with atomic_path(path) as tmp:
        with tmp.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            seed = ensemble.seed if ensemble.seed is not None else ""
            params = ensemble.param_view().tolist()
            depths_by_row = ensemble.depth_view().tolist()
            for index, (p, depths) in enumerate(zip(params, depths_by_row)):
                row = [index, ensemble.scenario_name, seed]
                row += [f"{v:.6f}" for v in p[:2]] + [f"{v:.4f}" for v in p[2:]]
                row += [f"{d:.6f}" for d in depths]
                writer.writerow(row)


def load_ensemble_csv(path: str | Path) -> HurricaneEnsemble:
    """Reload an ensemble written by :func:`save_ensemble_csv`."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such ensemble file: {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SerializationError(f"{path} is empty") from None
        expected_prefix = ["index", "scenario", "seed"] + _PARAM_COLUMNS
        if header[: len(expected_prefix)] != expected_prefix:
            raise SerializationError(f"{path} does not look like an ensemble CSV")
        asset_names = [
            column[len(_DEPTH_PREFIX):]
            for column in header[len(expected_prefix):]
            if column.startswith(_DEPTH_PREFIX)
        ]
        if not asset_names:
            raise SerializationError(f"{path} has no asset depth columns")

        rows: list[list[float]] = []
        scenario_name = ""
        seed: int | None = None
        width = len(_PARAM_COLUMNS) + len(asset_names)
        for row in reader:
            if not row:
                continue
            try:
                index = int(row[0])
                scenario_name = row[1]
                seed = int(row[2]) if row[2] else None
                values = [float(v) for v in row[3:]]
            except (ValueError, IndexError) as exc:
                raise SerializationError(f"malformed row in {path}: {row}") from exc
            if len(values) < width:
                raise SerializationError(f"row {index} in {path} is truncated")
            rows.append(values[:width])
    if not rows:
        raise SerializationError(f"{path} contains no realizations")
    table = np.array(rows)
    n_params = len(_PARAM_COLUMNS)
    return HurricaneEnsemble(
        scenario_name,
        np.ascontiguousarray(table[:, n_params:]),
        asset_names,
        seed,
        np.ascontiguousarray(table[:, :n_params]),
    )
