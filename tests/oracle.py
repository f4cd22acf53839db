"""The per-realization oracle every executor comparison checks against.

A plain loop of :meth:`~repro.core.chain.ThreatChain.run` over the
ensemble, with one fresh ``default_rng(seed)`` per (architecture,
scenario) cell -- the stream the pipeline hands each cell.  It shares
no code with :class:`~repro.core.pipeline.CompoundThreatAnalysis`'s
executor selection, so a batched result that equals it is evidence, not
the pipeline agreeing with itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.chain import ChainContext, resolve_chain
from repro.core.outcomes import OperationalProfile, ScenarioMatrix


def oracle_states(
    ensemble,
    architecture,
    placement,
    scenario,
    *,
    chain=None,
    fragility=None,
    attacker=None,
    seed: int = 0,
):
    """Each realization's operational state, in ensemble order."""
    chain = resolve_chain(chain)
    ctx = ChainContext(
        architecture, placement, scenario, fragility=fragility, attacker=attacker
    )
    rng = np.random.default_rng(seed)
    states = []
    for realization in ensemble:
        ctx.realization = realization
        states.append(chain.run(ctx, rng).state)
    return states


def oracle_profile(ensemble, architecture, placement, scenario, **kwargs):
    """One cell's :class:`OperationalProfile` through the oracle."""
    return OperationalProfile.from_states(
        oracle_states(ensemble, architecture, placement, scenario, **kwargs)
    )


def oracle_matrix(ensemble, architectures, placement, scenarios, **kwargs):
    """A whole :class:`ScenarioMatrix` through the oracle."""
    matrix = ScenarioMatrix(placement_label=placement.label())
    for scenario in scenarios:
        for architecture in architectures:
            matrix.add(
                scenario.name,
                architecture.name,
                oracle_profile(ensemble, architecture, placement, scenario, **kwargs),
            )
    return matrix
