"""Adaptive design-space exploration: explorer backends and objectives.

Every exploration, the classic grid of :mod:`repro.core.dse` included, runs
an :class:`Explorer` backend over an index-addressed :class:`DesignSpace`.
The grid is the ``exhaustive`` backend; a budgeted, telemetry-objective
search (successive halving over a fidelity ladder, warm-started from the
results store) is ``explore(explorer="successive-halving", budget=...)``.
"""

from .explorer import (
    BudgetExhaustedError,
    Coords,
    DesignSpace,
    ExhaustiveExplorer,
    Exploration,
    ExplorationPoint,
    Explorer,
    FidelityRung,
    SuccessiveHalvingExplorer,
    explorer_names,
    get_explorer,
    pareto_points,
    register_explorer,
)
from .objectives import MAXIMIZE_AXES, DseObjectives, evaluation_metrics

__all__ = [
    "BudgetExhaustedError",
    "Coords",
    "DesignSpace",
    "DseObjectives",
    "ExhaustiveExplorer",
    "Exploration",
    "ExplorationPoint",
    "Explorer",
    "FidelityRung",
    "MAXIMIZE_AXES",
    "SuccessiveHalvingExplorer",
    "evaluation_metrics",
    "explorer_names",
    "get_explorer",
    "pareto_points",
    "register_explorer",
]
