"""Cycle-level, event-driven simulation kernel."""

from .engine import Event, SimulationError, Simulator
from .component import Component
from .process import (
    Access,
    Burst,
    Compute,
    Fence,
    Operation,
    ProcessState,
    Yield,
    count_bytes,
    run_functional,
)
from .stats import Accumulator, Counter, Histogram, Scalar, StatsRegistry, merge_snapshots

__all__ = [
    "Access",
    "Accumulator",
    "Burst",
    "Component",
    "Compute",
    "Counter",
    "Event",
    "Fence",
    "Histogram",
    "Operation",
    "ProcessState",
    "Scalar",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "Yield",
    "count_bytes",
    "merge_snapshots",
    "run_functional",
]
