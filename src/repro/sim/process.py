"""Generator-based simulated processes.

Accelerator kernels and software actors are written as Python generators that
yield *operations* — compute delays, memory accesses, barriers — and are
resumed by their driving component when the operation completes.  This gives
the flexibility of process-based simulation (like hardware threads described
in C for HLS) while keeping the event count proportional to the number of
operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Optional


class Operation:
    """Base class for values a kernel generator may yield."""

    __slots__ = ()


@dataclass
class Compute(Operation):
    """Occupy the datapath for ``cycles`` cycles (no memory traffic)."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("compute cycles must be non-negative")


@dataclass
class Access(Operation):
    """A single memory access of ``size`` bytes at virtual address ``addr``."""

    addr: int
    size: int = 4
    is_write: bool = False
    tag: Optional[str] = None


@dataclass
class Burst(Operation):
    """A burst of ``count`` consecutive accesses of ``size`` bytes each.

    Bursts model the accelerator's AXI burst engine: a single bus transaction
    moving ``count * size`` bytes starting at ``addr``.  The MMU translates
    the burst page-by-page, so bursts may still incur several TLB lookups if
    they cross page boundaries.
    """

    addr: int
    count: int
    size: int = 4
    is_write: bool = False
    tag: Optional[str] = None

    @property
    def total_bytes(self) -> int:
        return self.count * self.size


@dataclass
class Fence(Operation):
    """Wait until all outstanding memory operations of the thread retire."""


@dataclass
class Yield(Operation):
    """Yield the datapath for one cycle (used by cooperative models)."""


@dataclass
class Spawn(Operation):
    """Request that the runtime start another process (software model only)."""

    target: Any = None


KernelGenerator = Generator[Operation, Any, None]


@dataclass
class ProcessState:
    """Bookkeeping for a running generator-based process."""

    generator: KernelGenerator
    finished: bool = False
    started_at: int = 0
    finished_at: Optional[int] = None
    ops_executed: int = 0
    on_finish: List[Callable[["ProcessState"], None]] = field(default_factory=list)

    def advance(self) -> Optional[Operation]:
        """Resume the generator; return the next operation or None if done."""
        if self.finished:
            return None
        try:
            op = next(self.generator)
        except StopIteration:
            self.finished = True
            return None
        self.ops_executed += 1
        return op

    def finish(self, cycle: int) -> None:
        self.finished = True
        self.finished_at = cycle
        for hook in self.on_finish:
            hook(self)


def run_functional(generator: KernelGenerator) -> List[Operation]:
    """Exhaust a kernel generator without timing, returning its operations.

    Used by tests and by the workload characterisation harness (Table 2) to
    inspect the access pattern a kernel produces without simulating it.
    """
    ops: List[Operation] = []
    state = ProcessState(generator)
    while True:
        op = state.advance()
        if op is None:
            break
        ops.append(op)
    return ops


def count_bytes(ops: Iterable[Operation]) -> int:
    """Total bytes moved by the memory operations in ``ops``."""
    total = 0
    for op in ops:
        if isinstance(op, Access):
            total += op.size
        elif isinstance(op, Burst):
            total += op.total_bytes
    return total
