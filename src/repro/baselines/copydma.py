"""Copy-based (DMA) accelerator baseline.

This is the conventional way of attaching an accelerator without shared
virtual memory, and the paper's main comparison point: the host allocates a
physically contiguous DMA buffer, *copies* the input data into it, starts the
accelerator (which addresses the buffer physically), waits, and copies the
results back into the application's heap.

The end-to-end time therefore decomposes into

    alloc + copy-in + fabric compute + copy-out

and the copy terms grow with the data footprint regardless of how much of it
the accelerator actually touches — which is exactly the regime where SVM
hardware threads win (Fig. 9 crossover).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.platform import Platform
from ..sim.process import KernelGenerator
from .common import FabricRunResult, run_physically_addressed


@dataclass(frozen=True)
class CopyModelConfig:
    """Cost model of the host-driven marshalling copies."""

    #: Sustained memcpy throughput of the host core in bytes per *host* cycle
    #: (a Cortex-A9-class core copying through the cache hierarchy).
    copy_bytes_per_host_cycle: float = 1.6
    #: Fixed per-copy software overhead (cache maintenance, descriptor setup),
    #: in host cycles.
    per_copy_overhead_host_cycles: int = 4_000
    #: Per-item cost of serialising pointer-based structures into the DMA
    #: buffer (pointer fix-up, index rewriting), in host cycles.  Only applies
    #: to items the workload flags as needing marshalling.
    marshal_host_cycles_per_item: int = 60

    def __post_init__(self) -> None:
        if self.copy_bytes_per_host_cycle <= 0:
            raise ValueError("copy throughput must be positive")
        if self.per_copy_overhead_host_cycles < 0:
            raise ValueError("per-copy overhead must be non-negative")
        if self.marshal_host_cycles_per_item < 0:
            raise ValueError("marshalling cost must be non-negative")


@dataclass
class CopyDMARunResult:
    """Breakdown of a copy-based accelerator execution (fabric cycles)."""

    alloc_cycles: int
    copy_in_cycles: int
    fabric_cycles: int
    copy_out_cycles: int
    mem_bytes: int

    @property
    def total_cycles(self) -> int:
        return (self.alloc_cycles + self.copy_in_cycles + self.fabric_cycles
                + self.copy_out_cycles)

    @property
    def marshalling_cycles(self) -> int:
        return self.alloc_cycles + self.copy_in_cycles + self.copy_out_cycles


class CopyDMAAccelerator:
    """Conventional copy-in / compute / copy-out accelerator baseline."""

    def __init__(self, copy_config: CopyModelConfig | None = None):
        self.copy_config = copy_config or CopyModelConfig()

    # ------------------------------------------------------------------ run
    def run(self, platform: Platform, kernel: KernelGenerator,
            copy_in_bytes: int, copy_out_bytes: int,
            marshal_items: int = 0,
            name: str = "copydma") -> CopyDMARunResult:
        """Execute the copy-based flow.

        ``copy_in_bytes`` / ``copy_out_bytes`` are the sizes the host must
        marshal (typically the full input/output buffers, independent of what
        the kernel touches).  ``marshal_items`` is the number of elements that
        need pointer fix-up while copying (linked structures); each costs
        ``marshal_host_cycles_per_item`` on top of the raw memcpy.
        """
        if copy_in_bytes < 0 or copy_out_bytes < 0:
            raise ValueError("copy sizes must be non-negative")
        if marshal_items < 0:
            raise ValueError("marshal_items must be non-negative")

        clocks = platform.clocks
        alloc_host = platform.kernel.cost_dma_alloc(copy_in_bytes + copy_out_bytes)
        alloc_cycles = clocks.host_to_fabric(alloc_host)

        marshal_host = marshal_items * self.copy_config.marshal_host_cycles_per_item
        copy_in_cycles = (self._copy_cycles(platform, copy_in_bytes)
                          + clocks.host_to_fabric(marshal_host))
        copy_out_cycles = self._copy_cycles(platform, copy_out_bytes)

        fabric: FabricRunResult = run_physically_addressed(
            platform, kernel, name=name)
        if fabric.aborted:
            raise RuntimeError("copy-DMA accelerator aborted (unexpected)")

        return CopyDMARunResult(
            alloc_cycles=alloc_cycles,
            copy_in_cycles=copy_in_cycles,
            fabric_cycles=fabric.cycles,
            copy_out_cycles=copy_out_cycles,
            mem_bytes=fabric.mem_bytes,
        )

    def _copy_cycles(self, platform: Platform, num_bytes: int) -> int:
        if num_bytes == 0:
            return 0
        cfg = self.copy_config
        host_cycles = (num_bytes / cfg.copy_bytes_per_host_cycle
                       + cfg.per_copy_overhead_host_cycles)
        return platform.clocks.host_to_fabric(math.ceil(host_cycles))
