"""Shared helpers for the accelerator-style baselines."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.platform import Platform
from ..hwthread.memif import MemoryInterface
from ..hwthread.thread import HardwareThread
from ..sim.process import KernelGenerator
from ..vm.types import AccessType


@dataclass
class FabricRunResult:
    """Outcome of running one accelerator kernel on the fabric."""

    cycles: int
    aborted: bool
    mem_bytes: int
    mem_ops: int


def run_physically_addressed(platform: Platform, kernel: KernelGenerator,
                             name: str = "accel") -> FabricRunResult:
    """Run ``kernel`` on a hardware thread *without* an MMU.

    Addresses are translated functionally (zero cycles) through the process
    page table, which models an accelerator operating on pinned, physically
    known buffers.  Used by the ideal and copy-DMA baselines.  A page that is
    not resident raises ``KeyError``: an accelerator without an MMU cannot
    take page faults.
    """
    space = platform.space

    def translator(vaddr: int, access: AccessType) -> int:
        return space.translate(vaddr, access).paddr

    port = platform.bus.attach_master(name)
    memif = MemoryInterface(platform.sim, port, translator=translator,
                            name=f"{name}.memif")
    thread = HardwareThread(platform.sim, kernel, memif, name=name)

    outcome = {"ok": None}
    start_cycle = platform.sim.now
    thread.start(lambda ok: outcome.update(ok=ok))
    platform.run()

    if outcome["ok"] is None:
        raise RuntimeError(f"hardware thread {name} never completed")

    return FabricRunResult(
        cycles=(thread.finished_at or platform.sim.now) - start_cycle,
        aborted=not outcome["ok"],
        mem_bytes=thread.stats.counter_value("mem_bytes"),
        mem_ops=thread.stats.counter_value("mem_ops"),
    )
