"""System specification: the input to the system-level synthesis flow.

An application is described as a set of hardware-thread specifications (which
kernel each runs, how its memory interface and MMU should be dimensioned)
plus system-wide choices (shared vs private page-table walkers, interconnect
arbitration, page size).  The synthesis flow consumes a
:class:`SystemSpec` and produces a simulatable system plus a resource
estimate — this mirrors the paper's flow, which consumes a thread-annotated
program and produces the FPGA system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..hwthread.hls import KernelSchedule, scale_schedule, schedule_for
from ..hwthread.memif import MemoryInterfaceConfig
from ..hwthread.thread import HardwareThreadConfig
from ..vm.mmu import MMUConfig
from ..vm.tlb import TLBConfig
from .platform import PlatformConfig


@dataclass(frozen=True)
class ThreadSpec:
    """Specification of one hardware thread."""

    name: str
    kernel: str                                  # library kernel name
    tlb_entries: int = 16
    tlb_associativity: Optional[int] = None      # None = fully associative
    tlb_replacement: str = "lru"
    max_outstanding: int = 4
    max_burst_bytes: int = 256
    unroll: Optional[int] = None                 # None = library default
    private_walker: bool = True
    #: Translation-prefetch depth of this thread's MMU (0 = no prefetcher).
    tlb_prefetch: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("thread name must not be empty")
        if self.tlb_entries <= 0:
            raise ValueError("tlb_entries must be positive")
        if self.max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        if self.max_burst_bytes <= 0:
            raise ValueError("max_burst_bytes must be positive")
        if self.tlb_prefetch < 0:
            raise ValueError("tlb_prefetch must be non-negative")

    # ------------------------------------------------------------- derived
    def schedule(self) -> KernelSchedule:
        base = schedule_for(self.kernel)
        if self.unroll is None or self.unroll == base.unroll:
            return base
        return scale_schedule(base, self.unroll)

    def tlb_config(self, page_size: int) -> TLBConfig:
        return TLBConfig(entries=self.tlb_entries,
                         associativity=self.tlb_associativity,
                         replacement=self.tlb_replacement,
                         page_size=page_size)

    def mmu_config(self, page_size: int) -> MMUConfig:
        return MMUConfig(tlb=self.tlb_config(page_size),
                         prefetch_depth=self.tlb_prefetch)

    def thread_config(self) -> HardwareThreadConfig:
        return HardwareThreadConfig(max_outstanding=self.max_outstanding)

    def memif_config(self) -> MemoryInterfaceConfig:
        return MemoryInterfaceConfig(max_burst_bytes=self.max_burst_bytes)

    def with_tlb_entries(self, entries: int) -> "ThreadSpec":
        return replace(self, tlb_entries=entries)


@dataclass(frozen=True)
class SystemSpec:
    """Specification of the whole synthesized system."""

    name: str
    threads: List[ThreadSpec] = field(default_factory=list)
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    shared_walker: bool = False        # one PTW shared by all threads
    shared_tlb: bool = False           # one ASID-tagged TLB shared by all MMUs
    #: The host CPU is a first-class sharer of the fabric TLB: host-side page
    #: touches (pinning, fault service) look up / refill the same ASID-tagged
    #: TLB the hardware threads translate through, contending for its
    #: capacity.  Requires ``shared_tlb`` (there must be one fabric TLB for
    #: the host to share).
    host_shares_tlb: bool = False
    #: OS scheduling policy multi-process workloads on this system should be
    #: time-sliced with (``repro.os.scheduler`` registry name).  ``None``
    #: leaves the choice to the workload spec.  This makes the policy a
    #: first-class synthesis parameter: the DSE sweeps it
    #: (:attr:`repro.core.dse.SweepAxes.policy`) next to TLB size and
    #: prefetch depth, since the best static/adaptive policy shifts with the
    #: translation hardware it is compensating for.
    scheduling_policy: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.threads:
            raise ValueError("a system needs at least one hardware thread")
        names = [t.name for t in self.threads]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate thread names in {names}")
        if self.host_shares_tlb and not self.shared_tlb:
            raise ValueError("host_shares_tlb requires shared_tlb "
                             "(the host shares the one fabric TLB)")
        if self.scheduling_policy is not None:
            from ..os.scheduler import SCHEDULER_POLICIES
            if self.scheduling_policy not in SCHEDULER_POLICIES:
                raise ValueError(
                    f"unknown scheduling policy {self.scheduling_policy!r}; "
                    f"registered: {', '.join(sorted(SCHEDULER_POLICIES))}")

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def thread(self, name: str) -> ThreadSpec:
        for spec in self.threads:
            if spec.name == name:
                return spec
        raise KeyError(f"no thread named {name!r} in system {self.name!r}")

    def kernels_used(self) -> List[str]:
        return sorted({t.kernel for t in self.threads})


def size_tlb_for_footprint(footprint_bytes: int, page_size: int,
                           coverage: float = 1.0,
                           min_entries: int = 8, max_entries: int = 128) -> int:
    """Synthesis heuristic: pick a TLB size covering ``coverage`` of the
    workload's page footprint, clamped to a power of two in [min, max].

    This is the automated sizing rule the flow applies when the programmer
    does not dimension the TLB explicitly; the Fig. 10 DSE benchmark shows
    the runtime/area trade-off around the chosen point.
    """
    if footprint_bytes <= 0:
        raise ValueError("footprint must be positive")
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    pages = max(1, footprint_bytes // page_size)
    target = max(1, int(pages * coverage))
    entries = 1
    while entries < target:
        entries <<= 1
    return max(min_entries, min(max_entries, entries))
