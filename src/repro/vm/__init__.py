"""Virtual-memory substrate: page tables, TLBs, walkers, MMUs, faults."""

from .faults import (
    AbortingFaultHandler,
    FaultHandler,
    FaultLogEntry,
    FaultResumeCallback,
    ImmediateFaultHandler,
)
from .mmu import MMU, MMUConfig, TranslateCallback
from .pagetable import PageTable, PageTableConfig, PageTableEntry
from .tlb import TLB, TLBConfig, TLBEntry
from .types import (
    AccessType,
    FaultType,
    PageFault,
    Permissions,
    Translation,
)
from .walker import PageTableWalker, WalkerConfig

__all__ = [
    "AbortingFaultHandler",
    "AccessType",
    "FaultHandler",
    "FaultLogEntry",
    "FaultResumeCallback",
    "FaultType",
    "ImmediateFaultHandler",
    "MMU",
    "MMUConfig",
    "PageFault",
    "PageTable",
    "PageTableConfig",
    "PageTableEntry",
    "PageTableWalker",
    "Permissions",
    "TLB",
    "TLBConfig",
    "TLBEntry",
    "TranslateCallback",
    "Translation",
    "WalkerConfig",
]
