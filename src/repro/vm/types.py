"""Common virtual-memory types: access kinds, translations, fault records."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AccessType(enum.Enum):
    """Kind of memory access, used for permission checks."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE


class FaultType(enum.Enum):
    """Why a translation failed."""

    NOT_PRESENT = "not_present"        # demand paging: page not resident
    NOT_MAPPED = "not_mapped"          # no vm_area covers the address
    PROTECTION = "protection"          # write to a read-only mapping


@dataclass(frozen=True)
class PageFault:
    """Record of a translation fault delivered to the OS fault handler."""

    vaddr: int
    access: AccessType
    fault_type: FaultType
    thread: str = "?"
    cycle: int = 0


@dataclass(frozen=True)
class Translation:
    """Result of a successful address translation."""

    vaddr: int
    paddr: int
    page_size: int
    writable: bool

    @property
    def vpn(self) -> int:
        return self.vaddr // self.page_size

    @property
    def frame(self) -> int:
        return self.paddr // self.page_size


@dataclass(frozen=True)
class Permissions:
    """Access permissions of a mapping."""

    readable: bool = True
    writable: bool = True
    user: bool = True
