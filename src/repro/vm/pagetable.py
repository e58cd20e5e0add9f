"""Multi-level (radix) page table.

The page table is the single source of truth shared by the host OS and the
hardware page-table walkers: the OS mutates it (map, unmap, protect, pin) and
the walkers read it.  Each table node is assigned a physical address so the
walker can issue one realistic memory transaction per level.

The geometry is configurable so the evaluation can sweep the page size
(Fig. 6): ``vaddr_bits`` minus the page-offset bits are split evenly across
``levels`` radix levels (the top level absorbs any remainder).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .types import AccessType, FaultType, PageFault, Translation

#: Conventional x86-style huge-page size.  With a 32-bit virtual address a
#: 2 MB page leaves 11 VPN bits — a single-level table resolves them, so a
#: hugepage walk reads one PTE instead of one per radix level.
HUGE_PAGE_SIZE = 2 * 1024 * 1024


def levels_for_page_size(page_size: int) -> int:
    """Radix depth the synthesis flow pairs with a page size.

    Base (4 KB) pages use the platform's two-level table; huge pages leave so
    few VPN bits that a single level resolves them — that collapse is where
    the hugepage execution model's walker-traffic saving comes from.
    """
    if page_size >= HUGE_PAGE_SIZE:
        return 1
    return 2


@dataclass(frozen=True)
class PageTableConfig:
    page_size: int = 4096
    vaddr_bits: int = 32
    levels: int = 2
    pte_bytes: int = 4

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if self.levels <= 0:
            raise ValueError("levels must be positive")
        if self.vaddr_bits <= self.offset_bits:
            raise ValueError("vaddr_bits too small for the page size")

    @property
    def offset_bits(self) -> int:
        return self.page_size.bit_length() - 1

    @property
    def vpn_bits(self) -> int:
        return self.vaddr_bits - self.offset_bits

    @property
    def bits_per_level(self) -> List[int]:
        """Index bits consumed at each level, top level first."""
        base = self.vpn_bits // self.levels
        remainder = self.vpn_bits - base * self.levels
        bits = [base] * self.levels
        bits[0] += remainder
        return bits

    @cached_property
    def _index_fields(self) -> Tuple[Tuple[int, int], ...]:
        """``(shift, mask)`` of each level's index bits, top level first."""
        shift = self.vpn_bits
        fields = []
        for level_bits in self.bits_per_level:
            shift -= level_bits
            fields.append((shift, (1 << level_bits) - 1))
        return tuple(fields)

    def indices(self, vpn: int) -> List[int]:
        """Radix indices of ``vpn`` at each level, top level first."""
        return [(vpn >> shift) & mask for shift, mask in self._index_fields]


@dataclass
class PageTableEntry:
    """Leaf entry describing one virtual page."""

    frame: int = 0
    present: bool = False
    writable: bool = True
    user: bool = True
    accessed: bool = False
    dirty: bool = False
    pinned: bool = False


class _TableNode:
    """One radix node; leaf nodes hold PTEs, inner nodes hold child pointers."""

    __slots__ = ("phys_addr", "entries")

    def __init__(self, phys_addr: int):
        self.phys_addr = phys_addr
        self.entries: Dict[int, object] = {}


class PageTable:
    """Radix page table for a single address space.

    ``node_allocator`` returns a physical address for each newly created
    table node; the OS supplies an allocator backed by its reserved region.
    A default bump allocator is used when none is given (tests).
    """

    def __init__(self, config: PageTableConfig | None = None,
                 node_allocator: Optional[Callable[[], int]] = None,
                 asid: int = 0):
        self.config = config or PageTableConfig()
        self.asid = asid
        self._next_node_addr = 0x100000
        self._allocate_node_addr = node_allocator or self._default_allocator
        self.root = _TableNode(self._allocate_node_addr())
        self._num_nodes = 1
        self._num_mapped = 0

    def _default_allocator(self) -> int:
        addr = self._next_node_addr
        self._next_node_addr += 0x1000
        return addr

    # ----------------------------------------------------------- navigation
    def _walk_nodes(self, vpn: int, create: bool = False) -> Optional[Tuple[List[_TableNode], int]]:
        """Return (nodes visited top-down, leaf index) or None if a level is
        missing and ``create`` is False."""
        indices = self.config.indices(vpn)
        node = self.root
        visited = [node]
        for index in indices[:-1]:
            child = node.entries.get(index)
            if child is None:
                if not create:
                    return None
                child = _TableNode(self._allocate_node_addr())
                node.entries[index] = child
                self._num_nodes += 1
            node = child  # type: ignore[assignment]
            visited.append(node)
        return visited, indices[-1]

    # ------------------------------------------------------------ mutation
    def map(self, vpn: int, frame: int, writable: bool = True,
            user: bool = True, present: bool = True, pinned: bool = False) -> PageTableEntry:
        """Install (or overwrite) the PTE for ``vpn``."""
        if vpn < 0 or vpn >= (1 << self.config.vpn_bits):
            raise ValueError(f"vpn {vpn:#x} out of range")
        nodes, leaf_index = self._walk_nodes(vpn, create=True)  # type: ignore[misc]
        entry = PageTableEntry(frame=frame, present=present, writable=writable,
                               user=user, pinned=pinned)
        leaf = nodes[-1]
        if leaf_index not in leaf.entries:
            self._num_mapped += 1
        leaf.entries[leaf_index] = entry
        return entry

    def unmap(self, vpn: int) -> Optional[PageTableEntry]:
        """Remove the PTE for ``vpn``; returns the removed entry (or None)."""
        found = self._walk_nodes(vpn, create=False)
        if found is None:
            return None
        nodes, leaf_index = found
        entry = nodes[-1].entries.pop(leaf_index, None)
        if entry is not None:
            self._num_mapped -= 1
        return entry  # type: ignore[return-value]

    def set_present(self, vpn: int, present: bool, frame: Optional[int] = None) -> None:
        entry = self.entry(vpn)
        if entry is None:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        entry.present = present
        if frame is not None:
            entry.frame = frame

    def protect(self, vpn: int, writable: bool) -> None:
        entry = self.entry(vpn)
        if entry is None:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        entry.writable = writable

    def pin(self, vpn: int, pinned: bool = True) -> None:
        entry = self.entry(vpn)
        if entry is None:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        entry.pinned = pinned

    # --------------------------------------------------------------- lookup
    def entry(self, vpn: int) -> Optional[PageTableEntry]:
        found = self._walk_nodes(vpn, create=False)
        if found is None:
            return None
        nodes, leaf_index = found
        entry = nodes[-1].entries.get(leaf_index)
        return entry  # type: ignore[return-value]

    def walk_addresses(self, vpn: int) -> List[int]:
        """Physical addresses a hardware walker must read to translate ``vpn``.

        One address per level: the PTE slot in each node along the path.  If
        an intermediate node is missing the list is truncated at that level
        (the walker reads an empty entry there and reports a fault).
        """
        indices = self.config.indices(vpn)
        addrs: List[int] = []
        node = self.root
        for depth, index in enumerate(indices):
            addrs.append(node.phys_addr + index * self.config.pte_bytes)
            if depth == len(indices) - 1:
                break
            child = node.entries.get(index)
            if child is None:
                break
            node = child  # type: ignore[assignment]
        return addrs

    def translate(self, vaddr: int, access: AccessType = AccessType.READ,
                  thread: str = "?", cycle: int = 0) -> Translation:
        """Functional translation; raises nothing, returns Translation or
        raises :class:`LookupError` wrapped in a PageFault via ``fault_for``.

        The MMU uses :meth:`probe` instead; this is the convenience API used
        by the OS and by tests.
        """
        result = self.probe(vaddr, access)
        if isinstance(result, PageFault):
            raise KeyError(f"{result.fault_type.value} at {vaddr:#x}")
        return result

    def probe(self, vaddr: int, access: AccessType = AccessType.READ,
              thread: str = "?", cycle: int = 0) -> Translation | PageFault:
        """Translate ``vaddr`` or describe why it faults."""
        page_size = self.config.page_size
        vpn, offset = divmod(vaddr, page_size)
        entry = self.entry(vpn)
        if entry is None:
            return PageFault(vaddr, access, FaultType.NOT_MAPPED, thread, cycle)
        if not entry.present:
            return PageFault(vaddr, access, FaultType.NOT_PRESENT, thread, cycle)
        if access.is_write and not entry.writable:
            return PageFault(vaddr, access, FaultType.PROTECTION, thread, cycle)
        entry.accessed = True
        if access.is_write:
            entry.dirty = True
        return Translation(vaddr=vaddr, paddr=entry.frame * page_size + offset,
                           page_size=page_size, writable=entry.writable)

    # ------------------------------------------------------------------ info
    @property
    def num_mapped_pages(self) -> int:
        return self._num_mapped

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def mapped_vpns(self) -> Iterator[int]:
        """Iterate over all mapped virtual page numbers (test/debug helper)."""
        bits = self.config.bits_per_level

        def recurse(node: _TableNode, depth: int, prefix: int) -> Iterator[int]:
            shift = sum(bits[depth + 1:])
            for index, child in node.entries.items():
                vpn_part = (prefix << bits[depth]) | index
                if depth == len(bits) - 1:
                    yield vpn_part
                else:
                    yield from recurse(child, depth + 1, vpn_part)  # type: ignore[arg-type]

        yield from recurse(self.root, 0, 0)

    def resident_vpns(self) -> List[int]:
        return [vpn for vpn in self.mapped_vpns()
                if self.entry(vpn) is not None and self.entry(vpn).present]
