"""Physical frame allocator.

The host OS owns all physical DRAM above the reserved region and hands out
page frames on demand — to back freshly touched pages (demand paging), to the
page-table node allocator, and to the DMA buffer allocator of the copy-based
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..mem.layout import PhysicalMemoryMap, Region, align_up


class OutOfMemoryError(RuntimeError):
    """Raised when no physical frame is available."""


class FrameAllocator:
    """Bitmap-free frame allocator over a physical region.

    Frames are handed out from a free list (lowest address first) so that
    allocation is deterministic run-to-run; freed frames are recycled in LIFO
    order which mimics a Linux-style per-CPU page cache.
    """

    def __init__(self, region: Region, page_size: int = 4096):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        self.page_size = page_size
        self.region = region
        base = align_up(region.base, page_size)
        self._first_frame = base // page_size
        self._num_frames = (region.end - base) // page_size
        if self._num_frames <= 0:
            raise ValueError("region too small for a single frame")
        self._next_fresh = 0
        self._free_list: List[int] = []
        self._allocated: Set[int] = set()

    # ------------------------------------------------------------ allocation
    def allocate(self) -> int:
        """Allocate one frame; returns the frame *number* (paddr / page_size)."""
        if self._free_list:
            frame = self._free_list.pop()
        elif self._next_fresh < self._num_frames:
            frame = self._first_frame + self._next_fresh
            self._next_fresh += 1
        else:
            # Frame counts shrink with the page size (a 2 MB hugepage system
            # has 512x fewer frames than a 4 KB one), so say which ran out.
            raise OutOfMemoryError(
                f"out of physical frames ({self._num_frames} total "
                f"of {self.page_size} bytes)")
        self._allocated.add(frame)
        return frame

    def allocate_contiguous(self, count: int) -> int:
        """Allocate ``count`` physically contiguous frames (for DMA buffers).

        Returns the first frame number.  Only fresh (never-freed) frames are
        used so contiguity is guaranteed.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if self._next_fresh + count > self._num_frames:
            raise OutOfMemoryError(
                f"cannot allocate {count} contiguous frames")
        first = self._first_frame + self._next_fresh
        self._next_fresh += count
        for frame in range(first, first + count):
            self._allocated.add(frame)
        return first

    def free(self, frame: int) -> None:
        if frame not in self._allocated:
            raise ValueError(f"frame {frame:#x} was not allocated")
        self._allocated.remove(frame)
        self._free_list.append(frame)

    # ------------------------------------------------------------------ info
    @property
    def frames_total(self) -> int:
        return self._num_frames

    @property
    def frames_allocated(self) -> int:
        return len(self._allocated)

    @property
    def frames_free(self) -> int:
        return self._num_frames - len(self._allocated)

    def frame_address(self, frame: int) -> int:
        """Physical byte address of a frame number."""
        return frame * self.page_size

    def is_allocated(self, frame: int) -> bool:
        return frame in self._allocated


@dataclass
class ReservedAllocator:
    """Bump allocator over the OS-reserved region (page-table nodes, kernel
    structures).  Never frees — matches how the real driver carves its
    translation tables out of a CMA region at boot."""

    region: Region
    alignment: int = 64

    def __post_init__(self) -> None:
        self._cursor = align_up(self.region.base, self.alignment)

    def allocate(self, size: int) -> int:
        if size <= 0:
            raise ValueError("size must be positive")
        addr = align_up(self._cursor, self.alignment)
        if addr + size > self.region.end:
            raise OutOfMemoryError("reserved region exhausted")
        self._cursor = addr + size
        return addr

    @property
    def bytes_used(self) -> int:
        return self._cursor - self.region.base


def make_default_allocators(page_size: int = 4096,
                            memory_map: Optional[PhysicalMemoryMap] = None
                            ) -> tuple[FrameAllocator, ReservedAllocator, PhysicalMemoryMap]:
    """Convenience factory used by the OS kernel and by tests."""
    memory_map = memory_map or PhysicalMemoryMap()
    frames = FrameAllocator(memory_map.usable, page_size=page_size)
    reserved = ReservedAllocator(memory_map.reserved)
    return frames, reserved, memory_map
