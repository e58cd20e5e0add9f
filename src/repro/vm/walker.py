"""Hardware page-table walker.

On a TLB miss the MMU hands the virtual page number to a walker, which reads
one page-table entry per radix level from physical memory.  The walker can be
*private* (one per hardware thread) or *shared* (one walker serving several
MMUs through a request queue) — a design choice the synthesis flow makes and
the Fig. 7 benchmark ablates.

If the walker is attached to a bus port its reads are real memory
transactions and contend with data traffic; otherwise a fixed per-level
latency is charged (used for unit tests and analytic experiments).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from ..mem.port import MemoryRequest, MemoryTarget
from ..sim.component import Component
from ..sim.engine import Simulator
from .pagetable import PageTable, PageTableEntry


@dataclass(frozen=True)
class WalkerConfig:
    """Walker timing parameters."""

    per_level_overhead: int = 2       # pipeline cycles per level in the walker FSM
    fixed_level_latency: int = 30     # memory latency per level when no port is attached

    def __post_init__(self) -> None:
        if self.per_level_overhead < 0 or self.fixed_level_latency < 0:
            raise ValueError("walker latencies must be non-negative")


WalkCallback = Callable[[Optional[PageTableEntry], int], None]


@dataclass
class _WalkRequest:
    vpn: int
    page_table: PageTable
    callback: WalkCallback
    issued_at: int


class PageTableWalker(Component):
    """Serial page-table walker with an optional shared request queue.

    One walk runs at a time, so its progress lives on the walker and every
    level's read completes into a bound method.
    """

    def __init__(self, sim: Simulator, port: Optional[MemoryTarget] = None,
                 config: WalkerConfig | None = None, name: str = "ptw"):
        super().__init__(sim, name)
        self.config = config or WalkerConfig()
        self.port = port
        self._queue: Deque[_WalkRequest] = deque()
        self._busy = False
        # The walk in progress: request, PTE addresses, level, start cycle.
        self._walk: Optional[_WalkRequest] = None
        self._addresses: list[int] = []
        self._level = self._started_at = 0

    # ------------------------------------------------------------------ walk
    def walk(self, vpn: int, page_table: PageTable, callback: WalkCallback) -> None:
        """Translate ``vpn`` by walking ``page_table``.

        ``callback(entry, walk_cycles)`` is invoked when the walk retires;
        ``entry`` is None if the walk hit a missing intermediate level or an
        unmapped leaf slot.
        """
        self.count("walks_requested")
        self._queue.append(_WalkRequest(vpn, page_table, callback,
                                        self.sim.now))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        request = self._walk = self._queue.popleft()
        self.sample("queue_wait", self.sim.now - request.issued_at)
        self._addresses = request.page_table.walk_addresses(request.vpn)
        self._level = 0
        self._started_at = self.sim.now
        self._fetch_level()

    def _fetch_level(self) -> None:
        """Read the current level's PTE; retire the walk after the last."""
        if self._level >= len(self._addresses):
            self._finish()
            return
        self.count("levels_fetched")
        if self.port is not None:
            self.port.access(MemoryRequest(
                addr=self._addresses[self._level],
                size=self._walk.page_table.config.pte_bytes,
                is_write=False, master=self.name, callback=self._level_read))
        else:
            self.schedule(self.config.fixed_level_latency, self._level_read)

    def _level_read(self, _request: Optional[MemoryRequest] = None) -> None:
        self._level += 1
        self.schedule(self.config.per_level_overhead, self._fetch_level)

    def _finish(self) -> None:
        request = self._walk
        addresses = self._addresses
        entry: Optional[PageTableEntry] = None
        if len(addresses) == request.page_table.config.levels:
            entry = request.page_table.entry(request.vpn)
        walk_cycles = self.sim.now - self._started_at
        self.count("walks_completed")
        self.count("walk_cycles", walk_cycles)
        self.sample("walk_latency", walk_cycles)
        if entry is None:
            self.count("walks_faulted")
        request.callback(entry, walk_cycles)
        self._start_next()

    # ------------------------------------------------------------------ info
    @property
    def pending(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)
