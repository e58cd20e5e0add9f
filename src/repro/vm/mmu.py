"""Per-hardware-thread memory management unit.

The MMU is the heart of the paper's contribution: it lets an accelerator
thread issue *virtual* addresses of the host process.  Each MMU contains a
small TLB and a connection to a (private or shared) page-table walker.  The
translation flow is:

1. TLB lookup — hit: translation returned after ``hit_latency`` cycles.
2. Miss — the walker reads the page table from memory.
3. Walk returns a valid, present PTE — refill the TLB and return.
4. Walk faults (page not present / not mapped / protection) — the fault is
   delegated to the host OS fault handler; when the OS resolves it the MMU
   retries the walk.  Unresolvable faults abort the requesting thread.

Two optional extensions, both off by default, serve the non-canonical
execution models:

* **translation prefetching** (``prefetch_depth > 0``): every demand miss —
  and every first hit on a previously prefetched entry — predicts the next
  ``prefetch_depth`` virtual pages from the observed miss stride and walks
  them in the background, refilling the TLB before the datapath asks.
  Prefetch walks share the (serial) walker with demand walks, so they are
  not free; a prefetch that would fault is silently dropped.
* **shared TLBs** (``tlb=``): several MMUs — or several processes
  time-sliced onto one MMU via :meth:`MMU.activate` — can share a single
  ASID-tagged :class:`~repro.vm.tlb.TLB` instance, modelling one fabric TLB
  serving more than one address space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..sim.component import Component
from ..sim.engine import Simulator
from .faults import FaultHandler
from .pagetable import PageTable, PageTableEntry
from .tlb import TLB, TLBConfig
from .types import AccessType, FaultType, PageFault, Translation
from .walker import PageTableWalker


#: Invoked when a translation finishes.  On success the Translation is given;
#: on a fatal fault it is None.
TranslateCallback = Callable[[Optional[Translation]], None]


@dataclass(frozen=True)
class MMUConfig:
    tlb: TLBConfig = TLBConfig()
    max_fault_retries: int = 3
    #: Pages walked ahead of the demand stream on every miss (0 = off).
    prefetch_depth: int = 0

    def __post_init__(self) -> None:
        if self.max_fault_retries < 1:
            raise ValueError("max_fault_retries must be at least 1")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be non-negative")


class MMU(Component):
    """Address-translation unit for one hardware thread."""

    def __init__(self, sim: Simulator, page_table: PageTable,
                 walker: PageTableWalker,
                 fault_handler: Optional[FaultHandler] = None,
                 config: MMUConfig | None = None,
                 name: str = "mmu",
                 tlb: Optional[TLB] = None):
        super().__init__(sim, name)
        self.config = config or MMUConfig()
        tlb_page_size = (tlb.config if tlb is not None else self.config.tlb).page_size
        if tlb_page_size != page_table.config.page_size:
            raise ValueError(
                "TLB and page table must agree on the page size "
                f"({tlb_page_size} != {page_table.config.page_size})")
        self.page_table = page_table
        self.walker = walker
        self.fault_handler = fault_handler
        #: Possibly shared with other MMUs — entries are ASID-tagged, so a
        #: shared instance never mixes translations across address spaces.
        self.tlb = tlb if tlb is not None else TLB(self.config.tlb,
                                                  name=f"{name}.tlb")
        # Prefetch state: a short history of demand-missed VPNs (the "stream
        # table") and the keys currently walking in the background.  The
        # stride a prefetch was issued with lives on the TLB entry itself.
        self._recent_misses: deque = deque(maxlen=8)
        self._prefetches_inflight: set = set()
        self._prefetch_score = self.PREFETCH_SCORE_INIT

    # ---------------------------------------------------------- space switch
    def activate(self, page_table: PageTable,
                 fault_handler: Optional[FaultHandler] = None) -> None:
        """Switch the MMU to another process's address space.

        Models an OS context switch of the accelerator between processes
        sharing one fabric TLB: nothing is flushed — entries are ASID-tagged,
        so the outgoing space's translations stay resident and the incoming
        space simply stops hitting them.  Callers must drain outstanding
        operations (a kernel ``Fence``) before switching.
        """
        if self.tlb.config.page_size != page_table.config.page_size:
            raise ValueError(
                "activated page table disagrees with the TLB page size "
                f"({page_table.config.page_size} != {self.tlb.config.page_size})")
        self.page_table = page_table
        if fault_handler is not None:
            self.fault_handler = fault_handler
        self._recent_misses.clear()          # stride history is per-space
        self._prefetch_score = self.PREFETCH_SCORE_INIT
        self.count("context_switches")

    # ------------------------------------------------------------- translate
    @property
    def page_size(self) -> int:
        return self.page_table.config.page_size

    def translate(self, vaddr: int, access: AccessType,
                  callback: TranslateCallback, thread: str = "?") -> None:
        """Translate ``vaddr``; invoke ``callback`` when done."""
        page_size = self.page_table.config.page_size
        vpn, offset = divmod(vaddr, page_size)
        self.count("translations")
        entry = self.tlb.lookup(vpn, asid=self.page_table.asid)
        if entry is not None and (not access.is_write or entry.writable):
            self.count("tlb_hits")
            if entry.prefetched:
                # First demand use of a prefetched translation: count it as
                # useful and keep running ahead of the stream, down the same
                # stride the prefetch was issued with.
                entry.prefetched = False
                self.count("prefetch_hits")
                self._prefetch_score = min(
                    self.PREFETCH_SCORE_MAX,
                    self._prefetch_score + self.PREFETCH_HIT_BONUS)
                self._maybe_prefetch(vpn, entry.prefetch_stride)
            translation = Translation(vaddr, entry.frame * page_size + offset,
                                      page_size, entry.writable)
            self.schedule(self.tlb.config.hit_latency,
                          partial(callback, translation))
            return

        self.count("tlb_misses")
        started = self.sim.now
        self._walk(vaddr, vpn, offset, access, callback, thread, started,
                   retries_left=self.config.max_fault_retries)
        # Prefetches queue behind the demand walk on the (serial) walker.
        self._maybe_prefetch(vpn, self._miss_stride(vpn))

    # -------------------------------------------------------------- prefetch
    #: Largest page stride the stream detector will follow.  Deltas beyond
    #: this are inter-buffer distances (interleaved streams), not strides —
    #: chasing them prefetches another stream's pages or garbage.
    MAX_PREFETCH_STRIDE = 3
    #: Accuracy throttle: every issued prefetch costs one confidence point,
    #: every useful one earns HIT_BONUS; below the gate the prefetcher goes
    #: quiet.  Non-strided access (random tables, pointer chasing) would
    #: otherwise flood the serial walker with useless walks and *slow down*
    #: the demand stream that has to queue behind them.
    PREFETCH_SCORE_INIT = 16
    PREFETCH_SCORE_MAX = 31
    PREFETCH_SCORE_GATE = 8
    PREFETCH_HIT_BONUS = 4

    def _miss_stride(self, vpn: int) -> int:
        """Stride suggested by the recent-miss stream table (next-page default).

        A demand miss close to an earlier miss continues that stream: the
        stride is their distance.  Misses far from all recent misses are a new
        (or non-strided) stream and fall back to next-page prefetching.
        Records ``vpn`` in the table.
        """
        stride = 1
        for recent in reversed(self._recent_misses):
            delta = vpn - recent
            if delta != 0 and abs(delta) <= self.MAX_PREFETCH_STRIDE:
                stride = delta
                break
        self._recent_misses.append(vpn)
        return stride

    def _maybe_prefetch(self, vpn: int, stride: int) -> None:
        """Walk the next predicted pages in the background and refill the TLB."""
        depth = self.config.prefetch_depth
        if depth <= 0 or self._prefetch_score < self.PREFETCH_SCORE_GATE:
            return
        page_table = self.page_table
        asid = page_table.asid
        limit = 1 << page_table.config.vpn_bits
        for ahead in range(1, depth + 1):
            target = vpn + stride * ahead
            if not 0 <= target < limit:
                continue
            key = (asid, target)
            if key in self.tlb or key in self._prefetches_inflight:
                continue
            self._prefetches_inflight.add(key)
            self._prefetch_score -= 1
            self.count("prefetches_issued")

            def on_prefetch_walk(entry: Optional[PageTableEntry],
                                 _walk_cycles: int, target: int = target,
                                 key: tuple = key, stride: int = stride,
                                 page_table: PageTable = page_table) -> None:
                self._prefetches_inflight.discard(key)
                if entry is None or not entry.present:
                    # Never fault on behalf of a prediction: just drop it.
                    self.count("prefetches_dropped")
                    return
                entry.accessed = True
                installed = self.tlb.insert(target, entry.frame,
                                            entry.writable, asid=key[0],
                                            prefetched=True)
                installed.prefetch_stride = stride
                self.count("prefetch_fills")

            self.walker.walk(target, page_table, on_prefetch_walk)

    # ------------------------------------------------------------------ walk
    def _walk(self, vaddr: int, vpn: int, offset: int, access: AccessType,
              callback: TranslateCallback, thread: str, started: int,
              retries_left: int) -> None:

        def on_walk(entry: Optional[PageTableEntry], _walk_cycles: int) -> None:
            fault_type = self._classify(entry, access)
            if fault_type is None:
                assert entry is not None
                self.tlb.insert(vpn, entry.frame, entry.writable,
                                asid=self.page_table.asid)
                # Demand refill (prefetch fills count separately): the live
                # miss-traffic signal the scheduling telemetry bus samples.
                self.count("tlb_refills")
                entry.accessed = True
                if access.is_write:
                    entry.dirty = True
                self.sample("miss_latency", self.sim.now - started)
                page_size = self.page_size
                callback(Translation(vaddr, entry.frame * page_size + offset,
                                     page_size, entry.writable))
                return
            self._fault(vaddr, vpn, offset, access, callback, thread, started,
                        retries_left, fault_type)

        self.walker.walk(vpn, self.page_table, on_walk)

    @staticmethod
    def _classify(entry: Optional[PageTableEntry],
                  access: AccessType) -> Optional[FaultType]:
        if entry is None:
            return FaultType.NOT_MAPPED
        if not entry.present:
            return FaultType.NOT_PRESENT
        if access.is_write and not entry.writable:
            return FaultType.PROTECTION
        return None

    # ----------------------------------------------------------------- fault
    def _fault(self, vaddr: int, vpn: int, offset: int, access: AccessType,
               callback: TranslateCallback, thread: str, started: int,
               retries_left: int, fault_type: FaultType) -> None:
        self.count("faults")
        self.count(f"faults.{fault_type.value}")
        fault = PageFault(vaddr=vaddr, access=access, fault_type=fault_type,
                          thread=thread, cycle=self.sim.now)

        if self.fault_handler is None or retries_left <= 0:
            self.count("fatal_faults")
            callback(None)
            return

        fault_started = self.sim.now

        def resume(resolved: bool) -> None:
            self.sample("fault_service_latency", self.sim.now - fault_started)
            if not resolved:
                self.count("fatal_faults")
                callback(None)
                return
            self._walk(vaddr, vpn, offset, access, callback, thread, started,
                       retries_left - 1)

        self.fault_handler.handle_fault(fault, resume)

    # ------------------------------------------------------------ shootdowns
    def invalidate(self, vpn: int, asid: Optional[int] = None) -> bool:
        """TLB shootdown for one page (the OS calls this on unmap/protect).

        ``asid=None`` (the default used by address-space teardown) shoots the
        page down across *all* address spaces — conservative and always
        correct.  Pass an explicit ASID for a targeted single-space shootdown.
        """
        self.count("shootdowns")
        return self.tlb.invalidate(vpn, asid=asid)

    def flush(self) -> int:
        self.count("flushes")
        return self.tlb.flush()

    # ------------------------------------------------------------------ info
    def export_stats(self) -> None:
        """Copy TLB counters into the component's stat group."""
        self.set_stat("tlb_hit_rate", self.tlb.hit_rate)
        self.set_stat("tlb_occupancy", self.tlb.occupancy)
        self.set_stat("tlb_evictions", self.tlb.evictions)
