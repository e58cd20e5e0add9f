"""Demand-paging fault handler running on the host CPU.

When a hardware thread's MMU faults, the real platform raises an interrupt;
the OS driver's *delegate* thread wakes up, resolves the fault in software
(allocates a frame, updates the PTE, possibly zeroes the page) and signals
the MMU to retry.  The handler below models that path with three costs:

* ``interrupt_latency`` — fabric-to-host interrupt delivery + context switch,
* ``service_cycles`` — the software page-fault path (get_user_pages et al.),
* ``zero_fill_cycles`` — clearing a fresh anonymous page.

Faults are serviced serially (a single delegate per process, as in the
paper's driver), so concurrent faults from multiple hardware threads queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from ..sim.component import Component
from ..sim.engine import Simulator
from ..vm.faults import FaultResumeCallback
from ..vm.types import FaultType, PageFault
from .address_space import AddressSpace
from .frames import OutOfMemoryError


@dataclass(frozen=True)
class FaultHandlerConfig:
    """Host-side fault servicing costs, in fabric clock cycles."""

    interrupt_latency: int = 400
    service_cycles: int = 1200
    zero_fill_cycles: int = 600
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        if min(self.interrupt_latency, self.service_cycles,
               self.zero_fill_cycles) < 0:
            raise ValueError("fault costs must be non-negative")
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")


class DemandPagingHandler(Component):
    """OS page-fault handler shared by all hardware threads of a process."""

    def __init__(self, sim: Simulator, address_space: AddressSpace,
                 config: FaultHandlerConfig | None = None,
                 name: str = "os.fault_handler",
                 host: object = None):
        super().__init__(sim, name)
        self.config = config or FaultHandlerConfig()
        self.space = address_space
        #: The host kernel (anything with ``host_touch``).  When the host CPU
        #: shares the fabric TLB, fault service's page touches (zero-fill)
        #: probe it and their cost rides on the service latency.
        self.host = host
        self._queue: Deque[Tuple[PageFault, FaultResumeCallback]] = deque()
        self._busy = False
        self.fault_log: List[PageFault] = []

    # -------------------------------------------------------------- protocol
    def handle_fault(self, fault: PageFault, resume: FaultResumeCallback) -> None:
        """Entry point used by MMUs (implements the FaultHandler protocol)."""
        self.count("faults_received")
        self.fault_log.append(fault)
        if len(self._queue) >= self.config.max_queue_depth:
            # Back-pressure: the driver would stall the fabric; model as a
            # fatal error so misconfigured systems fail loudly.
            self.count("faults_dropped")
            resume(False)
            return
        self._queue.append((fault, resume))
        if not self._busy:
            self._busy = True
            self.schedule(self.config.interrupt_latency, self._service_next)

    # --------------------------------------------------------------- service
    def _service_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        fault, resume = self._queue.popleft()
        started = self.sim.now

        resolved, extra_cycles = self._resolve(fault)
        total = self.config.service_cycles + extra_cycles

        def finish() -> None:
            self.sample("service_latency", self.sim.now - started)
            if resolved:
                self.count("faults_resolved")
            else:
                self.count("faults_fatal")
            resume(resolved)
            # Service the next queued fault (interrupt already taken).
            self.schedule(0, self._service_next)

        self.schedule(total, finish)

    def _resolve(self, fault: PageFault) -> Tuple[bool, int]:
        """Fix up the page table; returns (resolved, extra service cycles)."""
        page_size = self.space.page_size
        vpn = fault.vaddr // page_size

        if fault.fault_type is FaultType.NOT_MAPPED:
            # Segfault as seen from a hardware thread.
            return False, 0

        if fault.fault_type is FaultType.PROTECTION:
            area = self.space.area_of(fault.vaddr)
            if area is None or not area.perms.writable:
                return False, 0
            # Copy-on-write style upgrade: the area allows writes, the PTE
            # was read-only; upgrade it.  A *minor* fault in OS terms: no
            # frame is allocated, only the PTE changes.
            self.space.page_table.protect(vpn, writable=True)
            self.count("minor_faults")
            return True, 0

        # NOT_PRESENT: demand paging of an anonymous page.
        entry = self.space.page_table.entry(vpn)
        if entry is None:
            return False, 0
        try:
            frame = self.space.frames.allocate()
        except OutOfMemoryError:
            self.count("oom")
            return False, 0
        self.space.page_table.set_present(vpn, True, frame=frame)
        self.count("pages_faulted_in")
        # A *major* fault: a fresh frame was allocated and zero-filled.  The
        # per-epoch telemetry bus attributes these to the process whose
        # handler this is (handlers are per-process components).
        self.count("major_faults")
        extra = self.config.zero_fill_cycles
        if self.host is not None:
            # Zero-filling the fresh page is a host-CPU write: when the host
            # shares the fabric TLB it probes (and warms) the very entry the
            # faulting hardware thread is about to retry.
            extra += self.host.host_touch(self.space, vpn,  # type: ignore[attr-defined]
                                          writable=True)
        return True, extra

    # ------------------------------------------------------------------ info
    @property
    def pending(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    @property
    def faults_resolved(self) -> int:
        return self.stats.counter_value("faults_resolved")
