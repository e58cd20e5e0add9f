"""Shared system interconnect (AXI-like) between bus masters and memory.

Masters (hardware threads' memory interfaces, the host CPU port, the DMA
engine, the shared page-table walker) register with the bus and submit
:class:`~repro.mem.port.MemoryRequest` objects.  The bus serialises the
address/data phases — a transaction occupies the bus for an address-phase
overhead plus one beat per ``bus_width_bytes`` of payload — and forwards the
request to the downstream target (usually the DRAM model).  Completion is
signalled by the downstream target directly to the original requester, which
models the independent read-return channel of AXI.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, List, Optional

from ..sim.component import Component
from ..sim.engine import Simulator
from .arbiter import Arbiter, RoundRobinArbiter
from .port import MemoryRequest, MemoryTarget


@dataclass(frozen=True)
class BusConfig:
    """Interconnect parameters (defaults model a 64-bit AXI at fabric clock)."""

    bus_width_bytes: int = 8
    address_phase_cycles: int = 2
    max_outstanding_per_master: int = 8

    def __post_init__(self) -> None:
        if self.bus_width_bytes <= 0:
            raise ValueError("bus_width_bytes must be positive")
        if self.address_phase_cycles < 0:
            raise ValueError("address_phase_cycles must be non-negative")
        if self.max_outstanding_per_master <= 0:
            raise ValueError("max_outstanding_per_master must be positive")


class BusPort:
    """Handle a master uses to talk to the bus."""

    def __init__(self, bus: "SystemBus", index: int, name: str):
        self.bus = bus
        self.index = index
        self.name = name
        self.requests_stat = f"requests_from.{name}"
        self.latency_stat = f"latency_for.{name}"

    def access(self, request: MemoryRequest) -> None:
        request.master = self.name
        self.bus.submit(self.index, request)

    @property
    def outstanding(self) -> int:
        return self.bus.outstanding(self.index)


class SystemBus(Component):
    """Arbitrated shared bus in front of a single memory target."""

    def __init__(self, sim: Simulator, target: MemoryTarget,
                 config: BusConfig | None = None,
                 arbiter: Optional[Arbiter] = None,
                 name: str = "bus"):
        super().__init__(sim, name)
        self.config = config or BusConfig()
        self.target = target
        self.arbiter = arbiter or RoundRobinArbiter()
        self._queues: List[Deque[MemoryRequest]] = []
        self._ports: List[BusPort] = []
        self._inflight: List[int] = []
        self._busy = False

    # --------------------------------------------------------------- masters
    def attach_master(self, name: str) -> BusPort:
        """Register a new bus master and return its port."""
        index = len(self._ports)
        port = BusPort(self, index, name)
        self._ports.append(port)
        self._queues.append(deque())
        self._inflight.append(0)
        return port

    @property
    def num_masters(self) -> int:
        return len(self._ports)

    def outstanding(self, index: int) -> int:
        return self._inflight[index] + len(self._queues[index])

    # ---------------------------------------------------------------- submit
    def submit(self, master_index: int, request: MemoryRequest) -> None:
        request.issue_cycle = self.sim.now
        self._queues[master_index].append(request)
        self.count("requests")
        self.count(self._ports[master_index].requests_stat)
        if not self._busy:
            self._grant_next()

    # ----------------------------------------------------------- arbitration
    def _grant_next(self) -> None:
        inflight = self._inflight
        limit = self.config.max_outstanding_per_master
        candidates = [i for i, q in enumerate(self._queues)
                      if q and inflight[i] < limit]
        if not candidates:
            self._busy = False
            return

        self._busy = True
        chosen = self.arbiter.choose(candidates)
        request = self._queues[chosen].popleft()
        inflight[chosen] += 1

        wait = self.sim.now - request.issue_cycle
        self.sample("queue_wait", wait)
        if wait > 0:
            self.count("contended_grants")

        width = self.config.bus_width_bytes
        # One beat at least: request sizes are positive.
        occupancy = (self.config.address_phase_cycles
                     + (request.size + width - 1) // width)
        self.count("busy_cycles", occupancy)

        request.callback = partial(self._retire, chosen, request.callback)
        # Forward to the memory target after the occupancy elapses, then look
        # for the next grant.
        self.schedule(occupancy, partial(self._forward, request))

    def _forward(self, request: MemoryRequest) -> None:
        self.target.access(request)
        self._grant_next()

    def _retire(self, index: int,
                callback: Optional[Callable[[MemoryRequest], None]],
                request: MemoryRequest) -> None:
        self._inflight[index] -= 1
        self.sample(self._ports[index].latency_stat,
                    self.sim.now - request.issue_cycle)
        if callback is not None:
            callback(request)
        # A freed outstanding slot may unblock this master's queued request
        # even if the bus itself went idle in the meantime.  (An idle bus has
        # no other eligible master: it would have granted it.)
        if not self._busy and self._queues[index]:
            self._grant_next()

    # ------------------------------------------------------------------ info
    def utilisation(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.counter_value("busy_cycles") / elapsed_cycles)
