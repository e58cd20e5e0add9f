"""Hardware thread execution model.

A hardware thread is an HLS-generated accelerator that executes a kernel
described as a generator of operations (:class:`~repro.sim.process.Compute`,
:class:`~repro.sim.process.Access`, :class:`~repro.sim.process.Burst`,
:class:`~repro.sim.process.Fence`).  The model captures the behaviour that
matters for the memory-system evaluation:

* compute occupies the datapath and overlaps with outstanding memory traffic,
* up to ``max_outstanding`` memory operations may be in flight (the HLS tool
  pipelines loads/stores), additional operations stall the datapath,
* a fence drains the outstanding window,
* an unresolvable translation fault aborts the thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..sim.component import Component
from ..sim.engine import Simulator
from ..sim.process import Access, Burst, Compute, Fence, ProcessState, Yield
from .memif import MemoryInterface


#: Called when the thread finishes; the argument is True for normal
#: completion and False when the thread aborted on a fatal fault.
ThreadDoneCallback = Callable[[bool], None]


@dataclass(frozen=True)
class HardwareThreadConfig:
    max_outstanding: int = 4
    start_latency: int = 10      # command-register write to first operation

    def __post_init__(self) -> None:
        if self.max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        if self.start_latency < 0:
            raise ValueError("start_latency must be non-negative")


class HardwareThread(Component):
    """Drives one kernel generator against a memory interface."""

    def __init__(self, sim: Simulator, kernel, memif: MemoryInterface,
                 config: HardwareThreadConfig | None = None,
                 name: str = "hwt"):
        super().__init__(sim, name)
        self.config = config or HardwareThreadConfig()
        self.memif = memif
        self.state = ProcessState(kernel)
        self._outstanding = 0
        self._waiting_for_slot = False
        self._waiting_for_fence = False
        self._aborted = False
        self._done_callback: Optional[ThreadDoneCallback] = None
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None

    # ------------------------------------------------------------------ run
    def start(self, on_done: Optional[ThreadDoneCallback] = None) -> None:
        """Start executing the kernel; ``on_done(ok)`` fires at completion."""
        if self.started_at is not None:
            raise RuntimeError(f"hardware thread {self.name} already started")
        self._done_callback = on_done
        self.started_at = self.sim.now
        self.state.started_at = self.sim.now
        self.count("starts")
        self.schedule(self.config.start_latency, self._advance)

    def _advance(self) -> None:
        """Fetch the next operation from the kernel and dispatch it."""
        if self._aborted:
            return
        op = self.state.advance()
        if op is None:
            self._maybe_finish()
        elif isinstance(op, Compute):
            self.count("compute_cycles", op.cycles)
            self.schedule(op.cycles, self._advance)
        elif isinstance(op, (Access, Burst)):
            self._issue_memory(op)
        elif isinstance(op, Fence):
            if self._outstanding == 0:
                self.schedule(0, self._advance)
            else:
                self._waiting_for_fence = True
        elif isinstance(op, Yield):
            self.schedule(1, self._advance)
        else:
            raise TypeError(f"kernel yielded unsupported operation {op!r}")

    # --------------------------------------------------------------- memory
    def _issue_memory(self, op: Union[Access, Burst]) -> None:
        self.count("mem_ops")
        self.count("mem_bytes",
                   op.total_bytes if isinstance(op, Burst) else op.size)
        if self._outstanding >= self.config.max_outstanding:
            # Datapath stalls until a slot frees up; remember the op.
            self._waiting_for_slot = True
            self._stalled_op = op
            self._stall_started = self.sim.now
            return
        self._outstanding += 1
        self.memif.submit(op, self._on_mem_done)
        # Memory ops are fire-and-forget within the outstanding window: the
        # datapath continues with the next operation immediately.
        self.schedule(0, self._advance)

    def _on_mem_done(self, ok: bool) -> None:
        self._outstanding -= 1
        if not ok:
            self._abort()
            return
        if self._waiting_for_slot:
            self._waiting_for_slot = False
            op = self._stalled_op
            self.sample("stall_cycles", self.sim.now - self._stall_started)
            self._outstanding += 1
            self.memif.submit(op, self._on_mem_done)
            self.schedule(0, self._advance)
            return
        if self._waiting_for_fence and self._outstanding == 0:
            self._waiting_for_fence = False
            self.schedule(0, self._advance)
            return
        if self.state.finished:
            self._maybe_finish()

    # ------------------------------------------------------------ completion
    def _maybe_finish(self) -> None:
        if not self.state.finished or self._outstanding > 0:
            return
        if self.finished_at is not None:
            return
        self.finished_at = self.sim.now
        self.state.finish(self.sim.now)
        self.set_stat("cycles", self.finished_at - (self.started_at or 0))
        self.count("completions")
        if self._done_callback is not None:
            self._done_callback(True)

    def _abort(self) -> None:
        if self._aborted:
            return
        self._aborted = True
        self.finished_at = self.sim.now
        self.count("aborts")
        if self._done_callback is not None:
            self._done_callback(False)

    # ------------------------------------------------------------------ info
    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def cycles(self) -> Optional[int]:
        if self.finished_at is None or self.started_at is None:
            return None
        return self.finished_at - self.started_at
