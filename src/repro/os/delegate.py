"""Delegate threads: the OS-side proxy of each hardware thread.

In the paper's runtime every hardware thread is represented inside the host
process by a *delegate* software thread.  The delegate performs the POSIX-like
lifecycle on the hardware thread's behalf (create, pass arguments, start,
join) and is the software endpoint of the fault-delegation path.  The model
charges the corresponding driver costs before/after the fabric execution so
the end-to-end numbers include software overhead, as the paper's do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.component import Component
from ..sim.engine import Simulator
from .address_space import AddressSpace, VMArea
from .kernel import HostKernel


@dataclass
class ThreadArguments:
    """Argument block passed to a hardware thread (plain virtual pointers)."""

    pointers: Dict[str, int] = field(default_factory=dict)
    scalars: Dict[str, int] = field(default_factory=dict)

    def pointer(self, name: str) -> int:
        return self.pointers[name]

    def scalar(self, name: str) -> int:
        return self.scalars[name]


@dataclass
class ThreadCompletion:
    """Record of a hardware thread's lifecycle as seen by its delegate."""

    name: str
    created_at: int
    started_at: int
    finished_at: Optional[int] = None
    joined_at: Optional[int] = None

    @property
    def fabric_cycles(self) -> Optional[int]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def wall_cycles(self) -> Optional[int]:
        if self.joined_at is None:
            return None
        return self.joined_at - self.created_at


class DelegateThread(Component):
    """Software proxy that owns one hardware thread's lifecycle."""

    def __init__(self, sim: Simulator, kernel: HostKernel, space: AddressSpace,
                 thread_name: str, name: Optional[str] = None):
        super().__init__(sim, name or f"delegate.{thread_name}")
        self.kernel = kernel
        self.space = space
        self.thread_name = thread_name
        self.completion: Optional[ThreadCompletion] = None
        self._on_joined: List[Callable[[ThreadCompletion], None]] = []

    # -------------------------------------------------------------- lifecycle
    def create_and_start(self, start_fabric: Callable[[Callable[[], None]], None],
                         pinned_areas: Optional[List[VMArea]] = None,
                         prefetch_pages: int = 0) -> ThreadCompletion:
        """Run the create → (pin/prefetch) → start → completion sequence.

        ``start_fabric(done)`` must start the fabric-side hardware thread and
        call ``done()`` when it finishes.  The returned record is filled in
        as the lifecycle progresses.
        """
        created_at = self.sim.now
        setup = self.kernel.cost_hw_thread_create()
        if pinned_areas:
            for area in pinned_areas:
                self.space.pin(area)
                setup += self.kernel.cost_pin(area, self.space)
        if prefetch_pages:
            setup += self.kernel.cost_prefetch(prefetch_pages)

        completion = ThreadCompletion(name=self.thread_name,
                                      created_at=created_at,
                                      started_at=created_at + setup)
        self.completion = completion
        self.count("threads_started")

        def launch() -> None:
            start_fabric(lambda: self._on_fabric_done(completion))

        self.schedule(setup, launch)
        return completion

    def _on_fabric_done(self, completion: ThreadCompletion) -> None:
        completion.finished_at = self.sim.now
        join_cost = self.kernel.cost_hw_thread_join()

        def joined() -> None:
            completion.joined_at = self.sim.now
            self.count("threads_joined")
            self.sample("wall_cycles", completion.wall_cycles or 0)
            for hook in self._on_joined:
                hook(completion)

        self.schedule(join_cost, joined)

    def on_joined(self, hook: Callable[[ThreadCompletion], None]) -> None:
        self._on_joined.append(hook)

    # ------------------------------------------------------------------ info
    @property
    def joined(self) -> bool:
        return self.completion is not None and self.completion.joined_at is not None
