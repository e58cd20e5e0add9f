"""Event-driven, cycle-level simulation engine.

The engine keeps a priority queue of events.  All timing in the model is
expressed in clock cycles of a single global clock domain (the paper's
platform runs the fabric and the memory subsystem from one clock; the host
CPU is modelled with a cycle-ratio, see :mod:`repro.baselines.software`).

Components never busy-tick: every interaction is an event, so simulation cost
scales with the number of transactions, not with the number of cycles.

Invariants the hot path keeps:

* Events run in ``(cycle, seq)`` order, ``seq`` counting schedule calls:
  same-cycle events run first in, first out, so a zero delay runs later in
  the same cycle, after every event already scheduled for it.
* Delays are whole cycles: ints and any other type with ``__index__``
  pass, a float raises.
* A queue entry is its :class:`Event` handle, the list
  ``[cycle, seq, callback]``, which the heap compares as a list, in C
  (``seq`` is unique, so callbacks are never compared).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import index
from typing import Callable, Optional

from .stats import StatsRegistry


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


#: The callback slot of a cancelled event.  Taking an event off the queue to
#: run it sets the slot to None.
_CANCELLED = False


class Event(list):
    """A scheduled event, ``[cycle, seq, callback]``, and its handle."""

    __slots__ = ()

    @property
    def cycle(self) -> int:
        return self[0]

    @property
    def cancelled(self) -> bool:
        return self[2] is _CANCELLED

    def cancel(self) -> None:
        """Prevent the event's callback from running.

        A no-op once the event has been taken off the queue: there is
        nothing left to cancel.
        """
        if self[2] is not None:
            self[2] = _CANCELLED


class Simulator:
    """Global event queue and clock.

    ``now`` is the current simulation time in cycles; only the engine
    advances it.

    Parameters
    ----------
    max_cycles:
        Safety limit; :meth:`run` raises :class:`SimulationError` if the
        simulation has not quiesced by this cycle.  ``None`` disables the
        limit.
    """

    def __init__(self, max_cycles: Optional[int] = None):
        self._queue: list[Event] = []
        self._seq = 0
        self.now = 0
        self._max_cycles = max_cycles
        self.stats = StatsRegistry()

    # ------------------------------------------------------------------ time
    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        ``delay`` must be a non-negative integer; a zero delay runs later in
        the same cycle (after all previously scheduled same-cycle events).
        """
        try:
            delay = index(delay)
        except TypeError:
            raise TypeError(f"delay must be a whole number of cycles, "
                            f"got {delay!r}") from None
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        event = Event((self.now + delay, seq, callback))
        heappush(self._queue, event)
        return event

    def schedule_at(self, cycle: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute cycle (must not be in the past)."""
        if cycle < self.now:
            raise ValueError(f"cannot schedule in the past: {cycle} < {self.now}")
        return self.schedule(cycle - self.now, callback)

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queue drains (or until the given cycle).

        Returns the cycle at which the simulation stopped.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run backwards: until={until} < now={self.now}")
        queue = self._queue
        max_cycles = self._max_cycles
        while queue:
            event = queue[0]
            cycle = event[0]
            if until is not None and cycle > until:
                self.now = until
                return until
            heappop(queue)
            callback = event[2]
            if callback is _CANCELLED:
                continue
            event[2] = None
            if max_cycles is not None and cycle > max_cycles:
                raise self._exceeded(cycle)
            self.now = cycle
            callback()
        return self.now

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty.

        Honours ``max_cycles`` exactly like :meth:`run`: single-stepping past
        the safety limit raises :class:`SimulationError` instead of silently
        executing the event.
        """
        queue = self._queue
        while queue:
            event = heappop(queue)
            callback = event[2]
            if callback is _CANCELLED:
                continue
            event[2] = None
            if self._max_cycles is not None and event[0] > self._max_cycles:
                raise self._exceeded(event[0])
            self.now = event[0]
            callback()
            return True
        return False

    def _exceeded(self, cycle: int) -> SimulationError:
        return SimulationError(
            f"simulation exceeded max_cycles={self._max_cycles} "
            f"(next event at {cycle})")

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(event[2] is not _CANCELLED for event in self._queue)
