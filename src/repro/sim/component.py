"""Base class for simulated hardware/software components."""

from __future__ import annotations

from .engine import Simulator
from .stats import Accumulator, Counter, StatGroup


class Component:
    """A named component attached to a :class:`~repro.sim.engine.Simulator`.

    Components get a private statistics group and the simulator's
    ``schedule``; they read the time as ``self.sim.now``.  Sub-classes model
    hardware blocks (DRAM, bus, TLB, walker, accelerator threads) or
    software actors (host kernel, delegate threads).

    :meth:`count` and :meth:`sample` run several times per simulated event,
    so they write the group's dicts directly.  They still create a counter
    on its first increment and an accumulator on its first sample, and
    nothing else does: the snapshot's key set is exactly the statistics a
    run touched, and the replay tier reproduces that rule.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.stats: StatGroup = sim.stats.group(name)
        self._counters = self.stats.counters
        self._accumulators = self.stats.accumulators
        #: ``schedule(delay, callback)``: the simulator's own bound method.
        self.schedule = sim.schedule

    # ----------------------------------------------------------------- stats
    def count(self, stat: str, amount: int = 1) -> None:
        try:
            self._counters[stat].value += amount
        except KeyError:
            counter = self._counters[stat] = Counter(stat)
            counter.value += amount

    def sample(self, stat: str, value: float) -> None:
        try:
            self._accumulators[stat].add(value)
        except KeyError:
            accumulator = self._accumulators[stat] = Accumulator(stat)
            accumulator.add(value)

    def set_stat(self, stat: str, value: float) -> None:
        self.stats.scalar(stat).set(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

