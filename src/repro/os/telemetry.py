"""Scheduling telemetry: per-epoch, per-process counters from a live run.

Static scheduling policies plan the whole timeline from *estimates*
(:func:`repro.workloads.multiprocess.estimate_pressure`).  Online policies
instead replan every epoch from what the machine actually did — and this
module is the measurement path that makes that possible:

* :class:`TelemetryBus` — attached to one simulation's
  :class:`~repro.sim.stats.StatsRegistry` by the multi-process harness.  The
  epoch-driven kernel generator brackets every scheduling slice with
  :meth:`TelemetryBus.begin_slice` / :meth:`TelemetryBus.end_slice` (called
  at fence-drained instants, so every in-flight operation of the slice has
  retired), and the bus attributes the counter deltas — TLB hits/misses/
  refills, walker cycles, major/minor faults, context-switch stall cycles,
  host fabric-TLB refills — to the process that owned the accelerator.
* :class:`EpochStats` / :class:`ProcessEpoch` — one closed epoch's view,
  handed to :meth:`repro.os.scheduler.SchedulingPolicy.observe` so adaptive
  policies can replan the next epoch's quanta from measured contention.
* :class:`TelemetryTrace` — the full per-run epoch list, surfaced on
  :class:`~repro.eval.harness.SVMResult` for tests and reporting.  Summing a
  counter over every epoch reproduces the run's final statistic exactly
  (pinned by ``tests/test_telemetry.py``).

Attribution is exact because the multi-process scenario runs one accelerator:
between two drain points exactly one process issues work, so a registry-wide
delta belongs to it.  Per-process fault handlers are distinct components, so
major/minor fault attribution additionally never relies on slicing at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.stats import diff_snapshots, sum_matching


@dataclass(frozen=True)
class ProcessInfo:
    """Identity of one scheduled process: plan name + address-space ASID."""

    name: str
    asid: int
    #: Component name of the process's demand-paging fault handler.  When
    #: every process names one (the harness always does), the bus attributes
    #: major/minor faults from each process's *own* handler counters instead
    #: of the slice delta — attribution by ownership, not by timing.  With
    #: any name missing, fault deltas fall back to slice attribution.
    fault_handler: str = ""


#: The counters one slice/epoch sample carries, in reading order.
COUNTER_FIELDS: Tuple[str, ...] = (
    "tlb_hits", "tlb_misses", "tlb_refills", "walker_cycles",
    "major_faults", "minor_faults", "context_switch_stalls",
    "host_tlb_refills")


@dataclass(frozen=True)
class ProcessEpoch:
    """What one process measurably did during one scheduling epoch."""

    process: str
    asid: int
    #: Quantum the scheduler granted this epoch (cycles per slice).
    quantum: int
    #: Cycles the process owned the accelerator (drain point to drain point,
    #: context-switch stalls included).
    run_cycles: int
    #: Operations of its program executed this epoch / still outstanding.
    ops_executed: int
    remaining_ops: int
    tlb_hits: int = 0
    tlb_misses: int = 0
    tlb_refills: int = 0
    walker_cycles: int = 0
    major_faults: int = 0
    minor_faults: int = 0
    context_switch_stalls: int = 0
    host_tlb_refills: int = 0

    @property
    def miss_rate(self) -> float:
        """Demand TLB misses per kilocycle of measured runtime (0 if idle)."""
        if self.run_cycles <= 0:
            return 0.0
        return 1000.0 * self.tlb_misses / self.run_cycles

    @property
    def misses_per_quantum(self) -> float:
        """Demand TLB misses normalised to the granted quantum."""
        if self.quantum <= 0:
            return 0.0
        return self.tlb_misses / self.quantum


@dataclass(frozen=True)
class EpochStats:
    """One closed scheduling epoch: per-process samples plus epoch context."""

    epoch: int
    start_cycle: int
    end_cycle: int
    #: The scheduler's base quantum (``SchedulerConfig.quantum``): the
    #: reference point adaptive policies scale from.
    base_quantum: int
    processes: Tuple[ProcessEpoch, ...]

    @property
    def duration_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def host_tlb_refills(self) -> int:
        """Host-CPU fabric-TLB refills observed this epoch (all processes)."""
        return sum(p.host_tlb_refills for p in self.processes)

    @property
    def host_refill_rate(self) -> float:
        """Host fabric-TLB refills per kilocycle of epoch time."""
        if self.duration_cycles <= 0:
            return 0.0
        return 1000.0 * self.host_tlb_refills / self.duration_cycles

    def process(self, name: str) -> ProcessEpoch:
        for sample in self.processes:
            if sample.process == name:
                return sample
        raise KeyError(f"no process {name!r} in epoch {self.epoch}")

    def total(self, counter: str) -> int:
        """Sum one :data:`COUNTER_FIELDS` counter over every process."""
        return sum(getattr(p, counter) for p in self.processes)


@dataclass
class TelemetryTrace:
    """Every epoch of one multi-process run, in order (picklable)."""

    processes: Tuple[ProcessInfo, ...]
    epochs: List[EpochStats] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def totals(self) -> Dict[str, int]:
        """Per-counter sums over all epochs and processes."""
        return {counter: sum(epoch.total(counter) for epoch in self.epochs)
                for counter in COUNTER_FIELDS}

    def process_totals(self, name: str) -> Dict[str, int]:
        """Per-counter sums over all epochs for one process."""
        samples = [epoch.process(name) for epoch in self.epochs]
        out = {counter: sum(getattr(s, counter) for s in samples)
               for counter in COUNTER_FIELDS}
        out["ops_executed"] = sum(s.ops_executed for s in samples)
        out["run_cycles"] = sum(s.run_cycles for s in samples)
        return out

    def quanta_history(self, name: str) -> List[int]:
        """The quantum each epoch granted ``name`` (the policy's decisions)."""
        return [epoch.process(name).quantum for epoch in self.epochs]


def epoch_fairness(trace: TelemetryTrace) -> float:
    """Mean per-epoch Jain fairness of run-cycle allocation.

    For each epoch with any run time, Jain's index over the per-process
    ``run_cycles`` shares — 1.0 when every process ran equally long, 1/n
    when one process monopolized the epoch — averaged over those epochs.
    An idle trace (no epochs, or only zero-run epochs) scores a neutral
    1.0: nothing ran, so nothing was treated unfairly.
    """
    indices: List[float] = []
    for epoch in trace.epochs:
        shares = [p.run_cycles for p in epoch.processes]
        total = sum(shares)
        if total <= 0 or not shares:
            continue
        squared = sum(s * s for s in shares)
        indices.append((total * total) / (len(shares) * squared))
    if not indices:
        return 1.0
    return sum(indices) / len(indices)


class TelemetryBus:
    """Collects per-slice counter deltas and closes them into epochs.

    The bus is deliberately passive: it never schedules events and costs the
    simulated system nothing.  The epoch-driven kernel generator calls it at
    instants where the fabric is drained, which is what makes registry-wide
    deltas attributable to the single active process.

    ``clock`` reads the current cycle (default: ``sim.now``).  The replay
    tier runs the fabric outside the simulator's event loop and passes its
    engine's clock instead.
    """

    def __init__(self, sim, processes: Sequence[ProcessInfo],
                 base_quantum: int,
                 clock: Optional[Callable[[], int]] = None):
        self.sim = sim
        self.clock = clock or (lambda: sim.now)
        self.processes = tuple(processes)
        self.base_quantum = base_quantum
        self.trace = TelemetryTrace(processes=self.processes)
        #: Fault counters come from each process's own handler component
        #: when every process names one; else from slice attribution.
        self._per_handler = all(info.fault_handler for info in self.processes)
        self._epoch_index = 0
        self._epoch_start = self.clock()
        self._active: Optional[str] = None
        self._accumulated: Dict[str, Dict[str, int]] = {}
        self._granted: Dict[str, int] = {}
        self._ops: Dict[str, int] = {}
        self._last = self._read()
        self._last_now = self.clock()

    # ------------------------------------------------------------- sampling
    def _read(self) -> Dict[str, float]:
        """Aggregate the registry into the bus's counter namespace."""
        snap = self.sim.stats.snapshot()
        out = {
            "tlb_hits": sum_matching(snap, "mmu.", "tlb_hits"),
            "tlb_misses": sum_matching(snap, "mmu.", "tlb_misses"),
            "tlb_refills": sum_matching(snap, "mmu.", "tlb_refills"),
            "walker_cycles": sum_matching(snap, "ptw.", "walk_cycles"),
            "major_faults": sum_matching(snap, "os.", "major_faults"),
            "minor_faults": sum_matching(snap, "os.", "minor_faults"),
            "context_switch_stalls": snap.get(
                "os.kernel.cycles.context_switch", 0.0),
            "host_tlb_refills": snap.get("os.kernel.host_tlb_refills", 0.0),
        }
        if self._per_handler:
            for info in self.processes:
                for counter in ("major_faults", "minor_faults"):
                    out[f"{counter}::{info.name}"] = snap.get(
                        f"{info.fault_handler}.{counter}", 0.0)
        return out

    def begin_slice(self, process: str, quantum: int, ops: int) -> None:
        """Open a slice for ``process``; must follow a drained instant.

        Anything charged between the previous slice's end and this slice's
        first operation (the context-switch cost in particular) is attributed
        to the incoming process: it is the price of scheduling it.
        """
        if self._active is not None:
            raise RuntimeError("begin_slice while a slice is open")
        self._active = process
        self._granted[process] = quantum
        self._ops[process] = self._ops.get(process, 0) + ops

    def end_slice(self) -> None:
        """Close the open slice at a drained instant and attribute deltas.

        Registry-wide deltas go to the active process (it is the only one
        that ran); major/minor faults are instead taken from each process's
        *own* fault-handler counters when handler names are known — the two
        attributions agree on a single accelerator, but ownership is the
        stronger claim and stays correct even if fault service outlives a
        slice.
        """
        if self._active is None:
            raise RuntimeError("end_slice without begin_slice")
        now_read = self._read()
        delta = diff_snapshots(now_read, self._last)
        slice_counters = tuple(
            counter for counter in COUNTER_FIELDS
            if not (self._per_handler
                    and counter in ("major_faults", "minor_faults")))
        bucket = self._accumulated.setdefault(
            self._active, {counter: 0 for counter in COUNTER_FIELDS})
        for counter in slice_counters:
            bucket[counter] += int(delta.get(counter, 0))
        now = self.clock()
        bucket["run_cycles"] = bucket.get("run_cycles", 0) + now - self._last_now
        if self._per_handler:
            for info in self.processes:
                for counter in ("major_faults", "minor_faults"):
                    faults = int(delta.get(f"{counter}::{info.name}", 0))
                    if faults:
                        owner = self._accumulated.setdefault(
                            info.name,
                            {field: 0 for field in COUNTER_FIELDS})
                        owner[counter] += faults
        self._last = now_read
        self._last_now = now
        self._active = None

    def close_epoch(self, remaining: Mapping[str, int]) -> EpochStats:
        """Seal the current epoch into an :class:`EpochStats` and reset."""
        if self._active is not None:
            raise RuntimeError("close_epoch with a slice still open")
        samples = []
        for info in self.processes:
            bucket = self._accumulated.get(info.name, {})
            samples.append(ProcessEpoch(
                process=info.name, asid=info.asid,
                quantum=self._granted.get(info.name, 0),
                run_cycles=bucket.get("run_cycles", 0),
                ops_executed=self._ops.get(info.name, 0),
                remaining_ops=int(remaining.get(info.name, 0)),
                **{counter: bucket.get(counter, 0)
                   for counter in COUNTER_FIELDS}))
        now = self.clock()
        stats = EpochStats(epoch=self._epoch_index,
                           start_cycle=self._epoch_start,
                           end_cycle=now,
                           base_quantum=self.base_quantum,
                           processes=tuple(samples))
        self.trace.epochs.append(stats)
        self._epoch_index += 1
        self._epoch_start = now
        self._accumulated = {}
        self._granted = {}
        self._ops = {}
        return stats
