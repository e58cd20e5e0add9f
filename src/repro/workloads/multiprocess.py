"""Multi-process workloads: N address spaces time-sliced onto one accelerator.

The single-process evaluation never exercises what the PR-1 ASID semantics
exist for: several host processes whose hardware-thread work shares one
fabric TLB.  This module provides that scenario as a first-class workload
family:

* :class:`MultiProcessSpec` — a frozen, picklable description of one workload
  per process, per-process demand weights, the OS scheduling quantum and the
  scheduling *policy* (any name in the
  :mod:`repro.os.scheduler` registry: round-robin, weighted-fair,
  fault-aware, or anything registered later),
* :class:`ProcessInputs` — what the schedulers read of one process: its
  operation list, measured once into demand and translation-pressure
  estimates and the prefix sums that cut slices by bisection,
* :func:`slice_plan` — the OS's time-slicing decision.  The selected policy
  produces the single-core slice timeline from the processes' estimates;
  each slice is then realised as a run of operations,
* :func:`time_sliced_kernel` — replays the plan as one kernel generator: at
  every process boundary it drains outstanding memory traffic (``Fence``),
  invokes the supplied switch hook (the harness re-points the MMU at the next
  process's page table — *without* flushing the shared, ASID-tagged TLB) and
  pays the context-switch stall,
* :func:`adaptive_time_sliced_kernel` — the online alternative: it chooses
  each epoch's slices from live telemetry and yields them whole, as
  ``(process, start, end)``; :func:`expand_slices` turns them into the
  event tier's kernel.

The result is the paper's TLB contention story end to end, at any process
count: translations of N address spaces collide in one TLB, survive each
other's time slices via ASID tags, and die only under targeted or wildcard
shootdowns.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..os.scheduler import SCHEDULER_POLICIES, SchedulerConfig, ThreadDemand, get_policy
from ..sim.process import Access, Burst, Compute, Fence, KernelGenerator, Operation
from .specs import WorkloadSpec
from .suite import workload


@dataclass(frozen=True)
class MultiProcessSpec:
    """One workload per process, contending for a single accelerator.

    A single-process spec (``len(specs) == 1``) is allowed as the
    no-contention control point of process-count sweeps (Fig. 12's N=1).
    """

    name: str
    specs: Tuple[WorkloadSpec, ...]
    #: OS scheduling quantum in (estimated) fabric cycles.
    quantum: int = 20_000
    #: Scheduling policy name (``repro.os.scheduler`` registry).
    policy: str = "round-robin"
    #: Relative demand weight per process (None = equal).  Consumed by
    #: weight-sensitive policies such as ``weighted-fair``.
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a multi-process workload needs >= 1 process")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if self.policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown scheduler policy {self.policy!r}; registered: "
                f"{', '.join(sorted(SCHEDULER_POLICIES))}")
        if self.weights is not None:
            if len(self.weights) != len(self.specs):
                raise ValueError("weights must match the number of processes")
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive")

    @property
    def num_processes(self) -> int:
        return len(self.specs)

    @property
    def work_items(self) -> int:
        return sum(spec.work_items for spec in self.specs)

    @property
    def kernel(self) -> str:
        """Representative kernel name (used for HLS schedules/resources)."""
        return self.specs[0].kernel

    def weight_of(self, index: int) -> float:
        return 1.0 if self.weights is None else self.weights[index]


def contention(kernels: Sequence[str], scale: str = "tiny",
               quantum: int = 20_000, policy: str = "round-robin",
               weights: Optional[Sequence[float]] = None,
               residency: float = 1.0, seed: int = 7,
               **overrides: int) -> MultiProcessSpec:
    """N processes, one per kernel name, contending for one accelerator.

    Repeating a kernel name is the adversarial case: those address spaces map
    the *same* virtual page numbers (allocation is deterministic per space),
    so any TLB not keyed by ASID would hand one process another's frames.
    Each process gets a distinct workload seed so data-dependent kernels
    (linked_list, random_access) still differ.
    """
    if not kernels:
        raise ValueError("contention() needs at least one kernel")
    specs = tuple(workload(kernel, scale=scale, residency=residency,
                           seed=seed + index, **overrides)
                  for index, kernel in enumerate(kernels))
    return MultiProcessSpec(name="+".join(kernels), specs=specs,
                            quantum=quantum, policy=policy,
                            weights=None if weights is None else tuple(weights))


def duet(kernel_a: str, kernel_b: str | None = None, scale: str = "tiny",
         quantum: int = 20_000, residency: float = 1.0,
         seed: int = 7, **overrides: int) -> MultiProcessSpec:
    """Two processes running ``kernel_a`` and ``kernel_b`` (default: same)."""
    kernel_b = kernel_b or kernel_a
    return contention((kernel_a, kernel_b), scale=scale, quantum=quantum,
                      residency=residency, seed=seed, **overrides)


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------
def _op_demand(op: Operation) -> int:
    if isinstance(op, Compute):
        return op.cycles
    if isinstance(op, Burst):
        return 1 + op.total_bytes // 8
    if isinstance(op, Access):
        return 1 + op.size // 8
    return 1


def estimate_demand(ops: Iterable[Operation]) -> int:
    """Rough fabric-cycle demand of an operation list.

    Only *relative* accuracy matters: the estimate shapes how many operations
    fall into each scheduler slice, not any reported cycle count.
    """
    return sum(map(_op_demand, ops))


#: Upper bound on an estimated pressure value.  A degenerate near-zero-cycle
#: process (the N=1 control running a trivial kernel, say) would otherwise
#: divide a page count by almost nothing and hand ``fault-aware`` an
#: effectively infinite pressure — which turns into absurd quanta for its
#: neighbours.  Real workloads sit orders of magnitude below this cap.
MAX_PRESSURE = 1.0e6


def estimate_pressure(ops: Sequence[Operation],
                      page_size: int = 4096) -> float:
    """Translation pressure: distinct pages touched per kilocycle of demand.

    This is what a miss-driven scheduling policy can actually observe ahead
    of time: a process sweeping many distinct pages per cycle of work will
    miss (and fault) the most in a shared fabric TLB.  Zero-demand operation
    lists have zero pressure, and the estimate saturates at
    :data:`MAX_PRESSURE`, so downstream policies can never see a division
    blow-up from a trivial process.
    """
    pages = set()
    for op in ops:
        if isinstance(op, Access):
            pages.add(op.addr // page_size)
            pages.add((op.addr + max(0, op.size - 1)) // page_size)
        elif isinstance(op, Burst):
            first = op.addr // page_size
            last = (op.addr + max(0, op.total_bytes - 1)) // page_size
            pages.update(range(first, last + 1))
    demand = estimate_demand(ops)
    if demand <= 0:
        return 0.0
    return min(MAX_PRESSURE, 1000.0 * len(pages) / demand)


@dataclass(frozen=True)
class ProcessInputs:
    """What the schedulers read of one process, measured once from its ops.

    The multi-process harness keeps one per (workload spec, page size) in
    the store beside the replay program cache
    (:func:`repro.fastpath.record.process_inputs`), so runs, and processes
    within a run, that schedule the same spec share it; each keeps its own
    cursor into ``ops``.  Nothing may mutate ``ops`` or its operations.
    """

    #: The process's operations in program order.
    ops: List[Operation]
    #: ``prefix[i]`` sums each op's chunking weight, ``max(1,
    #: _op_demand(op))``, over ``ops[:i]`` (``len(ops) + 1`` entries).
    prefix: List[int]
    #: :func:`estimate_demand` of ``ops``.
    demand: int
    #: :func:`estimate_pressure` of ``ops`` at the page size it was built for.
    pressure: float

    @classmethod
    def of(cls, ops: List[Operation],
           page_size: int = 4096) -> "ProcessInputs":
        """Measure ``ops``, with pressure counted in ``page_size`` pages."""
        demands = [_op_demand(op) for op in ops]
        return cls(ops=ops,
                   prefix=list(accumulate((max(1, d) for d in demands),
                                          initial=0)),
                   demand=sum(demands),
                   pressure=estimate_pressure(ops, page_size))

    def __len__(self) -> int:
        """The op count, by which the shared store budget sizes an entry."""
        return len(self.ops)


def thread_demands(inputs: Sequence[ProcessInputs],
                   weights: Optional[Sequence[float]] = None
                   ) -> List[ThreadDemand]:
    """Per-process static demand/pressure estimates, as policies consume them.

    The shared front half of both scheduling paths: the static planner
    (:func:`slice_plan`) feeds these to ``policy.plan``, and the epoch-driven
    adaptive path feeds them to ``policy.quanta`` for the *initial* epoch —
    so an adaptive policy starts from exactly the footing its static
    counterpart would, and every later epoch is pure measurement.  Both
    estimates are read off each process's :class:`ProcessInputs`, where
    they were computed once.
    """
    return [ThreadDemand(name=str(index),
                         demand_cycles=max(1, process.demand),
                         weight=(1.0 if weights is None else weights[index]),
                         pressure=process.pressure)
            for index, process in enumerate(inputs)]


#: One planned slice: (process index, operations it executes).
SlicePlan = List[Tuple[int, List[Operation]]]

#: One adaptive slice: (process index, start, end), the half-open range of
#: that process's op list (and, op for op, of its replay program) it runs.
Slice = Tuple[int, int, int]


def _take_chunk(inputs: ProcessInputs, cursor: int, budget: int) -> int:
    """Where the chunk starting at ``cursor`` ends once ``budget`` is spent.

    The one greedy chunking rule mapping scheduler quanta onto operations,
    shared by the static planner (:func:`slice_plan`) and the epoch-driven
    adaptive path (:func:`adaptive_time_sliced_kernel`) so the two can never
    map quanta onto operations differently.  Operations are taken from
    ``cursor`` while budget is left, each costing ``max(1, _op_demand(op))``
    estimated cycles: the chunk ends at the first op boundary where the
    spent cost reaches ``budget``, or at the end of the list.  Costs are at
    least 1, so the prefix sums rise strictly and one bisection finds that
    boundary.  A budget of zero or less takes nothing.
    """
    prefix = inputs.prefix
    return bisect_left(prefix, prefix[cursor] + budget, cursor,
                       len(inputs.ops))


def slice_plan(op_lists: Sequence[Union[List[Operation], ProcessInputs]],
               quantum: int = 20_000,
               policy: str = "round-robin",
               weights: Optional[Sequence[float]] = None,
               page_size: int = 4096) -> SlicePlan:
    """Time-slice per-process operation lists with a registered OS policy.

    A single accelerator slot (``num_cores=1``) is shared per the policy's
    plan; the scheduler's cycle timeline is mapped back onto operations using
    the same demand estimate it was fed.  Every operation of every process
    appears in exactly one slice, in program order.  Each entry of
    ``op_lists`` is a process's operation list, measured here at
    ``page_size``, or its already measured :class:`ProcessInputs`.
    """
    inputs = [ops if isinstance(ops, ProcessInputs)
              else ProcessInputs.of(ops, page_size) for ops in op_lists]
    timeline = get_policy(policy).plan(
        thread_demands(inputs, weights),
        SchedulerConfig(num_cores=1, quantum=quantum, context_switch_cycles=0))

    cursors = [0] * len(inputs)
    plan: SlicePlan = []
    for time_slice in timeline:
        index = int(time_slice.thread)
        start = cursors[index]
        end = cursors[index] = _take_chunk(inputs[index], start,
                                           time_slice.cycles)
        if end > start:
            plan.append((index, inputs[index].ops[start:end]))
    # Estimation rounding can strand a tail of operations; run each tail in
    # one final slice so the plan always covers the full program.
    for index, process in enumerate(inputs):
        if cursors[index] < len(process.ops):
            plan.append((index, process.ops[cursors[index]:]))
    return plan


def time_sliced_kernel(plan: SlicePlan,
                       on_switch: Callable[[int], int]) -> KernelGenerator:
    """Replay a slice plan as one kernel generator.

    ``on_switch(process)`` is invoked at every process boundary — after a
    ``Fence`` has drained the outgoing process's outstanding operations — and
    returns the context-switch stall in fabric cycles.  The switch hook runs
    when the generator is advanced past the fence, i.e. exactly at the point
    the OS would perform the switch.  Process 0 is the one running at the
    start, so a plan that opens with it pays no switch.
    """
    def generate() -> KernelGenerator:
        current = 0
        for process, ops in plan:
            if process != current:
                yield Fence()
                stall = on_switch(process)
                current = process
                if stall > 0:
                    yield Compute(cycles=stall)
            yield from ops
    return generate()


# ---------------------------------------------------------------------------
# Online (epoch-driven) slicing
# ---------------------------------------------------------------------------
def adaptive_time_sliced_kernel(inputs: Sequence[ProcessInputs],
                                policy,
                                config: SchedulerConfig,
                                bus,
                                weights: Optional[Sequence[float]] = None
                                ) -> Iterator[Slice]:
    """Replan the time-slicing every epoch from live telemetry.

    Unlike :func:`time_sliced_kernel`, no complete plan exists up front: one
    *epoch* (a rotation granting every unfinished process one quantum-sized
    run of operations) is materialised at a time.  Each slice is yielded
    whole, as ``(process, start, end)`` over that process's op list, once
    ``bus.begin_slice`` has opened it.  The consumer runs the slice (a
    process change first switches context) and ends it with a ``Fence``;
    it resumes this generator only once the fabric has drained, where
    ``bus.end_slice`` closes the slice, so the counter deltas the
    :class:`~repro.os.telemetry.TelemetryBus` attributes to it are exact.
    After each epoch ``policy.observe(epoch_stats)`` may return new
    per-process quanta (clamped to >= 1) for the next epoch.

    The initial quanta come from ``policy.quanta`` over the same static
    demand estimates the static planner uses.  Generators advance lazily,
    so each epoch's slices are chosen *after* the previous epoch's have
    executed — this is what makes the feedback genuinely online.  This is
    the one adaptive kernel: the event tier expands its slices into
    operations (:func:`expand_slices`), and the replay tier's
    :class:`~repro.fastpath.replay.SliceFeed` lowers each with one list
    slice of the process's program.
    """
    demands = thread_demands(inputs, weights)
    initial = policy.quanta(demands, config)
    quanta = {d.name: max(1, initial[d.name]) for d in demands}
    sizes = [len(process.ops) for process in inputs]

    def generate() -> Iterator[Slice]:
        cursors = [0] * len(inputs)
        while any(cursor < size for cursor, size in zip(cursors, sizes)):
            for index, process in enumerate(inputs):
                start = cursors[index]
                if start >= sizes[index]:
                    continue
                quantum = quanta[str(index)]
                end = cursors[index] = _take_chunk(process, start, quantum)
                bus.begin_slice(str(index), quantum, end - start)
                yield index, start, end
                # The generator is only resumed here once every operation of
                # the slice has retired: the drained instant.
                bus.end_slice()
            epoch = bus.close_epoch(
                remaining={str(i): sizes[i] - cursors[i]
                           for i in range(len(inputs))})
            replanned = policy.observe(epoch)
            if replanned:
                for name, value in replanned.items():
                    if name in quanta:
                        quanta[name] = max(1, int(value))
    return generate()


def expand_slices(slices: Iterator[Slice],
                  op_lists: Sequence[List[Operation]],
                  on_switch: Callable[[int], int]) -> KernelGenerator:
    """The event tier's kernel over :func:`adaptive_time_sliced_kernel`.

    Each slice becomes its process's operations and a ``Fence``; advancing
    past that fence, at the drained instant, resumes the slice generator.
    A slice of a process other than the running one first calls
    ``on_switch(process)`` and yields the stall it returns as ``Compute``,
    so the switch cost lands on the incoming slice.  ``on_switch`` has the
    same contract as in :func:`time_sliced_kernel`.
    """
    current = 0
    for process, start, end in slices:
        if process != current:
            stall = on_switch(process)
            current = process
            if stall > 0:
                yield Compute(cycles=stall)
        yield from op_lists[process][start:end]
        yield Fence()
