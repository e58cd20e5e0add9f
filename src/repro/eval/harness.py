"""Execution harness: run one workload under every execution model.

Each run builds a *fresh* platform (so statistics and DRAM/bus state never
leak between models), binds the workload's buffers into the process address
space, and executes:

* ``svm``      — the paper's system: hardware thread + MMU (TLB/walker/faults),
* ``ideal``    — same datapath, zero-cost translation (VM overhead reference),
* ``copydma``  — conventional copy-in / compute / copy-out accelerator,
* ``software`` — the kernel running on the host CPU.

Results are returned as plain dataclasses holding cycle counts and the
derived metrics the evaluation section reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..baselines.common import run_physically_addressed
from ..baselines.copydma import CopyDMAAccelerator, CopyDMARunResult
from ..baselines.software import SoftwareCPU, SoftwareCPUConfig
from ..core.platform import Platform, PlatformConfig
from ..core.spec import SystemSpec, ThreadSpec, size_tlb_for_footprint
from ..core.synthesis import SystemRunResult, SystemSynthesizer
from ..models import CANONICAL_MODELS, TIERS, RunOutcome
from ..os.scheduler import SchedulerConfig, get_policy
from ..os.telemetry import (ProcessInfo, TelemetryBus, TelemetryTrace,
                            epoch_fairness)
from ..sim.process import run_functional
from ..sim.stats import sum_matching
from ..workloads.multiprocess import (MultiProcessSpec, ProcessInputs,
                                      adaptive_time_sliced_kernel,
                                      expand_slices, slice_plan,
                                      time_sliced_kernel)
from ..workloads.specs import BoundWorkload, WorkloadSpec

if TYPE_CHECKING:
    from ..exec.runner import SweepRunner


@dataclass(frozen=True)
class HarnessConfig:
    """Knobs shared by all harness entry points."""

    platform: PlatformConfig = field(default_factory=PlatformConfig)
    tlb_entries: int = 16
    tlb_associativity: Optional[int] = None
    tlb_replacement: str = "lru"
    max_outstanding: int = 4
    max_burst_bytes: int = 256
    shared_walker: bool = False
    #: One ASID-tagged fabric TLB shared by every hardware thread.
    shared_tlb: bool = False
    #: The host CPU probes/refills that fabric TLB too (implies one shared
    #: TLB): pinning and fault service contend for its capacity.
    host_shares_tlb: bool = False
    #: MMU translation-prefetch depth (0 = no prefetcher).
    tlb_prefetch: int = 0
    auto_size_tlb: bool = False
    pin_all: bool = False
    prefetch_pages: int = 0
    software: SoftwareCPUConfig = field(default_factory=SoftwareCPUConfig)

    def thread_spec(self, name: str, kernel: str,
                    footprint_bytes: Optional[int] = None) -> ThreadSpec:
        entries = self.tlb_entries
        if self.auto_size_tlb and footprint_bytes:
            entries = size_tlb_for_footprint(footprint_bytes,
                                             self.platform.page_size)
        return ThreadSpec(name=name, kernel=kernel, tlb_entries=entries,
                          tlb_associativity=self.tlb_associativity,
                          tlb_replacement=self.tlb_replacement,
                          max_outstanding=self.max_outstanding,
                          max_burst_bytes=self.max_burst_bytes,
                          tlb_prefetch=self.tlb_prefetch)


@dataclass
class SVMResult:
    """Result of running a workload on the SVM hardware-thread system."""

    total_cycles: int
    fabric_cycles: int
    tlb_hit_rate: float
    tlb_misses: int
    faults: int
    software_overhead_cycles: int
    system_result: SystemRunResult
    # Translation-machinery detail (aggregated over threads/walkers); the
    # SVM-family execution models surface these through RunOutcome.breakdown.
    walks: int = 0
    walker_levels: int = 0
    walker_cycles: int = 0
    miss_stall_cycles: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    context_switches: int = 0
    #: Per-epoch scheduling telemetry (adaptive multi-process runs only).
    telemetry: Optional[TelemetryTrace] = None
    #: Which execution tier produced this result ("event" or "replay").
    tier: str = "event"
    #: Why the replay tier was not used (set when ``tier="auto"`` fell back).
    tier_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.system_result.ok

    def translation_breakdown(self) -> Dict[str, object]:
        """The walker/prefetch detail as a plain mapping (for ``breakdown``)."""
        out = {"walks": self.walks,
               "walker_levels": self.walker_levels,
               "walker_cycles": self.walker_cycles,
               "miss_stall_cycles": self.miss_stall_cycles,
               "prefetches_issued": self.prefetches_issued,
               "prefetch_hits": self.prefetch_hits,
               "context_switches": self.context_switches}
        if self.telemetry is not None:
            out["epochs"] = self.telemetry.num_epochs
            # Telemetry-derived DSE objectives: total host-CPU fabric-TLB
            # refills and per-epoch scheduling fairness travel with the
            # outcome so DseObjectives can read them off any RunOutcome.
            out["host_tlb_refills"] = self.telemetry.totals()[
                "host_tlb_refills"]
            out["epoch_fairness"] = epoch_fairness(self.telemetry)
        return out


#: Row-column names for the canonical models (kept stable for golden data).
_MODEL_COLUMNS = {"software": "software", "copydma": "copy_dma",
                  "svm": "svm_thread", "ideal": "ideal"}


@dataclass
class ComparisonResult:
    """Execution models on one workload, plus derived speedups.

    ``outcomes`` maps model name to its :class:`~repro.models.RunOutcome`;
    any registered model can appear.  The derived speedup/overhead metrics
    are defined whenever the canonical models they relate are present.
    """

    workload: str
    outcomes: Dict[str, RunOutcome]

    def __getitem__(self, model: str) -> RunOutcome:
        return self.outcomes[model]

    @property
    def models(self) -> List[str]:
        return list(self.outcomes)

    # ------------------------------------------------- canonical shorthands
    @property
    def svm(self) -> RunOutcome:
        return self.outcomes["svm"]

    @property
    def software_cycles(self) -> int:
        return self.outcomes["software"].total_cycles

    @property
    def copydma_cycles(self) -> int:
        return self.outcomes["copydma"].total_cycles

    @property
    def svm_cycles(self) -> int:
        return self.outcomes["svm"].total_cycles

    @property
    def ideal_cycles(self) -> int:
        return self.outcomes["ideal"].total_cycles

    # --------------------------------------------------------- derived
    @property
    def speedup_vs_software(self) -> float:
        return self.software_cycles / self.svm_cycles if self.svm_cycles else 0.0

    @property
    def speedup_vs_copydma(self) -> float:
        return self.copydma_cycles / self.svm_cycles if self.svm_cycles else 0.0

    @property
    def vm_overhead(self) -> float:
        """SVM fabric runtime normalised to the ideal accelerator (>= 1.0).

        Uses the fabric portion only (thread create/join software costs are
        excluded) so the ratio isolates the cost of address translation.
        """
        if not self.ideal_cycles:
            return 0.0
        return self.svm.fabric_cycles / self.ideal_cycles

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"workload": self.workload}
        for model, column in _MODEL_COLUMNS.items():
            if model in self.outcomes:
                row[column] = self.outcomes[model].total_cycles
        if "software" in self.outcomes and "svm" in self.outcomes:
            row["speedup_sw"] = round(self.speedup_vs_software, 2)
        if "copydma" in self.outcomes and "svm" in self.outcomes:
            row["speedup_dma"] = round(self.speedup_vs_copydma, 2)
        if "ideal" in self.outcomes and "svm" in self.outcomes:
            row["vm_overhead"] = round(self.vm_overhead, 3)
        if "svm" in self.outcomes:
            row["tlb_hit_rate"] = round(self.svm.tlb_hit_rate, 4)
        for model, outcome in self.outcomes.items():
            if model not in _MODEL_COLUMNS:
                row[model] = outcome.total_cycles
        return row


# ---------------------------------------------------------------------------
# Individual execution models
# ---------------------------------------------------------------------------
def _tiered(tier: str, blocker: Callable[[], Optional[str]],
            run: Callable[[bool], SVMResult]) -> SVMResult:
    """Run one point on ``tier``: the one place a tier is picked.

    ``run(replay)`` builds a fresh system and runs it once, its fabric
    replayed or event-simulated.  Unless ``tier`` is ``"event"``, the point
    replays if ``blocker()`` gives no reason; a reason, a ``TierUnavailable``
    or a ``ReplayFault`` raises under ``"replay"`` and under ``"auto"``
    reruns the point on the event tier, with ``tier_reason`` set.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
    if tier == "event":
        return run(False)
    from ..fastpath.engine import ReplayFault
    from ..fastpath.replay import TierUnavailable
    try:
        reason = blocker()
        if reason is not None:
            raise TierUnavailable(reason)
        svm = run(True)
        svm.tier = "replay"
        return svm
    except (TierUnavailable, ReplayFault) as fault:
        if tier == "replay":
            raise
        reason = str(fault)
    # Outside the handler, so the aborted replay is freed before this run.
    svm = run(False)
    svm.tier_reason = reason
    return svm


def _build_svm_system(spec: WorkloadSpec, config: HarnessConfig,
                      num_threads: int):
    """Build the platform + synthesized system for a single-process run."""
    platform = Platform(config.platform)

    bound: List[BoundWorkload] = []
    thread_specs: List[ThreadSpec] = []
    for i in range(num_threads):
        instance = replace(spec, name=f"{spec.name}{i}" if num_threads > 1 else spec.name)
        workload = instance.bind(platform.space)
        bound.append(workload)
        thread_specs.append(config.thread_spec(
            name=f"hwt{i}", kernel=spec.kernel,
            footprint_bytes=workload.footprint_bytes))

    system_spec = SystemSpec(name=f"{spec.name}-x{num_threads}",
                             threads=thread_specs,
                             platform=config.platform,
                             shared_walker=config.shared_walker,
                             shared_tlb=(config.shared_tlb
                                         or config.host_shares_tlb),
                             host_shares_tlb=config.host_shares_tlb)
    system = SystemSynthesizer().synthesize(system_spec, platform=platform)
    return platform, system, bound


def run_svm(spec: WorkloadSpec, config: HarnessConfig | None = None,
            num_threads: int = 1, tier: str = "event") -> SVMResult:
    """Run the workload on the synthesized SVM hardware-thread system.

    With ``num_threads`` > 1 the workload is instantiated once per thread
    (weak scaling: each thread works on its own buffers).

    ``tier`` selects the execution engine: ``"event"`` (the default) runs the
    full event-driven simulation, ``"replay"`` demands the record/replay
    fast path (raising :class:`~repro.fastpath.replay.TierUnavailable` when
    the run is not eligible), and ``"auto"`` uses replay when eligible,
    falling back to the event tier otherwise (the reason lands on
    ``SVMResult.tier_reason``).  Both tiers run the same system through
    :meth:`~repro.core.synthesis.SynthesizedSystem.launch`, and produce
    identical results — the differential suite pins this.

    A replay is stored with the trace of its TLB's operations and their
    outcomes for its capacity class
    (:func:`repro.fastpath.record.capacity_class`), and a later replay
    point of that class whose own TLB would give every recorded outcome is
    served a copy of its result, with its own TLB evictions and occupancy,
    building and replaying nothing.  The event tier neither stores nor
    serves.
    """
    config = config or HarnessConfig()

    def blocker() -> Optional[str]:
        from ..fastpath.replay import svm_replay_blockers
        return svm_replay_blockers(spec, config, num_threads)

    def run(replay: bool) -> SVMResult:
        if replay:
            from ..fastpath.record import (capacity_class, served_result,
                                           store_class)
            key = capacity_class(spec, config)
            served = served_result(key, lambda footprint: config.thread_spec(
                "hwt0", spec.kernel, footprint).tlb_config(
                    config.platform.page_size))
            if served is not None:
                return served
        platform, system, bound = _build_svm_system(spec, config, num_threads)
        if not replay:
            return _svm_result(system.run(
                {f"hwt{i}": bound[i].make_kernel() for i in range(num_threads)},
                pin_all=config.pin_all, prefetch_pages=config.prefetch_pages))
        from ..fastpath import (ReplayContext, program_for_workload,
                                replay_space, replay_start)
        synth = system.threads["hwt0"]
        table = platform.space.page_table
        synth.mmu.tlb.start_trace(table.asid, 1 << table.config.vpn_bits)
        program = program_for_workload(spec, bound[0].make_kernel,
                                       platform.page_size,
                                       synth.memif.config.max_burst_bytes)
        ctx = ReplayContext(synth=synth, platform=platform, spaces=[
            replay_space(platform.space, synth.mmu.fault_handler)])
        svm = _svm_result(system.launch({"hwt0": replay_start(ctx, program)},
                                        pin_all=config.pin_all,
                                        prefetch_pages=config.prefetch_pages))
        store_class(key, svm, synth.mmu, bound[0].footprint_bytes)
        return svm

    return _tiered(tier, blocker, run)


def _svm_result(result: SystemRunResult,
                telemetry: Optional[TelemetryTrace] = None) -> SVMResult:
    """Aggregate a system run's statistics into an :class:`SVMResult`."""
    stats = result.stats
    hits = sum_matching(stats, "mmu.", "tlb_hits")
    misses = sum_matching(stats, "mmu.", "tlb_misses")
    faults = sum_matching(stats, "mmu.", "faults")
    hit_rate = hits / (hits + misses) if (hits + misses) else 0.0
    return SVMResult(total_cycles=result.total_cycles,
                     fabric_cycles=max(result.per_thread_fabric_cycles.values(),
                                       default=0),
                     tlb_hit_rate=hit_rate,
                     tlb_misses=misses,
                     faults=faults,
                     software_overhead_cycles=result.software_overhead_cycles,
                     system_result=result,
                     walks=sum_matching(stats, "ptw.", "walks_completed"),
                     walker_levels=sum_matching(stats, "ptw.", "levels_fetched"),
                     walker_cycles=sum_matching(stats, "ptw.", "walk_cycles"),
                     miss_stall_cycles=sum_matching(stats, "mmu.",
                                                    "miss_latency.total"),
                     prefetches_issued=sum_matching(stats, "mmu.",
                                                    "prefetches_issued"),
                     prefetch_hits=sum_matching(stats, "mmu.", "prefetch_hits"),
                     context_switches=sum_matching(stats, "mmu.",
                                                   "context_switches"),
                     telemetry=telemetry)


def _build_mp_system(mp: MultiProcessSpec, config: HarnessConfig):
    """Build the platform + system + per-process state for an N-process run.

    Returns each process's bound workload; :func:`_process_inputs` gives
    the schedulers their op lists, which a cached static replay program
    never needs.
    """
    platform = Platform(config.platform)

    process_names = [platform.process_name] + [
        f"{platform.process_name}{index}"
        for index in range(1, mp.num_processes)]
    spaces = [platform.space]
    for name in process_names[1:]:
        spaces.append(platform.kernel.create_process(name))
    handlers = [platform.kernel.fault_handler(name) for name in process_names]
    bound = [spec.bind(spaces[index]) for index, spec in enumerate(mp.specs)]

    thread_spec = config.thread_spec(
        "hwt0", mp.kernel,
        footprint_bytes=max(b.footprint_bytes for b in bound))
    system_spec = SystemSpec(name=f"{mp.name}-mp", threads=[thread_spec],
                             platform=config.platform,
                             shared_walker=config.shared_walker,
                             shared_tlb=True,
                             host_shares_tlb=config.host_shares_tlb)
    system = SystemSynthesizer().synthesize(system_spec, platform=platform)
    synth = system.threads["hwt0"]
    for space in spaces[1:]:
        # The MMU serves every process, so every space's unmaps must reach it.
        space.register_shootdown_target(synth.mmu)

    if config.pin_all:
        # The delegate pins its own (first) process; the thread serves every
        # process, so the other spaces pin up front too, costs charged alike.
        for space in spaces[1:]:
            for area in list(space.areas):
                space.pin(area)
                platform.kernel.cost_pin(area, space)

    return platform, system, spaces, handlers, bound


def _functional_ops(bound: Sequence[BoundWorkload]) -> List[list]:
    """Each process's kernel, drained into its operation list: the one
    place a multi-process run drains a kernel."""
    return [run_functional(b.make_kernel()) for b in bound]


def _process_inputs(bound: Sequence[BoundWorkload],
                    page_size: int) -> List[ProcessInputs]:
    """Each process's scheduler inputs, from the store beside the replay
    program cache (:func:`repro.fastpath.record.process_inputs`).

    Only a miss drains the process's kernel, through :func:`_functional_ops`.
    """
    from ..fastpath.record import process_inputs

    def build(workload: BoundWorkload) -> ProcessInputs:
        ops, = _functional_ops([workload])
        return ProcessInputs.of(ops, page_size)

    return [process_inputs(b.spec, page_size, partial(build, b))
            for b in bound]


def _adaptive_kernel(mp: MultiProcessSpec, platform, spaces, handlers,
                     inputs: Sequence[ProcessInputs], clock=None):
    """The epoch-driven slice generator of an adaptive policy and its
    telemetry bus.

    Shared by both tiers; the replay tier passes the engine's ``clock``
    (see :class:`~repro.os.telemetry.TelemetryBus`).
    """
    bus = TelemetryBus(
        platform.sim,
        processes=[ProcessInfo(name=str(index),
                               asid=spaces[index].page_table.asid,
                               fault_handler=handlers[index].name)
                   for index in range(mp.num_processes)],
        base_quantum=mp.quantum, clock=clock)
    slices = adaptive_time_sliced_kernel(
        inputs, get_policy(mp.policy),
        SchedulerConfig(num_cores=1, quantum=mp.quantum,
                        context_switch_cycles=0),
        bus=bus, weights=mp.weights)
    return slices, bus


def run_multiprocess(mp: MultiProcessSpec,
                     config: HarnessConfig | None = None,
                     flush_on_switch: bool = False,
                     tier: str = "event") -> SVMResult:
    """Run an N-process workload on one SVM thread with a shared fabric TLB.

    Each process gets its own address space (and demand-paging fault
    handler); the OS time-slices the single accelerator between them per the
    plan ``mp.policy`` produces through
    :func:`repro.workloads.multiprocess.slice_plan` (round-robin,
    weighted-fair, fault-aware, or any registered policy — weighted by
    ``mp.weights``).  At every slice boundary outstanding traffic is fenced,
    the context-switch cost is charged and the MMU is re-pointed at the next
    process's page table.  By default the shared fabric TLB is *not* flushed,
    so every space's ASID-tagged translations contend for (and survive in)
    the same entries; ``flush_on_switch=True`` models a TLB without ASID
    isolation, which must flush at every switch to stay correct (the
    canonical ``svm`` model's semantics).  With
    ``config.host_shares_tlb`` the host CPU's pinning and fault-service page
    touches probe and refill the same TLB.

    ``tier`` selects the execution engine exactly as in :func:`run_svm`.
    The replay tier serves demand faults and adaptive policies too (the real
    scheduler and telemetry bus pick each slice from the replayed counters,
    and a :class:`~repro.fastpath.replay.SliceFeed` lowers it); a fault it
    does not model falls back to the event tier, and
    ``SVMResult.tier_reason`` says why.

    **Static vs adaptive scheduling.**  Policies without an online feedback
    hook (``adaptive = False``) are planned exactly as before: the whole
    timeline is computed up front from static estimates and replayed — this
    path is bit-identical to previous releases.  Adaptive policies
    (``adaptive = True``, e.g. ``adaptive-fault``/``miss-fair``/
    ``host-aware``) instead run epoch by epoch: a :class:`TelemetryBus`
    samples live per-process counters at every fence-drained slice boundary,
    and ``policy.observe(epoch_stats)`` replans the next epoch's quanta from
    measured contention.  The resulting per-epoch trace is returned on
    ``SVMResult.telemetry``.
    """
    config = config or HarnessConfig()
    plan = partial(slice_plan, quantum=mp.quantum, policy=mp.policy,
                   weights=mp.weights, page_size=config.platform.page_size)

    def blocker() -> Optional[str]:
        from ..fastpath.replay import mp_replay_blockers
        return mp_replay_blockers(mp, config)

    def run(replay: bool) -> SVMResult:
        platform, system, spaces, handlers, bound = _build_mp_system(mp, config)
        synth = system.threads["hwt0"]
        adaptive = get_policy(mp.policy).adaptive
        page_size = platform.page_size
        bus: Optional[TelemetryBus] = None
        if not replay:
            def on_switch(process: int) -> int:
                if flush_on_switch:
                    synth.mmu.flush()
                synth.mmu.activate(spaces[process].page_table,
                                   handlers[process])
                return platform.kernel.cost_context_switch()

            inputs = _process_inputs(bound, page_size)
            if adaptive:
                slices, bus = _adaptive_kernel(mp, platform, spaces,
                                               handlers, inputs)
                kernel = expand_slices(
                    slices, [process.ops for process in inputs], on_switch)
            else:
                kernel = time_sliced_kernel(plan(inputs), on_switch)
            result = system.run({"hwt0": kernel}, pin_all=config.pin_all,
                                prefetch_pages=config.prefetch_pages)
        else:
            from ..fastpath import (ReplayContext, SliceFeed,
                                    program_for_plan, program_for_workload,
                                    replay_space, replay_start)
            burst = synth.memif.config.max_burst_bytes
            ctx = ReplayContext(
                synth=synth, platform=platform,
                spaces=[replay_space(space, handler)
                        for space, handler in zip(spaces, handlers)],
                flush_on_switch=flush_on_switch)
            if adaptive:
                # Programs are cached per process spec and lowered from its
                # stored op list; the slices are the live scheduler's.
                inputs = _process_inputs(bound, page_size)
                feed = SliceFeed(
                    [program_for_workload(b.spec, lambda ops=process.ops: ops,
                                          page_size, burst)
                     for b, process in zip(bound, inputs)],
                    platform.sim.now)
                feed.slices, bus = _adaptive_kernel(
                    mp, platform, spaces, handlers, inputs,
                    clock=lambda: feed.cycle)
                ctx.refill = feed
                program = []
            else:
                program = program_for_plan(
                    mp, lambda: plan(_process_inputs(bound, page_size)),
                    page_size, burst)
            result = system.launch({"hwt0": replay_start(ctx, program)},
                                   pin_all=config.pin_all,
                                   prefetch_pages=config.prefetch_pages)
        return _svm_result(result,
                           telemetry=None if bus is None else bus.trace)

    return _tiered(tier, blocker, run)


def run_ideal(spec: WorkloadSpec, config: HarnessConfig | None = None) -> int:
    """Run on the ideal physically-addressed accelerator; returns cycles.

    The ideal accelerator is the SVM thread's datapath and memory traffic
    with free address translation, so its gap to the SVM thread is the cost
    of virtual memory (TLB misses, page-table walks, faults).
    """
    config = config or HarnessConfig()
    platform = Platform(config.platform)
    resident = replace(spec, residency=1.0)   # no MMU -> everything resident
    workload = resident.bind(platform.space)
    result = run_physically_addressed(platform, workload.make_kernel(),
                                      name="ideal")
    if result.aborted:
        raise RuntimeError("ideal accelerator aborted (unexpected)")
    return result.cycles


def run_copydma(spec: WorkloadSpec,
                config: HarnessConfig | None = None) -> CopyDMARunResult:
    """Run the conventional copy-based accelerator baseline."""
    config = config or HarnessConfig()
    platform = Platform(config.platform)
    resident = replace(spec, residency=1.0)
    workload = resident.bind(platform.space)
    accel = CopyDMAAccelerator()
    return accel.run(platform, workload.make_kernel(),
                     copy_in_bytes=workload.copy_in_bytes,
                     copy_out_bytes=workload.copy_out_bytes,
                     marshal_items=workload.marshal_items)


def run_software(spec: WorkloadSpec, config: HarnessConfig | None = None,
                 num_threads: int = 1) -> int:
    """Run the software baseline; returns fabric-equivalent cycles."""
    config = config or HarnessConfig()
    platform = Platform(config.platform)
    cpu = SoftwareCPU(config.software, clocks=config.platform.clocks)
    resident = replace(spec, residency=1.0)

    streams = []
    schedule = None
    for i in range(num_threads):
        instance = replace(resident, name=f"{resident.name}{i}"
                           if num_threads > 1 else resident.name)
        workload = instance.bind(platform.space)
        schedule = workload.schedule
        streams.append(run_functional(workload.make_kernel()))
    if num_threads == 1:
        return cpu.run_ops(streams[0], schedule=schedule).fabric_cycles
    return cpu.run_threads(streams, schedule=schedule).fabric_cycles


# ---------------------------------------------------------------------------
# Full comparison
# ---------------------------------------------------------------------------
def compare(spec: WorkloadSpec, config: HarnessConfig | None = None,
            runner: Optional["SweepRunner"] = None,
            models: Optional[Sequence[str]] = None) -> ComparisonResult:
    """Run execution models on one workload (Table 3 / Fig. 4 rows).

    ``models`` defaults to the paper's four; any name registered with
    :func:`repro.models.register_model` is accepted.  Each model builds a
    fresh platform, so the runs are independent; with a
    :class:`repro.exec.SweepRunner` they are dispatched as concurrent (and
    memoizable) jobs, with identical results.
    """
    from ..exec.jobs import ExperimentJob
    from .sweep import Sweep

    config = config or HarnessConfig()
    names = (tuple(dict.fromkeys(models)) if models is not None
             else CANONICAL_MODELS)
    sweep = Sweep(label="compare")
    for name in names:
        sweep.add(ExperimentJob(name, spec, config), model=name)
    outcomes = sweep.run(runner)
    return ComparisonResult(workload=spec.name,
                            outcomes={name: outcomes.get(model=name)
                                      for name in names})
