"""Replay-tier entry points: run a workload through the fast path.

:func:`replay_svm` and :func:`replay_multiprocess` are drop-in peers of
:func:`repro.eval.harness.run_svm` / ``run_multiprocess``: they build the
*same* platform and synthesized system through the same harness helpers, run
every software-side cost (thread create, pinning, host TLB touches, context
switches, join) through the real components, and replace only the fabric
event loop with :func:`repro.fastpath.engine.replay_fabric` driven by a
cached replay program.  The engine's counters are written back into the real
statistic groups, so ``platform.snapshot()`` and the harness aggregation are
reused unchanged and the returned :class:`~repro.eval.harness.SVMResult` is
exactly what the event tier would have produced.

Demand faults are serviced inside the replay through each space's real
fault handler, and adaptive policies run through the real epoch-driven
kernel and :class:`~repro.os.telemetry.TelemetryBus`: the engine hands the
kernel each slice boundary (:class:`_SliceFeed`) after writing its counters
into the real statistic groups, so the bus reads the same registry the
event tier's bus reads.

Eligibility is decided *before* running (:func:`svm_replay_blockers` /
:func:`mp_replay_blockers` return a human-readable reason or ``None``); a
fault the engine does not model raises
:class:`~repro.fastpath.engine.ReplayFault` mid-replay, which
``tier="auto"`` callers treat as "fall back to the event tier".
"""

from __future__ import annotations

import copy
from dataclasses import fields
from functools import partial
from typing import Callable, List, Optional

from ..sim.process import Compute, Fence
from .engine import (OP_COMPUTE, OP_FENCE, OP_SWITCH, ReplayContext,
                     ReplayOutput, ReplaySpace, _Acc, replay_fabric)
from .record import program_for_plan, program_for_workload

__all__ = ["TierUnavailable", "svm_replay_blockers", "mp_replay_blockers",
           "replay_svm", "replay_multiprocess"]


class TierUnavailable(RuntimeError):
    """The replay tier cannot model this run (the reason says why)."""


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------
def svm_replay_blockers(spec, config, num_threads: int = 1) -> Optional[str]:
    """Why a single-process run cannot replay (``None`` = eligible)."""
    if num_threads != 1:
        return (f"replay models a single hardware thread "
                f"(num_threads={num_threads})")
    if config.platform.arbiter != "round_robin":
        return (f"replay inlines the round-robin bus arbiter "
                f"(arbiter={config.platform.arbiter!r})")
    return None


def mp_replay_blockers(mp, config) -> Optional[str]:
    """Why a multi-process run cannot replay (``None`` = eligible)."""
    if config.platform.arbiter != "round_robin":
        return (f"replay inlines the round-robin bus arbiter "
                f"(arbiter={config.platform.arbiter!r})")
    return None


# ---------------------------------------------------------------------------
# Stats write-back
# ---------------------------------------------------------------------------
def _merge_acc(group, name: str, acc) -> None:
    if acc.count == 0:
        # The event tier only creates an accumulator on its first sample;
        # keep the snapshot keys identical.
        return
    real = group.accumulator(name)
    real.count += acc.count
    real.total += acc.total
    if acc.minimum is not None:
        if real.minimum is None or acc.minimum < real.minimum:
            real.minimum = acc.minimum
    if acc.maximum is not None:
        if real.maximum is None or acc.maximum > real.maximum:
            real.maximum = acc.maximum


def _inc(group, name: str, amount: int) -> None:
    if amount:
        # Counters appear in the event tier's snapshot only once incremented;
        # skip zeros so both tiers export the same keys.
        group.counter(name).inc(amount)


def _output_delta(out: ReplayOutput, prev: ReplayOutput) -> ReplayOutput:
    """What ``out`` counted since ``prev``, an earlier copy of it.

    Accumulators keep ``out``'s minimum and maximum: merging them again
    changes nothing, so only counts and totals need the difference.
    """
    delta = copy.copy(out)
    for item in fields(ReplayOutput):
        now, then = getattr(out, item.name), getattr(prev, item.name)
        if isinstance(now, _Acc):
            setattr(delta, item.name, _Acc(now.count - then.count,
                                           now.total - then.total,
                                           now.minimum, now.maximum))
        else:
            setattr(delta, item.name, now - then)
    return delta


def _export_counters(platform, synth, thread_name: str, out) -> None:
    """Add the engine's counters into the real component stat groups.

    After the last call, ``platform.snapshot()`` reports the run exactly as
    an event-tier execution would have.
    """
    stats = platform.sim.stats

    thread = stats.group(thread_name)
    _inc(thread, "compute_cycles", out.compute_cycles)
    _inc(thread, "mem_ops", out.mem_ops)
    _inc(thread, "mem_bytes", out.mem_bytes)
    _merge_acc(thread, "stall_cycles", out.stall_cycles)

    memif = synth.memif.stats
    _inc(memif, "ops", out.memif_ops)
    _inc(memif, "bytes", out.memif_bytes)
    _inc(memif, "transactions", out.transactions)

    mmu = synth.mmu.stats
    _inc(mmu, "translations", out.translations)
    _inc(mmu, "tlb_hits", out.tlb_hits)
    _inc(mmu, "tlb_misses", out.tlb_misses)
    _inc(mmu, "tlb_refills", out.tlb_refills)
    _inc(mmu, "prefetch_hits", out.prefetch_hits)
    _inc(mmu, "prefetches_issued", out.prefetches_issued)
    _inc(mmu, "prefetches_dropped", out.prefetches_dropped)
    _inc(mmu, "prefetch_fills", out.prefetch_fills)
    _inc(mmu, "context_switches", out.context_switches)
    _inc(mmu, "flushes", out.mmu_flushes)
    _inc(mmu, "faults", out.faults)
    _inc(mmu, "faults.not_present", out.faults)
    _merge_acc(mmu, "miss_latency", out.miss_latency)
    _merge_acc(mmu, "fault_service_latency", out.fault_service_latency)

    walker = synth.walker.stats
    _inc(walker, "walks_requested", out.walks_requested)
    _inc(walker, "levels_fetched", out.levels_fetched)
    _inc(walker, "walks_completed", out.walks_completed)
    _inc(walker, "walks_faulted", out.walks_faulted)
    _inc(walker, "walk_cycles", out.walk_cycles)
    _merge_acc(walker, "queue_wait", out.queue_wait)
    _merge_acc(walker, "walk_latency", out.walk_latency)

    bus = platform.bus.stats
    _inc(bus, "requests", out.bus_requests)
    _inc(bus, "busy_cycles", out.bus_busy_cycles)
    _inc(bus, "contended_grants", out.bus_contended_grants)
    walker_port = synth.walker.port.name
    memif_port = synth.memif.bus_port.name
    _inc(bus, f"requests_from.{walker_port}", out.bus_requests_walker)
    _inc(bus, f"requests_from.{memif_port}", out.bus_requests_memif)
    _merge_acc(bus, "queue_wait", out.bus_queue_wait)
    _merge_acc(bus, f"latency_for.{walker_port}", out.bus_latency_walker)
    _merge_acc(bus, f"latency_for.{memif_port}", out.bus_latency_memif)

    dram = platform.dram.stats
    _inc(dram, "requests", out.dram_reads + out.dram_writes)
    _inc(dram, "row_hits", out.dram_row_hits)
    _inc(dram, "row_misses", out.dram_row_misses)
    _inc(dram, "reads", out.dram_reads)
    _inc(dram, "writes", out.dram_writes)
    _inc(dram, "bytes_read", out.dram_bytes_read)
    _inc(dram, "bytes_written", out.dram_bytes_written)
    _merge_acc(dram, "latency", out.dram_latency)


# ---------------------------------------------------------------------------
# System execution
# ---------------------------------------------------------------------------
def _replay_space(space, handler) -> ReplaySpace:
    table = space.page_table
    return ReplaySpace(asid=table.asid, page_table=table,
                       page_size=table.config.page_size,
                       vpn_limit=1 << table.config.vpn_bits,
                       pte_bytes=table.config.pte_bytes,
                       expected_levels=table.config.levels,
                       handler=handler)


def replay_system_run(system, thread_name: str, program: list,
                      spaces: List[ReplaySpace],
                      flush_on_switch: bool = False,
                      on_switch_cost: Optional[Callable[[], int]] = None,
                      pin_all: bool = False, prefetch_pages: int = 0,
                      refill: Optional[Callable[[int], list]] = None):
    """Mirror of :meth:`SynthesizedSystem.run` with a replayed fabric.

    The delegate lifecycle (create, pin, host TLB touches, prefetch, join)
    executes through the real components; at launch the pre-recorded program
    runs through :func:`replay_fabric` against the system's real TLB, page
    tables and fault handlers, and the completion/join events are scheduled
    at the exact cycles the event tier would produce.

    ``refill(cycle)``, when given, supplies the program in pieces: the
    engine calls it at the fence-drained instants where the program runs
    out, after the counters so far have been added to the real stat groups.
    """
    from ..core.synthesis import SystemRunResult

    platform = system.platform
    sim = platform.sim
    synth = system.threads[thread_name]
    if platform.bus.num_masters != 2:
        raise TierUnavailable(
            f"replay models one walker + one memif bus master "
            f"(found {platform.bus.num_masters})")

    start_cycle = sim.now
    pinned_areas = list(synth.delegate.space.areas) if pin_all else None
    holder = {}
    exported: List[ReplayOutput] = []   # the counters already in the groups

    def export(out: ReplayOutput) -> None:
        _export_counters(platform, synth, thread_name,
                         _output_delta(out, exported[0]) if exported else out)
        # A shallow copy is a snapshot: the engine folds fresh values into
        # ``out`` and never mutates one it has handed out.
        exported[:] = [copy.copy(out)]

    def next_slice(out: ReplayOutput, cycle: int) -> list:
        export(out)
        return refill(cycle)

    def start_fabric(done: Callable[[], None]) -> None:
        thread_cfg = synth.spec.thread_config()
        memif_cfg = synth.memif.config
        bus_cfg = platform.bus.config
        dram_cfg = platform.dram.config
        limit = platform.config.max_cycles
        ctx = ReplayContext(
            spaces=spaces,
            tlb=synth.mmu.tlb,
            max_outstanding=thread_cfg.max_outstanding,
            start_latency=thread_cfg.start_latency,
            issue_latency=memif_cfg.issue_latency,
            hit_latency=synth.mmu.tlb.config.hit_latency,
            prefetch_depth=synth.mmu.config.prefetch_depth,
            per_level_overhead=synth.walker.config.per_level_overhead,
            bus_width_bytes=bus_cfg.bus_width_bytes,
            address_phase_cycles=bus_cfg.address_phase_cycles,
            bus_max_inflight=bus_cfg.max_outstanding_per_master,
            walker_master=synth.walker.port.index,
            memif_master=synth.memif.bus_port.index,
            dram_num_banks=dram_cfg.num_banks,
            dram_row_bytes=dram_cfg.row_bytes,
            dram_row_hit=dram_cfg.row_hit_latency,
            dram_row_miss=dram_cfg.row_miss_latency,
            dram_controller=dram_cfg.controller_latency,
            dram_bytes_per_cycle=dram_cfg.data_bus_bytes_per_cycle,
            dram_write_penalty=dram_cfg.write_latency_penalty,
            flush_on_switch=flush_on_switch,
            on_switch_cost=on_switch_cost,
            max_cycles=None if limit is None else limit - sim.now,
            initial_space=0,
            max_fault_retries=synth.mmu.config.max_fault_retries,
            fault_thread=synth.memif.thread_name,
            clock_base=sim.now,
            refill=None if refill is None else next_slice)
        out = replay_fabric(program, ctx)
        holder["out"] = out
        sim.schedule(out.finish, done)
        if out.last_cycle > out.finish:
            # Stray prefetch walks outlive the thread in the event tier; the
            # platform's final cycle must match, so hold the sim open.
            sim.schedule(out.last_cycle, lambda: None)

    completion = synth.delegate.create_and_start(
        start_fabric, pinned_areas=pinned_areas,
        prefetch_pages=prefetch_pages)
    synth.completion = completion

    end_cycle = platform.run()

    out = holder["out"]
    export(out)
    thread = sim.stats.group(thread_name)
    thread.counter("starts").inc(1)
    thread.counter("completions").inc(1)
    thread.scalar("cycles").set(out.finish)
    synth.mmu.export_stats()

    return SystemRunResult(
        total_cycles=end_cycle - start_cycle,
        per_thread_fabric_cycles={thread_name: completion.fabric_cycles or 0},
        per_thread_wall_cycles={thread_name: completion.wall_cycles or 0},
        aborted_threads=[],
        software_overhead_cycles=platform.kernel.software_overhead_cycles,
        stats=platform.snapshot())


# ---------------------------------------------------------------------------
# Harness-level entry points
# ---------------------------------------------------------------------------
def replay_svm(spec, config=None, num_threads: int = 1):
    """Replay-tier equivalent of :func:`repro.eval.harness.run_svm`."""
    from ..eval.harness import (HarnessConfig, _build_svm_system, _svm_result)
    config = config or HarnessConfig()
    blocker = svm_replay_blockers(spec, config, num_threads)
    if blocker is not None:
        raise TierUnavailable(blocker)

    platform, system, bound = _build_svm_system(spec, config, num_threads)
    synth = system.threads["hwt0"]
    program = program_for_workload(spec, bound[0], platform.page_size,
                                   synth.memif.config.max_burst_bytes)
    result = replay_system_run(
        system, "hwt0", program,
        [_replay_space(platform.space, synth.mmu.fault_handler)],
        pin_all=config.pin_all, prefetch_pages=config.prefetch_pages)
    fabric = max(result.per_thread_fabric_cycles.values(), default=0)
    svm = _svm_result(result, fabric)
    svm.tier = "replay"
    return svm


class _SliceFeed:
    """The real adaptive kernel's slices, lowered to program ops on demand.

    The engine calls the feed whenever its program runs out at a
    fence-drained instant, after the counters so far are in the stat
    groups.  The feed sets the cycle the telemetry bus reads, steps the real
    epoch-driven kernel up to and including its next ``Fence``, and lowers
    what it yields: an operation of a process's op list becomes that
    process's program op, the kernel's own switch-stall ``Compute`` and
    slice ``Fence`` become theirs, and a context switch becomes an
    ``OP_SWITCH`` marker in front of them.
    """

    def __init__(self, op_lists: list, programs: list,
                 switch_cost: Callable[[], int], cycle: int):
        self.op_lists = op_lists
        self.programs = programs
        self.switch_cost = switch_cost
        self.cursors = [0] * len(op_lists)
        self.active = 0
        self.switched_to: Optional[int] = None
        #: The absolute cycle the telemetry bus reads.
        self.cycle = cycle
        self.kernel = None

    def on_switch(self, process: int) -> int:
        """The kernel's switch hook: the software cost is charged here, the
        MMU state changes when the engine reaches the ``OP_SWITCH``."""
        self.switched_to = process
        return self.switch_cost()

    def __call__(self, cycle: int) -> list:
        self.cycle = cycle
        ops: list = []
        for op in self.kernel:
            if self.switched_to is not None:
                ops.append((OP_SWITCH, self.switched_to))
                self.active, self.switched_to = self.switched_to, None
            index = self.active
            cursor = self.cursors[index]
            source = self.op_lists[index]
            if cursor < len(source) and source[cursor] is op:
                lowered = self.programs[index][cursor]
                self.cursors[index] = cursor + 1
            elif isinstance(op, Compute):
                lowered = (OP_COMPUTE, op.cycles)
            elif isinstance(op, Fence):
                lowered = (OP_FENCE,)
            else:
                raise TierUnavailable(
                    f"the scheduler yielded {op!r}, which no process's op "
                    "list holds")
            ops.append(lowered)
            if lowered[0] == OP_FENCE:
                break
        return ops


def replay_multiprocess(mp, config=None, flush_on_switch: bool = False):
    """Replay-tier equivalent of :func:`repro.eval.harness.run_multiprocess`."""
    from ..eval.harness import (HarnessConfig, _adaptive_kernel,
                                _build_mp_system, _functional_ops, _svm_result)
    from ..os.scheduler import get_policy
    from ..workloads.multiprocess import slice_plan
    config = config or HarnessConfig()
    blocker = mp_replay_blockers(mp, config)
    if blocker is not None:
        raise TierUnavailable(blocker)

    platform, system, spaces, handlers, bound = _build_mp_system(mp, config)
    synth = system.threads["hwt0"]
    page_size = platform.page_size
    burst = synth.memif.config.max_burst_bytes
    run = partial(replay_system_run, system, "hwt0",
                  spaces=[_replay_space(space, handler)
                          for space, handler in zip(spaces, handlers)],
                  flush_on_switch=flush_on_switch, pin_all=config.pin_all,
                  prefetch_pages=config.prefetch_pages)
    bus = None
    if get_policy(mp.policy).adaptive:
        # Programs are cached per process spec, shared by every run that
        # schedules that process; the slices are the live scheduler's.
        op_lists = _functional_ops(bound)
        feed = _SliceFeed(
            op_lists,
            [program_for_workload(spec, b, page_size, burst)
             for spec, b in zip(mp.specs, bound)],
            platform.kernel.cost_context_switch, platform.sim.now)
        feed.kernel, bus = _adaptive_kernel(
            mp, config, platform, spaces, handlers, op_lists,
            feed.on_switch, clock=lambda: feed.cycle)
        result = run(program=[], refill=feed)
    else:
        program = program_for_plan(
            mp, lambda: slice_plan(_functional_ops(bound),
                                   quantum=mp.quantum, policy=mp.policy,
                                   weights=mp.weights,
                                   page_size=config.platform.page_size),
            page_size, burst)
        result = run(program=program,
                     on_switch_cost=platform.kernel.cost_context_switch)
    fabric = max(result.per_thread_fabric_cycles.values(), default=0)
    svm = _svm_result(result, fabric,
                      telemetry=None if bus is None else bus.trace)
    svm.tier = "replay"
    return svm
