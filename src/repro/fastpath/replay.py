"""Replay-tier plumbing: who can replay, and a replayed fabric to launch.

A replayed point runs on the *same* platform and synthesized system as an
event-tier point, through the same lifecycle,
:meth:`~repro.core.synthesis.SynthesizedSystem.launch`: thread create,
pinning, host TLB touches, context switches and join all run through the
real components.  Only the fabric side differs: where the event tier starts
a :class:`~repro.hwthread.thread.HardwareThread`, :func:`replay_start` runs a
cached replay program through :func:`repro.fastpath.engine.replay_fabric`.
The engine reads its timing from the synthesized thread's and the
platform's own configs and adds its counters into their real statistic
groups, so ``platform.snapshot()`` and the harness aggregation are the
event tier's, and so is the result.

Demand faults are serviced inside the replay through each space's real
fault handler, and adaptive policies run through the real epoch-driven
kernel and :class:`~repro.os.telemetry.TelemetryBus`: the engine hands the
kernel each slice boundary (:class:`SliceFeed`) after adding its counters
into the real statistic groups, so the bus reads the same registry the
event tier's bus reads.

Eligibility is decided *before* running (:func:`svm_replay_blockers` /
:func:`mp_replay_blockers` return a human-readable reason or ``None``); a
fault the engine does not model raises
:class:`~repro.fastpath.engine.ReplayFault` mid-replay.  The harness
(:mod:`repro.eval.harness`) picks the tier and, for ``tier="auto"``, falls
back to the event tier on either.
"""

from __future__ import annotations

from typing import Callable, Optional

from .engine import (OP_COMPUTE, OP_FENCE, OP_SWITCH, ReplayContext,
                     ReplaySpace, replay_fabric)

__all__ = ["TierUnavailable", "svm_replay_blockers", "mp_replay_blockers",
           "replay_space", "replay_start", "SliceFeed"]


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
# The replayed fabric
# ---------------------------------------------------------------------------
def replay_space(space, handler) -> ReplaySpace:
    """The translation state of a real address space and its fault handler."""
    table = space.page_table
    return ReplaySpace(asid=table.asid, page_table=table,
                       page_size=table.config.page_size,
                       vpn_limit=1 << table.config.vpn_bits,
                       pte_bytes=table.config.pte_bytes,
                       expected_levels=table.config.levels,
                       handler=handler)


def replay_start(ctx: ReplayContext, program: list):
    """The replayed fabric side of ``ctx.synth``, for
    :meth:`~repro.core.synthesis.SynthesizedSystem.launch`.

    The returned ``start(on_done)`` runs ``program`` through
    :func:`replay_fabric` at launch, against the system's real TLB, page
    tables, fault handlers and stat groups, then schedules ``on_done(True)``
    at the cycle the event tier's thread would finish and holds the
    simulation open to the engine's last event, so the delegate's join and
    the platform's final cycle land where the event tier puts them.  It
    writes the thread's ``starts``, ``completions`` and ``cycles`` as
    :class:`~repro.hwthread.thread.HardwareThread` does.  A fault the engine
    does not model raises :class:`~repro.fastpath.engine.ReplayFault` out of
    the simulation.
    """
    platform = ctx.platform
    if platform.bus.num_masters != 2:
        raise TierUnavailable(
            f"replay models one walker + one memif bus master "
            f"(found {platform.bus.num_masters})")
    sim = platform.sim

    def start(on_done) -> None:
        out = replay_fabric(program, ctx)
        thread = sim.stats.group(ctx.synth.spec.name)
        thread.counter("starts").inc(1)
        thread.counter("completions").inc(1)
        thread.scalar("cycles").set(out.finish)
        sim.schedule(out.finish, lambda: on_done(True))
        if out.last_cycle > out.finish:
            # Stray prefetch walks outlive the thread in the event tier; the
            # platform's final cycle must match, so hold the sim open.
            sim.schedule(out.last_cycle, lambda: None)

    return start


class SliceFeed:
    """The real adaptive scheduler's slices, lowered to program ops on demand.

    The engine calls the feed whenever its program runs out at a
    fence-drained instant, after the counters so far are in the stat
    groups.  The feed sets the cycle the telemetry bus reads and resumes
    ``slices``, the real epoch-driven kernel
    (:func:`~repro.workloads.multiprocess.adaptive_time_sliced_kernel`),
    which closes the drained slice and opens the next, ``(process, start,
    end)``.  Programs hold one tuple per op, so the feed lowers that slice
    as one list slice, ``programs[process][start:end]``, followed by the
    slice's fence.  A process change comes first: an ``OP_SWITCH`` marker,
    then the switch stall as compute.  An empty return ends the kernel.
    """

    def __init__(self, programs: list, switch_cost: Callable[[], int],
                 cycle: int):
        self.programs = programs
        self.switch_cost = switch_cost
        self.active = 0
        #: The absolute cycle the telemetry bus reads.
        self.cycle = cycle
        self.slices = None

    def __call__(self, cycle: int) -> list:
        self.cycle = cycle
        step = next(self.slices, None)
        if step is None:
            return []
        process, start, end = step
        ops: list = []
        if process != self.active:
            # The software cost is charged here, as the event tier's switch
            # hook charges it; the MMU state changes when the engine reaches
            # the marker.
            self.active = process
            ops.append((OP_SWITCH, process))
            stall = self.switch_cost()
            if stall > 0:
                ops.append((OP_COMPUTE, stall))
        ops += self.programs[process][start:end]
        ops.append((OP_FENCE,))
        return ops
