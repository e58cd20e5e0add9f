"""Replay micro-simulator: the event loop of one SVM hardware thread, flattened.

The component-based event tier executes a kernel through ~10 Python objects
(thread → memif → MMU → TLB → walker → bus → DRAM), each interaction a
closure on the global heap.  This engine replays a pre-recorded operation
stream (:mod:`repro.fastpath.record`) through *one* dispatch loop whose
events are small tuples ``(cycle, seq, code, payload)`` and whose component
state lives in local variables.

Exactness is by construction, not by approximation: the engine mirrors every
``Simulator.schedule`` call the real components would make — same delays,
same order within an event, same synchronous call chains — so the events
dispatch in the identical order and every counter, stall and completion
cycle comes out identical to the event tier.  It reads its timing from the real
components' configs (thread, memif, MMU, TLB, walker, bus, DRAM), and one
table (:data:`_STATS`) sends each counter it keeps in a local into the real
component's stat group.  The set-associative ASID-tagged TLB state is kept
in the *real* :class:`~repro.vm.tlb.TLB` object (pre-warmed by any
host-side pinning touches), manipulated inline with the exact semantics of
``lookup``/``insert``/``flush``, and each inlined lookup, fill and prefetch
probe is recorded in the TLB's trace when one is running
(:meth:`~repro.vm.tlb.TLB.start_trace`); page-table walks read the real
:class:`~repro.vm.pagetable.PageTable` nodes.

Demand faults (a walk that finds the page not present) are serviced the way
``MMU._fault`` and the OS's ``DemandPagingHandler`` service them: interrupt
latency, a serial per-handler queue, the service time plus zero-fill, then a
re-walk.  The handler's real ``_resolve`` runs at the service instant, so
frames, PTEs and host touches of a shared TLB land in the real objects.
Faults the engine does not model (an unmapped page, a write to a read-only
page, a service that fails, a full handler queue, exhausted retries) raise
:class:`ReplayFault`, and the caller falls back to the event tier.

Each hot mechanism is written out once.  The bus grant sits at the tail of
the dispatch loop, where every BUS_FORWARD ends, and DRAM_DONE, BUS_ISSUE
and WALK_STEP on an idle bus; ``bus_grant`` repeats it only for a walk's
first level, which ``walker_start_next`` submits and which grants at once,
as ``SystemBus.submit`` does.  The clean-hit probe sits in ADVANCE and
DRAM_DONE, and ``walk_finish`` fills the TLB of demand and prefetch walks
through one inlined ``TLB.insert``.

A program may also be fed in pieces: when it runs out at a fence-drained
instant, the counters so far go into the stat groups and
``ReplayContext.refill`` returns the next ops.  Adaptive scheduling uses
this to let the real scheduler pick each slice from the real telemetry.

Event payloads, by code (events dispatch in ``(cycle, seq)`` order):

* ``ADVANCE``: ``None``.
* ``TRANSLATED`` and ``BUS_ISSUE``: the memif's data request
  ``(_REQ_DATA, paddr, size, is_write, chunks, index)``.
* ``BUS_FORWARD``: the granted bus request itself, a data request or a
  walker request ``(_REQ_WALK, pte_addr, pte_bytes, False, walk, addresses,
  level, started_at)``.
* ``DRAM_DONE``: ``(request, service)``.  The request's kind names its bus
  port: ``_REQ_DATA`` the memif's, ``_REQ_WALK`` the walker's (the bus has
  exactly these two masters).
* ``WALK_STEP``: the walker request of the level just fetched; the walk
  goes on at ``level + 1``.
* ``FAULT_SERVICE``: ``(handler, state)``; ``FAULT_DONE``: ``(handler,
  state, walk, started, fault_started)``.

The event scheduled last waits in a one-event buffer in front of the heap;
scheduling another pushes it onto the heap.  Its ``seq`` is the highest of
any pending event, so it precedes the heap's head exactly when its cycle is
earlier, and the loop then dispatches it without a push or a pop.  Every
scheduled event takes the next ``seq``, and the loop runs until the buffer
and the heap are both empty, so the final ``seq`` is the number of events
dispatched: ``ReplayOutput.events``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.engine import SimulationError
from ..vm.types import AccessType, FaultType, PageFault

__all__ = ["ReplayFault", "ReplaySpace", "ReplayContext", "ReplayOutput",
           "replay_fabric"]

# Program op codes (first element of a program tuple).
OP_COMPUTE = 0     # (0, cycles)
OP_MEM = 1         # (1, chunks, total_bytes)  chunks: [(vaddr, size, is_write)]
OP_FENCE = 2       # (2,)
OP_YIELD = 3       # (3,)
OP_SWITCH = 4      # (4, process_index)

# Event codes (third element of a heap tuple).
_EV_ADVANCE = 0        # thread fetches/dispatches the next program op
_EV_TRANSLATED = 1     # TLB-hit latency elapsed -> memif issue()
_EV_BUS_ISSUE = 2      # memif issue latency elapsed -> bus submit
_EV_BUS_FORWARD = 3    # bus occupancy elapsed -> DRAM access + next grant
_EV_DRAM_DONE = 4      # DRAM transaction complete -> route to requester
_EV_WALK_STEP = 5      # walker per-level overhead elapsed -> next level
_EV_FAULT_SERVICE = 6  # OS fault handler takes the next queued fault
_EV_FAULT_DONE = 7     # fault service complete -> MMU re-walks

# Bus/DRAM payload routing (first element of a request payload).
_REQ_DATA = 0
_REQ_WALK = 1


class ReplayFault(RuntimeError):
    """The replayed stream hit a translation fault the fast path cannot model."""


@dataclass(frozen=True)
class ReplaySpace:
    """Per-process translation state the engine switches between."""

    asid: int
    page_table: object            # real repro.vm.pagetable.PageTable
    page_size: int
    vpn_limit: int                # 1 << vpn_bits
    pte_bytes: int
    expected_levels: int
    #: The real ``DemandPagingHandler`` serving this space's faults (None:
    #: a fault is fatal, which only the event tier models).
    handler: object = None


@dataclass
class ReplayContext:
    """What the engine replays against.

    The engine reads its timing from ``synth``'s and ``platform``'s own
    component configs, takes ``platform.sim.now`` at launch as micro-time 0,
    and adds its counters into their stat groups.
    """

    synth: object                 # real repro.core.synthesis.SynthesizedThread
    platform: object              # real repro.core.platform.Platform
    spaces: List[ReplaySpace]     # by OP_SWITCH index; the run starts in [0]
    # Context switching (multi-process programs only).
    flush_on_switch: bool = False
    #: Called with the absolute cycle when the program runs out at a
    #: fence-drained instant, after the counters so far are in the stat
    #: groups; returns the next program ops (empty: the kernel is done).
    #: None: the program is the whole kernel.
    refill: Optional[Callable[[int], List[tuple]]] = None


@dataclass
class ReplayOutput:
    """Timing of one replayed fabric execution (its counters are already in
    the stat groups).

    All cycle values are relative to the fabric launch (micro-time 0).
    ``finish`` is the thread-completion cycle; ``last_cycle`` is the final
    event (stray prefetch walks may outlive the thread).  ``events`` is the
    number of events scheduled, each dispatched once: ``buffered`` of them
    straight from the one-event buffer, the rest popped from the heap.
    """

    finish: int
    last_cycle: int
    events: int
    buffered: int


_HUGE = 1 << 62

#: Where the loop's statistics go: ``(local, component, stat)``, one row per
#: stat a local feeds, in the order the stats are first created.  A local
#: with an ``_`` feeds a counter (a ``c_`` counter, or a quad's count or
#: total); any other local is the prefix of an accumulator quad
#: (``<prefix>_cnt``, ``_tot``, ``_min``, ``_max``).  ``+`` joins locals
#: whose counts add or whose quads merge: a stat that always equals such a
#: sum is fed from it rather than counted a second time in the loop.
#: ``{walker}`` and ``{memif}`` are the bus port names of the thread's walker
#: and memif.
_STATS = (
    ("c_compute", "thread", "compute_cycles"),
    ("c_mem_ops", "thread", "mem_ops"),
    ("c_mem_bytes", "thread", "mem_bytes"),
    ("st", "thread", "stall_cycles"),
    ("c_memif_ops", "memif", "ops"),
    ("c_memif_bytes", "memif", "bytes"),
    ("c_transactions", "memif", "transactions"),
    ("c_mmu_hits+c_mmu_misses", "mmu", "translations"),  # each hits or misses
    ("c_mmu_hits", "mmu", "tlb_hits"),
    ("c_mmu_misses", "mmu", "tlb_misses"),
    ("ml_cnt", "mmu", "tlb_refills"),     # a refill ends each demand miss
    ("c_pf_hits", "mmu", "prefetch_hits"),
    ("c_pf_issued", "mmu", "prefetches_issued"),
    ("c_pf_dropped", "mmu", "prefetches_dropped"),
    ("c_pf_fills", "mmu", "prefetch_fills"),
    ("c_switches", "mmu", "context_switches"),
    ("c_flushes", "mmu", "flushes"),
    ("c_faults", "mmu", "faults"),
    ("c_faults", "mmu", "faults.not_present"),   # nothing else is modelled
    ("ml", "mmu", "miss_latency"),
    ("fs", "mmu", "fault_service_latency"),
    ("c_walks_req", "walker", "walks_requested"),
    ("c_levels", "walker", "levels_fetched"),
    ("wl_cnt", "walker", "walks_completed"),
    ("c_walks_faulted", "walker", "walks_faulted"),
    ("wl_tot", "walker", "walk_cycles"),
    ("wq", "walker", "queue_wait"),
    ("wl", "walker", "walk_latency"),
    # Each level fetched is one walker-port bus request.
    ("c_levels+c_breq_m", "bus", "requests"),
    ("c_busy", "bus", "busy_cycles"),
    ("c_contended", "bus", "contended_grants"),
    ("c_levels", "bus", "requests_from.{walker}"),
    ("c_breq_m", "bus", "requests_from.{memif}"),
    ("qw", "bus", "queue_wait"),
    ("blw", "bus", "latency_for.{walker}"),
    ("blm", "bus", "latency_for.{memif}"),
    ("c_reads", "dram", "requests"),
    ("c_writes", "dram", "requests"),
    ("c_row_hits", "dram", "row_hits"),
    ("c_row_misses", "dram", "row_misses"),
    ("c_reads", "dram", "reads"),
    ("c_writes", "dram", "writes"),
    ("c_bytes_r", "dram", "bytes_read"),
    ("c_bytes_w", "dram", "bytes_written"),
    # The DRAM resets a request's issue cycle, so the bus's ``latency_for``
    # samples are the DRAM service latencies.  A sample joins the bus quads
    # when its access completes, not when it starts, which no reader sees:
    # the loop drains before the last fold, and the telemetry between folds
    # reads no DRAM stat.
    ("blw+blm", "dram", "latency"),
)

#: The locals a fold diffs: each counter, and each quad's count and total
#: (a quad's minimum and maximum merge as they stand).
_DIFFED = tuple(dict.fromkeys(
    name for local, _, _ in _STATS for part in local.split("+")
    for name in ((part,) if "_" in part else (part + "_cnt", part + "_tot"))))


def _fold(sinks: list, names: Dict[str, int], folded: Dict[str, int]) -> None:
    """Add what the loop counted since the last fold into the stat groups.

    ``sinks`` is :data:`_STATS` with real groups and stat names, ``names``
    the loop's ``locals()`` and ``folded`` the diffed locals' values at the
    last fold, updated here.  Each local's change is taken once, before any
    stat takes it, since one local may feed two stats.  A stat is created
    only once it is non-zero, as the event tier creates it on first use.
    """
    delta = {name: names[name] - folded[name] for name in _DIFFED}
    for name in _DIFFED:
        folded[name] = names[name]
    for local, group, stat in sinks:
        if "_" in local:
            step = sum(delta[part] for part in local.split("+"))
            if step:
                group.counter(stat).inc(step)
            continue
        quads = local.split("+")
        count = sum(delta[quad + "_cnt"] for quad in quads)
        if count:
            acc = group.accumulator(stat)
            acc.count += count
            acc.total += sum(delta[quad + "_tot"] for quad in quads)
            low = min(names[quad + "_min"] for quad in quads)
            high = max(names[quad + "_max"] for quad in quads)
            if acc.minimum is None or low < acc.minimum:
                acc.minimum = low
            if acc.maximum is None or high > acc.maximum:
                acc.maximum = high


def replay_fabric(program: List[tuple], ctx: ReplayContext) -> ReplayOutput:
    """Execute a replay program; returns exact counters and completion cycles.

    The heavy lifting is one dispatch loop over integer-coded events, which
    takes each event from the one-event buffer ``nxt`` or the heap, testing
    the event codes from the most frequent down.  Every scheduling site
    writes its event into ``nxt``, pushing the one already there onto the
    heap.  Mutable scalars live in enclosing-scope cells; the hot TLB
    probe/refill path is inlined against the real TLB's set structures with
    semantics identical to ``TLB.lookup``/``TLB.insert``.  Counters
    accumulate in plain locals and are added into the stat groups at the end
    (and before each ``ctx.refill``); the per-chunk hit path (probe →
    translated → bus → DRAM → completion) runs entirely inside the dispatch
    branches without a single helper call: the bus grant runs at the loop's
    tail, the clean-hit probe in ADVANCE and DRAM_DONE.  Payloads are the
    requests themselves (see the module docstring), and ``events`` is the
    scheduling count, ``seq``.
    """
    synth = ctx.synth
    platform = ctx.platform
    mmu = synth.mmu
    walker = synth.walker
    memif = synth.memif
    thread_cfg = synth.spec.thread_config()
    bus_cfg = platform.bus.config
    dram_cfg = platform.dram.config

    for sp in ctx.spaces:
        if sp.page_size <= 0 or sp.page_size & (sp.page_size - 1):
            raise ReplayFault(
                f"page size {sp.page_size} is not a power of two; the replay "
                "fast path assumes shift/mask page arithmetic")

    heap: List[tuple] = []
    push = heapq.heappush
    pop = heapq.heappop
    # The event scheduled last, until it is dispatched or the next one
    # pushes it onto the heap (None: the buffer is empty).
    nxt: Optional[tuple] = None
    seq = 0
    buffered = 0
    now = 0
    # The simulator's cycle at launch is micro-time 0; fault records,
    # ``refill`` and the cycle limit see absolute time.
    clock_base = platform.sim.now
    max_cycles = platform.config.max_cycles
    limit = _HUGE if max_cycles is None else max_cycles - clock_base

    # ----- thread state -------------------------------------------------
    pc = 0
    nops = len(program)
    refill = ctx.refill
    outstanding = 0
    waiting_slot = False
    waiting_fence = False
    stalled_chunks: Optional[list] = None
    stalled_bytes = 0
    stall_started = 0
    exhausted = False
    finish = -1
    max_outstanding = thread_cfg.max_outstanding
    issue_latency = memif.config.issue_latency

    # ----- per-space translation state ---------------------------------
    spaces = ctx.spaces
    space = spaces[0]
    cur_asid = space.asid
    cur_page_size = space.page_size
    cur_shift = cur_page_size.bit_length() - 1
    cur_mask = cur_page_size - 1
    cur_vpn_limit = space.vpn_limit

    # ----- TLB state, inlined against the real object -------------------
    tlb = mmu.tlb
    tlb_cfg = tlb.config
    hit_latency = tlb_cfg.hit_latency
    tlb_sets = tlb._sets
    num_sets = tlb_cfg.num_sets
    ways = tlb_cfg.ways
    policy = tlb_cfg.replacement      # "lru" | "fifo" | "random"
    is_lru = policy == "lru"
    rng = tlb._rng
    tlb_hits = tlb.hits
    tlb_misses = tlb.misses
    tlb_evictions = tlb.evictions
    from ..vm.tlb import (TRACE_ABSENT, TRACE_HIT, TRACE_MISS, TRACE_NEW,
                          TRACE_PRESENT, TRACE_RESIDENT, TLBEntry)
    # The TLB's operation trace, if one is running in this space: every
    # inlined lookup, fill and probe appends its code, as TLB.lookup and
    # TLB.insert do.  A hit is skipped while the trace ends in a hit on the
    # same page, which ``traced_vpn`` names (-1: it ends in anything else).
    trace = tlb.trace
    if trace is not None and tlb.trace_asid != cur_asid:
        tlb.trace = trace = None
    traced_vpn = -1

    # ----- prefetcher state (mirrors MMU) -------------------------------
    prefetch_depth = mmu.config.prefetch_depth
    recent_misses: deque = deque(maxlen=8)
    prefetch_score = 16               # MMU.PREFETCH_SCORE_INIT
    prefetches_inflight: set = set()

    # ----- walker state -------------------------------------------------
    walk_queue: deque = deque()
    walker_busy = False
    per_level_overhead = walker.config.per_level_overhead
    # Fault service changes PTEs in place (``set_present`` keeps the entry
    # object) and never adds table nodes, so per-vpn walk addresses and leaf
    # PTEs memoize.
    wa_cache: Dict[tuple, list] = {}
    pte_cache: Dict[tuple, object] = {}
    _missing = object()

    # ----- bus state ----------------------------------------------------
    walker_master = walker.port.index
    memif_master = memif.bus_port.index
    # RoundRobinArbiter.choose over ascending candidate indices: first index
    # greater than the last grant, else wrap to the lowest.
    rr_lo, rr_hi = sorted((walker_master, memif_master))
    bus_queue_w: deque = deque()      # walker-port queue
    bus_queue_m: deque = deque()      # memif-port queue
    inflight_w = 0
    inflight_m = 0
    bus_busy = False
    bus_last = -1                     # RoundRobinArbiter._last_granted
    bus_max_inflight = bus_cfg.max_outstanding_per_master
    bus_width = bus_cfg.bus_width_bytes
    addr_phase = bus_cfg.address_phase_cycles

    # ----- fault service state (mirrors MMU._fault + DemandPagingHandler) -
    max_retries = mmu.config.max_fault_retries
    fault_thread = memif.thread_name
    #: handler -> [queue of (fault, walk request, fault start), busy flag]
    handlers: Dict[object, list] = {}

    # ----- DRAM state ---------------------------------------------------
    num_banks = dram_cfg.num_banks
    row_bytes = dram_cfg.row_bytes
    row_span = row_bytes * num_banks
    row_hit_lat = dram_cfg.row_hit_latency
    row_miss_lat = dram_cfg.row_miss_latency
    controller = dram_cfg.controller_latency
    dram_bpc = dram_cfg.data_bus_bytes_per_cycle
    write_penalty = dram_cfg.write_latency_penalty
    open_rows: List[Optional[int]] = [None] * num_banks
    bank_free = [0] * num_banks
    data_bus_free = 0

    # ----- counters, kept in locals until a fold adds them to the groups --
    c_mmu_hits = 0
    c_mmu_misses = 0
    c_transactions = 0
    c_mem_ops = 0
    c_mem_bytes = 0
    c_memif_ops = 0
    c_memif_bytes = 0
    c_compute = 0
    c_breq_m = 0
    c_busy = 0
    c_contended = 0
    c_row_hits = 0
    c_row_misses = 0
    c_reads = 0
    c_writes = 0
    c_bytes_r = 0
    c_bytes_w = 0
    c_walks_req = 0
    c_levels = 0
    c_walks_faulted = 0
    c_pf_hits = 0
    c_pf_issued = 0
    c_pf_dropped = 0
    c_pf_fills = 0
    c_switches = 0
    c_flushes = 0
    c_faults = 0
    # Accumulator quads: (count, total, min, max).
    qw_cnt = qw_tot = 0; qw_min = _HUGE; qw_max = -1     # bus queue wait
    blw_cnt = blw_tot = 0; blw_min = _HUGE; blw_max = -1  # bus latency (walker)
    blm_cnt = blm_tot = 0; blm_min = _HUGE; blm_max = -1  # bus latency (memif)
    st_cnt = st_tot = 0; st_min = _HUGE; st_max = -1      # thread stall
    wq_cnt = wq_tot = 0; wq_min = _HUGE; wq_max = -1      # walker queue wait
    wl_cnt = wl_tot = 0; wl_min = _HUGE; wl_max = -1      # walk latency
    ml_cnt = ml_tot = 0; ml_min = _HUGE; ml_max = -1      # mmu miss latency
    fs_cnt = fs_tot = 0; fs_min = _HUGE; fs_max = -1      # fault service
    stats = platform.sim.stats
    groups = {"thread": stats.group(synth.spec.name), "memif": memif.stats,
              "mmu": mmu.stats, "walker": walker.stats,
              "bus": platform.bus.stats, "dram": platform.dram.stats}
    ports = {"walker": walker.port.name, "memif": memif.bus_port.name}
    sinks = [(local, groups[component], stat.format(**ports))
             for local, component, stat in _STATS]
    folded = dict.fromkeys(_DIFFED, 0)

    # ------------------------------------------------------------- helpers
    def bus_grant() -> None:
        """The loop-tail grant, for ``walker_start_next``: a walker submit
        runs inside other events and must grant at once, as
        ``SystemBus.submit`` does."""
        nonlocal bus_busy, bus_last, inflight_w, inflight_m, nxt, seq
        nonlocal c_busy, c_contended, qw_cnt, qw_tot, qw_min, qw_max
        if bus_queue_w and inflight_w < bus_max_inflight:
            if bus_queue_m and inflight_m < bus_max_inflight:
                chosen = (rr_lo if (bus_last < rr_lo or bus_last >= rr_hi)
                          else rr_hi)
            else:
                chosen = walker_master
        elif bus_queue_m and inflight_m < bus_max_inflight:
            chosen = memif_master
        else:
            bus_busy = False
            return
        bus_busy = True
        bus_last = chosen
        if chosen == walker_master:
            payload, issued = bus_queue_w.popleft()
            inflight_w += 1
        else:
            payload, issued = bus_queue_m.popleft()
            inflight_m += 1
        wait = now - issued
        qw_cnt += 1
        qw_tot += wait
        if wait < qw_min:
            qw_min = wait
        if wait > qw_max:
            qw_max = wait
        if wait > 0:
            c_contended += 1
        beats = (payload[2] + bus_width - 1) // bus_width
        if beats < 1:
            beats = 1
        occupancy = addr_phase + beats
        c_busy += occupancy
        if nxt is not None:
            push(heap, nxt)
        nxt = (now + occupancy, seq, 3, payload)            # BUS_FORWARD
        seq += 1

    # Walk request tuples: demand -> (0, vpn, space, issue_payload, started,
    # issued_at, retries_left); prefetch -> (1, vpn, space, (key, stride), 0,
    # issued_at).
    def walker_walk(request: tuple) -> None:
        nonlocal c_walks_req
        c_walks_req += 1
        walk_queue.append(request)
        if not walker_busy:
            walker_start_next()

    def walker_start_next() -> None:
        nonlocal walker_busy, wq_cnt, wq_tot, wq_min, wq_max
        nonlocal c_levels
        if not walk_queue:
            walker_busy = False
            return
        walker_busy = True
        request = walk_queue.popleft()
        wait = now - request[5]
        wq_cnt += 1
        wq_tot += wait
        if wait < wq_min:
            wq_min = wait
        if wait > wq_max:
            wq_max = wait
        wa_key = (request[2].asid, request[1])
        addresses = wa_cache.get(wa_key)
        if addresses is None:
            addresses = request[2].page_table.walk_addresses(request[1])
            wa_cache[wa_key] = addresses
        # The first level's walker-port bus submit, inlined (a walk reads at
        # least the root's slot; WALK_STEP submits the later levels).
        c_levels += 1
        bus_queue_w.append(((_REQ_WALK, addresses[0], request[2].pte_bytes,
                             False, request, addresses, 0, now), now))
        if not bus_busy:
            bus_grant()

    def walk_finish(request: tuple, addresses: list, started_at: int) -> None:
        nonlocal tlb_evictions, nxt, seq, c_walks_faulted, traced_vpn
        nonlocal c_transactions, c_pf_dropped, c_pf_fills
        nonlocal wl_cnt, wl_tot, wl_min, wl_max, ml_cnt, ml_tot, ml_min, ml_max
        req_space = request[2]
        vpn = request[1]
        if len(addresses) == req_space.expected_levels:
            pte_key = (req_space.asid, vpn)
            entry = pte_cache.get(pte_key, _missing)
            if entry is _missing:
                entry = req_space.page_table.entry(vpn)
                pte_cache[pte_key] = entry
        else:
            entry = None
        wc = now - started_at
        wl_cnt += 1
        wl_tot += wc
        if wc < wl_min:
            wl_min = wc
        if wc > wl_max:
            wl_max = wc
        if entry is None:
            # Prefetch probe beyond the mapped range: the walker records the
            # faulted walk; the MMU will just drop the prefetch.
            c_walks_faulted += 1

        prefetched = request[0] != _REQ_DATA
        if not prefetched:                # demand walk
            if (entry is None or not entry.present
                    or (request[3][2] and not entry.writable)):
                fault(request, entry)
                walker_start_next()
                return
            # Demand refills take the *currently active* ASID (the MMU tags
            # them with its active page table).
            key = (cur_asid, vpn)
        else:                             # prefetch walk
            key, stride = request[3]
            prefetches_inflight.discard(key)
            if entry is None or not entry.present:
                c_pf_dropped += 1
                walker_start_next()
                return
        # TLB.insert, inlined: a demand refill clears a resident entry's
        # prefetch tag, a prefetch refresh keeps it.
        tlb_set = tlb_sets[vpn % num_sets]
        resident = tlb_set.get(key)
        if trace is not None:
            trace.append(vpn << 3 | (TRACE_NEW if resident is None
                                     else TRACE_RESIDENT))
            traced_vpn = -1
        if resident is not None:
            resident.frame = entry.frame
            resident.writable = entry.writable
            if not prefetched:
                resident.prefetched = False
        else:
            if len(tlb_set) >= ways:
                tlb_evictions += 1
                # The first entry is the LRU and the FIFO victim (TLB._evict).
                if policy == "random":
                    del tlb_set[rng.choice(list(tlb_set))]
                else:
                    tlb_set.popitem(last=False)
            # Positional: (vpn, frame, writable, asid, prefetched), half the
            # cost of the keyword call.
            resident = TLBEntry(vpn, entry.frame, entry.writable, key[0],
                                prefetched)
            tlb_set[key] = resident
        entry.accessed = True
        if prefetched:
            resident.prefetch_stride = stride
            c_pf_fills += 1
        else:
            issue_payload = request[3]    # (offset, size, is_write, chunks, i)
            if issue_payload[2]:
                entry.dirty = True
            miss = now - request[4]
            ml_cnt += 1
            ml_tot += miss
            if miss < ml_min:
                ml_min = miss
            if miss > ml_max:
                ml_max = miss
            paddr = entry.frame * req_space.page_size + issue_payload[0]
            c_transactions += 1
            if nxt is not None:
                push(heap, nxt)
            nxt = (now + issue_latency, seq, 2,           # BUS_ISSUE
                   (_REQ_DATA, paddr, issue_payload[1], issue_payload[2],
                    issue_payload[3], issue_payload[4]))
            seq += 1
        walker_start_next()

    def lend_tlb() -> None:
        """Write the inlined TLB state back before real code reads it."""
        tlb.hits = tlb_hits
        tlb.misses = tlb_misses
        tlb.evictions = tlb_evictions

    def reclaim_tlb() -> None:
        """Take the TLB state back after real code may have touched it (and
        appended to its trace)."""
        nonlocal tlb_hits, tlb_misses, tlb_evictions, traced_vpn
        tlb_hits = tlb.hits
        tlb_misses = tlb.misses
        tlb_evictions = tlb.evictions
        traced_vpn = -1

    def fault(request: tuple, entry) -> None:
        """Mirror of ``MMU._fault`` + ``DemandPagingHandler.handle_fault``."""
        nonlocal nxt, seq, c_faults
        vpn = request[1]
        if entry is None or entry.present:
            raise ReplayFault(
                f"{'not_mapped' if entry is None else 'protection'} fault on "
                f"vpn {vpn:#x} (asid {request[2].asid}); the replay tier "
                "services only not-present demand faults — run this "
                "workload on the event tier")
        payload = request[3]          # (offset, size, is_write, chunks, i)
        c_faults += 1
        record = PageFault(vaddr=payload[3][payload[4]][0],
                           access=(AccessType.WRITE if payload[2]
                                   else AccessType.READ),
                           fault_type=FaultType.NOT_PRESENT,
                           thread=fault_thread, cycle=clock_base + now)
        handler = space.handler
        if handler is None or request[6] <= 0:
            why = "no fault handler" if handler is None else "retries spent"
            raise ReplayFault(
                f"fatal fault on vpn {vpn:#x} (asid {request[2].asid}, "
                f"{why}); the thread aborts, which only the event tier "
                "models")
        handler.count("faults_received")
        handler.fault_log.append(record)
        state = handlers.get(handler)
        if state is None:
            state = handlers[handler] = [deque(), False]
        if len(state[0]) >= handler.config.max_queue_depth:
            raise ReplayFault(
                f"fault queue of {handler.name} full; the dropped fault aborts "
                "the thread, which only the event tier models")
        state[0].append((record, request, now))
        if not state[1]:
            state[1] = True
            if nxt is not None:
                push(heap, nxt)
            nxt = (now + handler.config.interrupt_latency, seq, 6,
                   (handler, state))                      # FAULT_SERVICE
            seq += 1

    def fault_service(handler, state: list) -> None:
        """Mirror of ``DemandPagingHandler._service_next``: the real
        ``_resolve`` allocates the frame, sets the PTE present and, with a
        host-shared TLB, probes and refills it."""
        nonlocal nxt, seq
        if not state[0]:
            state[1] = False
            return
        record, request, fault_started = state[0].popleft()
        lend_tlb()
        resolved, extra = handler._resolve(record)
        reclaim_tlb()
        if not resolved:
            raise ReplayFault(
                f"{handler.name} could not resolve the fault at "
                f"{record.vaddr:#x} (out of frames?); the thread aborts, "
                "which only the event tier models")
        if nxt is not None:
            push(heap, nxt)
        nxt = (now + handler.config.service_cycles + extra, seq, 7,
               (handler, state, request, now, fault_started))  # FAULT_DONE
        seq += 1

    def fault_done(handler, state: list, request: tuple, started: int,
                   fault_started: int) -> None:
        """The service's ``finish``: the MMU resumes and re-walks in the
        active space, one retry spent; the handler takes its next fault."""
        nonlocal nxt, seq, fs_cnt, fs_tot, fs_min, fs_max
        handler.sample("service_latency", now - started)
        handler.count("faults_resolved")
        latency = now - fault_started
        fs_cnt += 1
        fs_tot += latency
        if latency < fs_min:
            fs_min = latency
        if latency > fs_max:
            fs_max = latency
        walker_walk((_REQ_DATA, request[1], space, request[3], request[4],
                     now, request[6] - 1))
        if nxt is not None:
            push(heap, nxt)
        nxt = (now, seq, 6, (handler, state))            # FAULT_SERVICE
        seq += 1

    def maybe_prefetch(vpn: int, stride: int) -> None:
        nonlocal prefetch_score, c_pf_issued, traced_vpn
        if prefetch_depth <= 0 or prefetch_score < 8:   # SCORE_GATE
            return
        asid = cur_asid
        limit = cur_vpn_limit
        space_now = space
        for ahead in range(1, prefetch_depth + 1):
            target = vpn + stride * ahead
            if not 0 <= target < limit:
                continue
            key = (asid, target)
            present = key in tlb_sets[target % num_sets]
            if trace is not None:
                trace.append(target << 3 | (TRACE_PRESENT if present
                                            else TRACE_ABSENT))
                traced_vpn = -1
            if present or key in prefetches_inflight:
                continue
            prefetches_inflight.add(key)
            prefetch_score -= 1
            c_pf_issued += 1
            walker_walk((_REQ_WALK, target, space_now, (key, stride), 0, now))

    def translate(vaddr: int, size: int, is_write: bool, chunks: list,
                  index: int, vpn: int, entry) -> None:
        """Mirror of ``MMU.translate`` + the memif issue that follows a hit.

        The dispatch loop inlines the clean-hit fast path at its two issue
        sites, ADVANCE (an op's first chunk) and DRAM_DONE (the next chunk,
        or a stalled op's first), and calls in here only for misses,
        prefetched hits and write-protection upgrades, with the entry its
        probe found for ``vpn`` (None: a miss); the inlined probe and this
        path must stay semantically identical.
        """
        nonlocal tlb_hits, tlb_misses, prefetch_score, nxt, seq, traced_vpn
        nonlocal c_mmu_hits, c_mmu_misses, c_pf_hits, c_walks_req
        # The rest of TLB.lookup, inlined.
        if entry is not None:
            tlb_hits += 1
            if is_lru:
                tlb_sets[vpn % num_sets].move_to_end((cur_asid, vpn))
            if trace is not None and vpn != traced_vpn:
                trace.append(vpn << 3 | TRACE_HIT)
                traced_vpn = vpn
        else:
            tlb_misses += 1
            if trace is not None:
                trace.append(vpn << 3 | TRACE_MISS)
                traced_vpn = -1
        if entry is not None and (not is_write or entry.writable):
            c_mmu_hits += 1
            if entry.prefetched:
                entry.prefetched = False
                c_pf_hits += 1
                prefetch_score = min(31, prefetch_score + 4)  # MAX, HIT_BONUS
                maybe_prefetch(vpn, entry.prefetch_stride)
            if nxt is not None:
                push(heap, nxt)
            nxt = (now + hit_latency, seq, 1,                 # TRANSLATED
                   (_REQ_DATA, (entry.frame << cur_shift) | (vaddr & cur_mask),
                    size, is_write, chunks, index))
            seq += 1
            return
        c_mmu_misses += 1
        # The demand walk, queued as ``walker_walk`` queues one.
        c_walks_req += 1
        walk_queue.append((_REQ_DATA, vpn, space,
                           (vaddr & cur_mask, size, is_write, chunks, index),
                           now, now, max_retries))
        if not walker_busy:
            walker_start_next()
        if prefetch_depth <= 0:
            return          # the stride history feeds only the prefetcher
        # _miss_stride: continue the closest recent stream, else next-page.
        stride = 1
        for recent in reversed(recent_misses):
            delta = vpn - recent
            if delta != 0 and -3 <= delta <= 3:     # MAX_PREFETCH_STRIDE
                stride = delta
                break
        recent_misses.append(vpn)
        maybe_prefetch(vpn, stride)

    # ------------------------------------------------------------ main loop
    nxt = (thread_cfg.start_latency, seq, 0, None)             # ADVANCE
    seq += 1

    while True:
        if nxt is not None and (not heap or nxt < heap[0]):
            now, _, code, payload = nxt
            nxt = None
            buffered += 1
        elif heap:
            now, _, code, payload = pop(heap)
        else:
            break
        if now > limit:
            raise SimulationError(
                f"simulation exceeded max_cycles={max_cycles} "
                f"(next event at {clock_base + now})")

        # The event codes, from the most frequent down.
        if code == 3:                   # _EV_BUS_FORWARD -> DRAM access
            addr = payload[1]
            size = payload[2]
            bank = (addr // row_bytes) % num_banks
            start = now + controller
            free_at = bank_free[bank]
            if free_at > start:
                start = free_at
            row = addr // row_span
            if open_rows[bank] == row:
                latency = row_hit_lat
                c_row_hits += 1
            else:
                latency = row_miss_lat
                open_rows[bank] = row
                c_row_misses += 1
            transfer = (size + dram_bpc - 1) // dram_bpc
            if transfer < 1:
                transfer = 1
            data_start = start + latency
            if data_bus_free > data_start:
                data_start = data_bus_free
            finish_at = data_start + transfer
            if payload[3]:
                finish_at += write_penalty
                c_writes += 1
                c_bytes_w += size
            else:
                c_reads += 1
                c_bytes_r += size
            bank_free[bank] = finish_at
            data_bus_free = data_start + transfer
            # The payload carries the DRAM service latency to the bus's
            # ``latency_for`` sample.
            if nxt is not None:
                push(heap, nxt)
            nxt = (finish_at, seq, 4, (payload, finish_at - now))
            seq += 1
            # The occupancy window closed: grant the next request or idle.
        elif code == 4:                 # _EV_DRAM_DONE
            # The request's kind names its port: data -> memif, walk ->
            # walker.
            request, service = payload
            if request[0] == _REQ_DATA:
                inflight_m -= 1
                blm_cnt += 1
                blm_tot += service
                if service < blm_min:
                    blm_min = service
                if service > blm_max:
                    blm_max = service
                chunks = request[4]
                index = request[5] + 1
                if index == len(chunks):
                    # Operation retired -> hardware thread _on_mem_done.  A
                    # stalled op takes the slot and issues its first chunk
                    # below; otherwise no chunk issues.
                    outstanding -= 1
                    if waiting_slot:
                        waiting_slot = False
                        stall = now - stall_started
                        st_cnt += 1
                        st_tot += stall
                        if stall < st_min:
                            st_min = stall
                        if stall > st_max:
                            st_max = stall
                        outstanding += 1
                        c_memif_ops += 1
                        c_memif_bytes += stalled_bytes
                        chunks = stalled_chunks
                        index = 0
                    else:
                        chunks = None
                        if waiting_fence and outstanding == 0:
                            waiting_fence = False
                            if nxt is not None:
                                push(heap, nxt)
                            nxt = (now, seq, 0, None)           # ADVANCE
                            seq += 1
                        elif exhausted and outstanding == 0 and finish < 0:
                            finish = now
                if chunks is not None:
                    # The op's next chunk, or the released op's first:
                    # inline clean-hit probe (misses and prefetched hits
                    # take the full translate path).
                    vaddr, size, is_write = chunks[index]
                    vpn = vaddr >> cur_shift
                    key = (cur_asid, vpn)
                    tlb_set = tlb_sets[vpn % num_sets]
                    entry = tlb_set.get(key)
                    if (entry is not None and not entry.prefetched
                            and (not is_write or entry.writable)):
                        tlb_hits += 1
                        if is_lru:
                            tlb_set.move_to_end(key)
                        if trace is not None and vpn != traced_vpn:
                            trace.append(vpn << 3 | TRACE_HIT)
                            traced_vpn = vpn
                        c_mmu_hits += 1
                        if nxt is not None:
                            push(heap, nxt)
                        nxt = (now + hit_latency, seq, 1,
                               (_REQ_DATA,
                                (entry.frame << cur_shift)
                                | (vaddr & cur_mask),
                                size, is_write, chunks, index))
                        seq += 1
                    else:
                        translate(vaddr, size, is_write, chunks, index, vpn,
                                  entry)
                    if not index:
                        # The released op is in flight; the thread advances.
                        if nxt is not None:
                            push(heap, nxt)
                        nxt = (now, seq, 0, None)               # ADVANCE
                        seq += 1
            else:
                inflight_w -= 1
                blw_cnt += 1
                blw_tot += service
                if service < blw_min:
                    blw_min = service
                if service > blw_max:
                    blw_max = service
                if nxt is not None:
                    push(heap, nxt)
                nxt = (now + per_level_overhead, seq, 5, request)  # WALK_STEP
                seq += 1
            if bus_busy:
                continue
        elif code == 0:                 # _EV_ADVANCE
            # The thread runs ops until one waits; ``wake`` is the cycle of
            # its next advance (None: a completion wakes it).
            wake = None
            while True:
                if pc >= nops:
                    if refill is not None:
                        # Out of program at a fence-drained instant: the
                        # counters so far go into the stat groups, the next
                        # ops come back.
                        _fold(sinks, locals(), folded)
                        program = refill(clock_base + now)
                        pc = 0
                        nops = len(program)
                        if nops:
                            continue
                        refill = None           # the kernel is done
                    exhausted = True
                    if outstanding == 0 and finish < 0:
                        finish = now
                    break
                op = program[pc]
                pc += 1
                kind = op[0]
                if kind == OP_MEM:
                    c_mem_ops += 1
                    c_mem_bytes += op[2]
                    if outstanding >= max_outstanding:
                        waiting_slot = True
                        stalled_chunks = op[1]
                        stalled_bytes = op[2]
                        stall_started = now
                        break
                    outstanding += 1
                    c_memif_ops += 1
                    c_memif_bytes += op[2]
                    chunks = op[1]
                    vaddr, size, is_write = chunks[0]
                    # Inline clean-hit probe (misses and prefetched hits take
                    # the full translate path).
                    vpn = vaddr >> cur_shift
                    key = (cur_asid, vpn)
                    tlb_set = tlb_sets[vpn % num_sets]
                    entry = tlb_set.get(key)
                    if (entry is not None and not entry.prefetched
                            and (not is_write or entry.writable)):
                        tlb_hits += 1
                        if is_lru:
                            tlb_set.move_to_end(key)
                        if trace is not None and vpn != traced_vpn:
                            trace.append(vpn << 3 | TRACE_HIT)
                            traced_vpn = vpn
                        c_mmu_hits += 1
                        if nxt is not None:
                            push(heap, nxt)
                        nxt = (now + hit_latency, seq, 1,
                               (_REQ_DATA,
                                (entry.frame << cur_shift)
                                | (vaddr & cur_mask),
                                size, is_write, chunks, 0))
                        seq += 1
                    else:
                        translate(vaddr, size, is_write, chunks, 0, vpn, entry)
                    if ((nxt is not None and nxt[0] == now)
                            or (heap and heap[0][0] == now)):
                        # Another event fires this cycle before the thread's
                        # zero-delay advance would; defer behind it to
                        # preserve the event order.
                        wake = now
                        break
                    continue
                if kind == OP_COMPUTE:
                    c_compute += op[1]
                    wake = now + op[1]
                    break
                if kind == OP_FENCE:
                    if outstanding == 0:
                        if ((nxt is not None and nxt[0] == now)
                                or (heap and heap[0][0] == now)):
                            wake = now
                            break
                        continue
                    waiting_fence = True
                    break
                if kind == OP_YIELD:
                    wake = now + 1
                    break
                # OP_SWITCH: runs inside this advance and charges the kernel,
                # like the generator's switch hook; a positive stall behaves
                # as a Compute op.
                space = spaces[op[1]]
                # A trace covers one address space.
                tlb.trace = trace = None
                if ctx.flush_on_switch:
                    for tlb_set in tlb_sets:
                        tlb_set.clear()
                    tlb.flushes += 1
                    c_flushes += 1
                cur_asid = space.asid
                cur_page_size = space.page_size
                cur_shift = cur_page_size.bit_length() - 1
                cur_mask = cur_page_size - 1
                cur_vpn_limit = space.vpn_limit
                recent_misses.clear()
                prefetch_score = 16
                c_switches += 1
                stall = platform.kernel.cost_context_switch()
                if stall > 0:
                    c_compute += stall
                    wake = now + stall
                    break
                # zero-stall switch: fall through to the next program op
            if wake is not None:
                if nxt is not None:
                    push(heap, nxt)
                nxt = (wake, seq, 0, None)
                seq += 1
            continue
        elif code == 5:                 # _EV_WALK_STEP
            # The payload is the walker's bus request for the level just
            # fetched; the walk moves on to the next one.
            _, _, pte_bytes, _, request, addresses, level, started_at = payload
            level += 1
            if level >= len(addresses):
                walk_finish(request, addresses, started_at)
                continue
            c_levels += 1
            bus_queue_w.append(((_REQ_WALK, addresses[level], pte_bytes,
                                 False, request, addresses, level,
                                 started_at), now))
            if bus_busy:
                continue
        elif code == 2:                 # _EV_BUS_ISSUE (memif-port submit)
            c_breq_m += 1
            bus_queue_m.append((payload, now))
            if bus_busy:
                continue
        elif code == 1:                 # _EV_TRANSLATED
            # Hit latency elapsed -> memif.issue(): one transaction.  The
            # payload is already in BUS_ISSUE form.
            c_transactions += 1
            if nxt is not None:
                push(heap, nxt)
            nxt = (now + issue_latency, seq, 2, payload)
            seq += 1
            continue
        elif code == 6:                 # _EV_FAULT_SERVICE
            fault_service(*payload)
            continue
        else:                           # _EV_FAULT_DONE
            fault_done(*payload)
            continue

        # Bus grant: every BUS_FORWARD falls through to here, and DRAM_DONE,
        # BUS_ISSUE and WALK_STEP on an idle bus; every other event continues.
        if bus_queue_w and inflight_w < bus_max_inflight:
            if bus_queue_m and inflight_m < bus_max_inflight:
                chosen = (rr_lo if (bus_last < rr_lo or bus_last >= rr_hi)
                          else rr_hi)
            else:
                chosen = walker_master
        elif bus_queue_m and inflight_m < bus_max_inflight:
            chosen = memif_master
        else:
            bus_busy = False
            continue
        bus_busy = True
        bus_last = chosen
        if chosen == walker_master:
            gpayload, issued = bus_queue_w.popleft()
            inflight_w += 1
        else:
            gpayload, issued = bus_queue_m.popleft()
            inflight_m += 1
        wait = now - issued
        qw_cnt += 1
        qw_tot += wait
        if wait < qw_min:
            qw_min = wait
        if wait > qw_max:
            qw_max = wait
        if wait > 0:
            c_contended += 1
        beats = (gpayload[2] + bus_width - 1) // bus_width
        if beats < 1:
            beats = 1
        occupancy = addr_phase + beats
        c_busy += occupancy
        if nxt is not None:
            push(heap, nxt)
        nxt = (now + occupancy, seq, 3, gpayload)              # BUS_FORWARD
        seq += 1

    if finish < 0:
        raise SimulationError(
            "replay quiesced without completing the thread "
            f"(outstanding={outstanding}, pc={pc}/{nops})")

    lend_tlb()
    _fold(sinks, locals(), folded)
    # Every scheduled event takes the next ``seq`` and is dispatched once,
    # from the buffer or the heap, and both are empty now: ``seq`` counts
    # the events dispatched.
    return ReplayOutput(finish=finish, last_cycle=now, events=seq,
                        buffered=buffered)
