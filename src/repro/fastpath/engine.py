"""Replay micro-simulator: the event loop of one SVM hardware thread, flattened.

The component-based event tier executes a kernel through ~10 Python objects
(thread → memif → MMU → TLB → walker → bus → DRAM), each interaction a
closure on the global heap.  This engine replays a pre-recorded operation
stream (:mod:`repro.fastpath.record`) through *one* dispatch loop whose
events are small tuples ``(cycle, seq, code, payload)`` and whose component
state lives in local variables.

Exactness is by construction, not by approximation: the engine mirrors every
``Simulator.schedule`` call the real components would make — same delays,
same order within an event, same synchronous call chains — so the heap pops
in the identical order and every counter, stall and completion cycle comes
out identical to the event tier.  It reads its timing from the real
components' configs (thread, memif, MMU, TLB, walker, bus, DRAM), and one
table (:data:`_STATS`) sends each counter it keeps in a local into the real
component's stat group.  The set-associative ASID-tagged TLB state is kept
in the *real* :class:`~repro.vm.tlb.TLB` object (pre-warmed by any
host-side pinning touches), manipulated inline with the exact semantics of
``lookup``/``insert``/``flush``; page-table walks read the real
:class:`~repro.vm.pagetable.PageTable` nodes.

Demand faults (a walk that finds the page not present) are serviced the way
``MMU._fault`` and the OS's ``DemandPagingHandler`` service them: interrupt
latency, a serial per-handler queue, the service time plus zero-fill, then a
re-walk.  The handler's real ``_resolve`` runs at the service instant, so
frames, PTEs and host touches of a shared TLB land in the real objects.
Faults the engine does not model (an unmapped page, a write to a read-only
page, a service that fails, a full handler queue, exhausted retries) raise
:class:`ReplayFault`, and the caller falls back to the event tier.

A program may also be fed in pieces: when it runs out at a fence-drained
instant, the counters so far go into the stat groups and
``ReplayContext.refill`` returns the next ops.  Adaptive scheduling uses
this to let the real scheduler pick each slice from the real telemetry.
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
    #: Returns the switch stall in cycles; the caller wires this to the real
    #: ``HostKernel.cost_context_switch`` so software overhead is charged
    #: identically to the event tier.
    on_switch_cost: Optional[Callable[[], int]] = None
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
    event (stray prefetch walks may outlive the thread).
    """

    finish: int
    last_cycle: int
    events: int


_HUGE = 1 << 62

#: Where the loop's statistics go: ``(local, component, stat)``, one row per
#: stat a local feeds, in the order the stats are first created.  A ``c_``
#: local is a counter; any other local is the prefix of an accumulator quad
#: (``<prefix>_cnt``, ``_tot``, ``_min``, ``_max``).  ``{walker}`` and
#: ``{memif}`` are the bus port names of the thread's walker and memif.
_STATS = (
    ("c_compute", "thread", "compute_cycles"),
    ("c_mem_ops", "thread", "mem_ops"),
    ("c_mem_bytes", "thread", "mem_bytes"),
    ("st", "thread", "stall_cycles"),
    ("c_memif_ops", "memif", "ops"),
    ("c_memif_bytes", "memif", "bytes"),
    ("c_transactions", "memif", "transactions"),
    ("c_translations", "mmu", "translations"),
    ("c_mmu_hits", "mmu", "tlb_hits"),
    ("c_mmu_misses", "mmu", "tlb_misses"),
    ("c_refills", "mmu", "tlb_refills"),
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
    ("c_walks_done", "walker", "walks_completed"),
    ("c_walks_faulted", "walker", "walks_faulted"),
    ("c_walk_cycles", "walker", "walk_cycles"),
    ("wq", "walker", "queue_wait"),
    ("wl", "walker", "walk_latency"),
    ("c_bus_requests", "bus", "requests"),
    ("c_busy", "bus", "busy_cycles"),
    ("c_contended", "bus", "contended_grants"),
    ("c_breq_w", "bus", "requests_from.{walker}"),
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
    ("dl", "dram", "latency"),
)

#: The locals a fold diffs: each counter, and each quad's count and total
#: (a quad's minimum and maximum merge as they stand).
_DIFFED = tuple(dict.fromkeys(
    name for local, _, _ in _STATS
    for name in ((local,) if local.startswith("c_")
                 else (local + "_cnt", local + "_tot"))))


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
        if local.startswith("c_"):
            if delta[local]:
                group.counter(stat).inc(delta[local])
        elif delta[local + "_cnt"]:
            acc = group.accumulator(stat)
            acc.count += delta[local + "_cnt"]
            acc.total += delta[local + "_tot"]
            low, high = names[local + "_min"], names[local + "_max"]
            if acc.minimum is None or low < acc.minimum:
                acc.minimum = low
            if acc.maximum is None or high > acc.maximum:
                acc.maximum = high


def replay_fabric(program: List[tuple], ctx: ReplayContext) -> ReplayOutput:
    """Execute a replay program; returns exact counters and completion cycles.

    The heavy lifting is one ``while heap`` loop over integer-coded events.
    Mutable scalars live in enclosing-scope cells; the hot TLB probe/refill
    path is inlined against the real TLB's set structures with semantics
    identical to ``TLB.lookup``/``TLB.insert``.  Counters accumulate in
    plain locals and are added into the stat groups at the end (and before
    each ``ctx.refill``); the per-chunk hit path (probe → translated → bus →
    DRAM → completion) runs entirely inside the dispatch branches without a
    single helper call.
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
    seq = 0
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
    cur_table = space.page_table
    cur_page_size = space.page_size
    cur_shift = cur_page_size.bit_length() - 1
    cur_mask = cur_page_size - 1
    cur_vpn_limit = space.vpn_limit
    cur_pte_bytes = space.pte_bytes
    cur_levels = space.expected_levels

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
    tick = tlb._tick
    tlb_hits = tlb.hits
    tlb_misses = tlb.misses
    tlb_evictions = tlb.evictions
    from ..vm.tlb import TLBEntry

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
    c_translations = 0
    c_mmu_hits = 0
    c_mmu_misses = 0
    c_refills = 0
    c_transactions = 0
    c_mem_ops = 0
    c_mem_bytes = 0
    c_memif_ops = 0
    c_memif_bytes = 0
    c_compute = 0
    c_bus_requests = 0
    c_breq_w = 0
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
    c_walks_done = 0
    c_walks_faulted = 0
    c_walk_cycles = 0
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
    dl_cnt = dl_tot = 0; dl_min = _HUGE; dl_max = -1      # dram latency
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
        nonlocal bus_busy, bus_last, inflight_w, inflight_m, seq
        nonlocal c_busy, c_contended, qw_cnt, qw_tot, qw_min, qw_max
        cand_w = bool(bus_queue_w) and inflight_w < bus_max_inflight
        cand_m = bool(bus_queue_m) and inflight_m < bus_max_inflight
        if not (cand_w or cand_m):
            bus_busy = False
            return
        bus_busy = True
        # RoundRobinArbiter.choose over ascending candidate indices: first
        # index greater than the last grant, else wrap to the lowest.
        if cand_w and cand_m:
            lo, hi = ((walker_master, memif_master)
                      if walker_master < memif_master
                      else (memif_master, walker_master))
            chosen = lo if (bus_last < lo or bus_last >= hi) else hi
        elif cand_w:
            chosen = walker_master
        else:
            chosen = memif_master
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
        push(heap, (now + occupancy, seq, 3, (chosen, payload)))  # BUS_FORWARD
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
        walk_do(request, addresses, 0, now)

    def walk_do(request: tuple, addresses: list, level: int,
                started_at: int) -> None:
        nonlocal c_levels, c_bus_requests, c_breq_w
        if level >= len(addresses):
            walk_finish(request, addresses, started_at)
            return
        c_levels += 1
        # Walker-port bus submit, inlined.
        c_bus_requests += 1
        c_breq_w += 1
        bus_queue_w.append(((_REQ_WALK, addresses[level],
                             request[2].pte_bytes, False, request, addresses,
                             level, started_at), now))
        if not bus_busy:
            bus_grant()

    def walk_finish(request: tuple, addresses: list, started_at: int) -> None:
        nonlocal tick, tlb_evictions, seq, c_walks_done, c_walks_faulted
        nonlocal c_walk_cycles, c_refills, c_transactions, c_pf_dropped
        nonlocal c_pf_fills
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
        c_walks_done += 1
        c_walk_cycles += wc
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

        if request[0] == _REQ_DATA:       # demand walk
            if (entry is None or not entry.present
                    or (request[3][2] and not entry.writable)):
                fault(request, entry)
                walker_start_next()
                return
            # TLB.insert under the *currently active* ASID (mirrors the MMU,
            # which tags demand refills with its active page table).
            key = (cur_asid, vpn)
            tlb_set = tlb_sets[vpn % num_sets]
            resident = tlb_set.get(key)
            if resident is not None:
                resident.frame = entry.frame
                resident.writable = entry.writable
                resident.prefetched = False
            else:
                if len(tlb_set) >= ways:
                    tlb_evictions += 1
                    if policy == "lru":
                        tlb_set.popitem(last=False)
                    elif policy == "fifo":
                        victim = min(tlb_set,
                                     key=lambda v: tlb_set[v].inserted_at)
                        del tlb_set[victim]
                    else:
                        del tlb_set[rng.choice(list(tlb_set))]
                tick += 1
                tlb_set[key] = TLBEntry(vpn=vpn, frame=entry.frame,
                                        writable=entry.writable,
                                        asid=cur_asid, inserted_at=tick,
                                        last_used=tick)
            c_refills += 1
            entry.accessed = True
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
            push(heap, (now + issue_latency, seq, 2,      # BUS_ISSUE
                        (_REQ_DATA, paddr, issue_payload[1], issue_payload[2],
                         issue_payload[3], issue_payload[4])))
            seq += 1
        else:                             # prefetch walk
            key, stride = request[3]
            prefetches_inflight.discard(key)
            if entry is None or not entry.present:
                c_pf_dropped += 1
            else:
                entry.accessed = True
                # TLB.insert(prefetched=True) + stride tag, inlined.
                tlb_set = tlb_sets[vpn % num_sets]
                resident = tlb_set.get(key)
                if resident is not None:
                    resident.frame = entry.frame
                    resident.writable = entry.writable
                    # entry.prefetched and True -> unchanged
                    resident.prefetch_stride = stride
                else:
                    if len(tlb_set) >= ways:
                        tlb_evictions += 1
                        if policy == "lru":
                            tlb_set.popitem(last=False)
                        elif policy == "fifo":
                            victim = min(tlb_set,
                                         key=lambda v: tlb_set[v].inserted_at)
                            del tlb_set[victim]
                        else:
                            del tlb_set[rng.choice(list(tlb_set))]
                    tick += 1
                    installed = TLBEntry(vpn=vpn, frame=entry.frame,
                                         writable=entry.writable, asid=key[0],
                                         inserted_at=tick, last_used=tick,
                                         prefetched=True)
                    installed.prefetch_stride = stride
                    tlb_set[key] = installed
                c_pf_fills += 1
        walker_start_next()

    def lend_tlb() -> None:
        """Write the inlined TLB state back before real code reads it."""
        tlb._tick = tick
        tlb.hits = tlb_hits
        tlb.misses = tlb_misses
        tlb.evictions = tlb_evictions

    def reclaim_tlb() -> None:
        """Take the TLB state back after real code may have touched it."""
        nonlocal tick, tlb_hits, tlb_misses, tlb_evictions
        tick = tlb._tick
        tlb_hits = tlb.hits
        tlb_misses = tlb.misses
        tlb_evictions = tlb.evictions

    def fault(request: tuple, entry) -> None:
        """Mirror of ``MMU._fault`` + ``DemandPagingHandler.handle_fault``."""
        nonlocal seq, c_faults
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
            push(heap, (now + handler.config.interrupt_latency, seq, 6,
                        (handler, state)))                # FAULT_SERVICE
            seq += 1

    def fault_service(handler, state: list) -> None:
        """Mirror of ``DemandPagingHandler._service_next``: the real
        ``_resolve`` allocates the frame, sets the PTE present and, with a
        host-shared TLB, probes and refills it."""
        nonlocal seq
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
        push(heap, (now + handler.config.service_cycles + extra, seq, 7,
                    (handler, state, request, now, fault_started)))  # DONE
        seq += 1

    def fault_done(handler, state: list, request: tuple, started: int,
                   fault_started: int) -> None:
        """The service's ``finish``: the MMU resumes and re-walks in the
        active space, one retry spent; the handler takes its next fault."""
        nonlocal seq, fs_cnt, fs_tot, fs_min, fs_max
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
        push(heap, (now, seq, 6, (handler, state)))      # FAULT_SERVICE
        seq += 1

    def maybe_prefetch(vpn: int, stride: int) -> None:
        nonlocal prefetch_score, c_pf_issued
        if prefetch_depth <= 0 or prefetch_score < 8:   # SCORE_GATE
            return
        table = cur_table
        asid = cur_asid
        limit = cur_vpn_limit
        space_now = space
        for ahead in range(1, prefetch_depth + 1):
            target = vpn + stride * ahead
            if not 0 <= target < limit:
                continue
            key = (asid, target)
            if key in tlb_sets[target % num_sets] or key in prefetches_inflight:
                continue
            prefetches_inflight.add(key)
            prefetch_score -= 1
            c_pf_issued += 1
            walker_walk((_REQ_WALK, target, space_now, (key, stride), 0, now))

    def translate(vaddr: int, size: int, is_write: bool, chunks: list,
                  index: int) -> None:
        """Mirror of ``MMU.translate`` + the memif issue that follows a hit.

        The dispatch loop inlines the clean-hit fast path and only calls in
        here for misses, prefetched hits, write-protection upgrades, and the
        cold issue sites (stall release); the two implementations must stay
        semantically identical.
        """
        nonlocal tick, tlb_hits, tlb_misses, prefetch_score, seq
        nonlocal c_translations, c_mmu_hits, c_mmu_misses, c_pf_hits
        vpn = vaddr >> cur_shift
        c_translations += 1
        # TLB.lookup, inlined.
        tick += 1
        tlb_set = tlb_sets[vpn % num_sets]
        key = (cur_asid, vpn)
        entry = tlb_set.get(key)
        if entry is not None:
            tlb_hits += 1
            entry.last_used = tick
            if is_lru:
                tlb_set.move_to_end(key)
        else:
            tlb_misses += 1
        if entry is not None and (not is_write or entry.writable):
            c_mmu_hits += 1
            if entry.prefetched:
                entry.prefetched = False
                c_pf_hits += 1
                prefetch_score = min(31, prefetch_score + 4)  # MAX, HIT_BONUS
                maybe_prefetch(vpn, entry.prefetch_stride)
            push(heap, (now + hit_latency, seq, 1,            # TRANSLATED
                        (_REQ_DATA,
                         (entry.frame << cur_shift) | (vaddr & cur_mask),
                         size, is_write, chunks, index)))
            seq += 1
            return
        c_mmu_misses += 1
        walker_walk((_REQ_DATA, vpn, space,
                     (vaddr & cur_mask, size, is_write, chunks, index),
                     now, now, max_retries))
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
    push(heap, (thread_cfg.start_latency, seq, 0, None))      # ADVANCE
    seq += 1

    events = 0
    while heap:
        now_, _, code, payload = pop(heap)
        if now_ > limit:
            raise SimulationError(
                f"simulation exceeded max_cycles={max_cycles} "
                f"(next event at {clock_base + now_})")
        now = now_
        events += 1

        if code == 1:                   # _EV_TRANSLATED
            # Hit latency elapsed -> memif.issue(): one transaction.  The
            # payload is already in BUS_ISSUE form.
            c_transactions += 1
            push(heap, (now + issue_latency, seq, 2, payload))
            seq += 1
        elif code == 4:                 # _EV_DRAM_DONE
            master, request, service = payload
            if master == walker_master:
                inflight_w -= 1
                blw_cnt += 1
                blw_tot += service
                if service < blw_min:
                    blw_min = service
                if service > blw_max:
                    blw_max = service
            else:
                inflight_m -= 1
                blm_cnt += 1
                blm_tot += service
                if service < blm_min:
                    blm_min = service
                if service > blm_max:
                    blm_max = service
            if request[0] == _REQ_DATA:
                chunks = request[4]
                index = request[5] + 1
                if index < len(chunks):
                    # Next chunk of a multi-chunk op: inline clean-hit probe.
                    vaddr, size, is_write = chunks[index]
                    vpn = vaddr >> cur_shift
                    key = (cur_asid, vpn)
                    tlb_set = tlb_sets[vpn % num_sets]
                    entry = tlb_set.get(key)
                    if (entry is not None and not entry.prefetched
                            and (not is_write or entry.writable)):
                        tick += 1
                        tlb_hits += 1
                        entry.last_used = tick
                        if is_lru:
                            tlb_set.move_to_end(key)
                        c_translations += 1
                        c_mmu_hits += 1
                        push(heap, (now + hit_latency, seq, 1,
                                    (_REQ_DATA,
                                     (entry.frame << cur_shift)
                                     | (vaddr & cur_mask),
                                     size, is_write, chunks, index)))
                        seq += 1
                    else:
                        translate(vaddr, size, is_write, chunks, index)
                else:
                    # Operation retired -> hardware thread _on_mem_done.
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
                        vaddr, size, is_write = stalled_chunks[0]
                        vpn = vaddr >> cur_shift
                        key = (cur_asid, vpn)
                        tlb_set = tlb_sets[vpn % num_sets]
                        entry = tlb_set.get(key)
                        if (entry is not None and not entry.prefetched
                                and (not is_write or entry.writable)):
                            tick += 1
                            tlb_hits += 1
                            entry.last_used = tick
                            if is_lru:
                                tlb_set.move_to_end(key)
                            c_translations += 1
                            c_mmu_hits += 1
                            push(heap, (now + hit_latency, seq, 1,
                                        (_REQ_DATA,
                                         (entry.frame << cur_shift)
                                         | (vaddr & cur_mask),
                                         size, is_write, stalled_chunks, 0)))
                            seq += 1
                        else:
                            translate(vaddr, size, is_write, stalled_chunks, 0)
                        push(heap, (now, seq, 0, None))       # ADVANCE
                        seq += 1
                    elif waiting_fence and outstanding == 0:
                        waiting_fence = False
                        push(heap, (now, seq, 0, None))       # ADVANCE
                        seq += 1
                    elif exhausted and outstanding == 0 and finish < 0:
                        finish = now
            else:
                push(heap, (now + per_level_overhead, seq, 5,  # WALK_STEP
                            (request[4], request[5], request[6] + 1,
                             request[7])))
                seq += 1
            if not bus_busy:
                # Bus grant, inlined (see ``bus_grant`` for the commented
                # form; repeated at each hot call site to avoid call costs).
                cand_w = bus_queue_w and inflight_w < bus_max_inflight
                cand_m = bus_queue_m and inflight_m < bus_max_inflight
                if cand_w or cand_m:
                    bus_busy = True
                    if cand_w and cand_m:
                        lo, hi = ((walker_master, memif_master)
                                  if walker_master < memif_master
                                  else (memif_master, walker_master))
                        chosen = lo if (bus_last < lo or bus_last >= hi) else hi
                    elif cand_w:
                        chosen = walker_master
                    else:
                        chosen = memif_master
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
                    push(heap, (now + occupancy, seq, 3, (chosen, gpayload)))
                    seq += 1
        elif code == 2:                 # _EV_BUS_ISSUE (memif-port submit)
            c_bus_requests += 1
            c_breq_m += 1
            bus_queue_m.append((payload, now))
            if not bus_busy:
                # Bus grant, inlined.
                cand_w = bus_queue_w and inflight_w < bus_max_inflight
                cand_m = inflight_m < bus_max_inflight
                if cand_w or cand_m:
                    bus_busy = True
                    if cand_w and cand_m:
                        lo, hi = ((walker_master, memif_master)
                                  if walker_master < memif_master
                                  else (memif_master, walker_master))
                        chosen = lo if (bus_last < lo or bus_last >= hi) else hi
                    elif cand_w:
                        chosen = walker_master
                    else:
                        chosen = memif_master
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
                    push(heap, (now + occupancy, seq, 3, (chosen, gpayload)))
                    seq += 1
        elif code == 3:                 # _EV_BUS_FORWARD -> DRAM access
            master, request = payload
            addr = request[1]
            size = request[2]
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
            if request[3]:
                finish_at += write_penalty
                c_writes += 1
                c_bytes_w += size
            else:
                c_reads += 1
                c_bytes_r += size
            bank_free[bank] = finish_at
            data_bus_free = data_start + transfer
            # The DRAM resets the request's issue cycle, so the bus's
            # ``latency_for`` sample equals the DRAM service latency.
            service = finish_at - now
            dl_cnt += 1
            dl_tot += service
            if service < dl_min:
                dl_min = service
            if service > dl_max:
                dl_max = service
            push(heap, (finish_at, seq, 4, (master, request, service)))
            seq += 1
            # Bus grant, inlined (the occupancy window just ended, so the
            # bus idles unless a queued request can be granted now).
            cand_w = bus_queue_w and inflight_w < bus_max_inflight
            cand_m = bus_queue_m and inflight_m < bus_max_inflight
            if not (cand_w or cand_m):
                bus_busy = False
            else:
                bus_busy = True
                if cand_w and cand_m:
                    lo, hi = ((walker_master, memif_master)
                              if walker_master < memif_master
                              else (memif_master, walker_master))
                    chosen = lo if (bus_last < lo or bus_last >= hi) else hi
                elif cand_w:
                    chosen = walker_master
                else:
                    chosen = memif_master
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
                push(heap, (now + occupancy, seq, 3, (chosen, gpayload)))
                seq += 1
        elif code == 0:                 # _EV_ADVANCE
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
                        tick += 1
                        tlb_hits += 1
                        entry.last_used = tick
                        if is_lru:
                            tlb_set.move_to_end(key)
                        c_translations += 1
                        c_mmu_hits += 1
                        push(heap, (now + hit_latency, seq, 1,
                                    (_REQ_DATA,
                                     (entry.frame << cur_shift)
                                     | (vaddr & cur_mask),
                                     size, is_write, chunks, 0)))
                        seq += 1
                    else:
                        translate(vaddr, size, is_write, chunks, 0)
                    if heap and heap[0][0] == now:
                        # Another event fires this cycle before the thread's
                        # zero-delay advance would pop; defer via the heap to
                        # preserve the event order.
                        push(heap, (now, seq, 0, None))       # ADVANCE
                        seq += 1
                        break
                    continue
                if kind == OP_COMPUTE:
                    c_compute += op[1]
                    push(heap, (now + op[1], seq, 0, None))
                    seq += 1
                    break
                if kind == OP_FENCE:
                    if outstanding == 0:
                        if heap and heap[0][0] == now:
                            push(heap, (now, seq, 0, None))
                            seq += 1
                            break
                        continue
                    waiting_fence = True
                    break
                if kind == OP_YIELD:
                    push(heap, (now + 1, seq, 0, None))
                    seq += 1
                    break
                # OP_SWITCH: runs inside this advance, like the generator's
                # switch hook; a positive stall behaves as a Compute op.
                space = spaces[op[1]]
                if ctx.flush_on_switch:
                    for tlb_set in tlb_sets:
                        tlb_set.clear()
                    tlb.flushes += 1
                    c_flushes += 1
                cur_asid = space.asid
                cur_table = space.page_table
                cur_page_size = space.page_size
                cur_shift = cur_page_size.bit_length() - 1
                cur_mask = cur_page_size - 1
                cur_vpn_limit = space.vpn_limit
                cur_pte_bytes = space.pte_bytes
                cur_levels = space.expected_levels
                recent_misses.clear()
                prefetch_score = 16
                c_switches += 1
                stall = ctx.on_switch_cost() if ctx.on_switch_cost else 0
                if stall > 0:
                    c_compute += stall
                    push(heap, (now + stall, seq, 0, None))
                    seq += 1
                    break
                # zero-stall switch: fall through to the next program op
        elif code == 5:   # _EV_WALK_STEP (per-level overhead; walk_do inlined)
            request, addresses, level, started_at = payload
            if level >= len(addresses):
                walk_finish(request, addresses, started_at)
            else:
                c_levels += 1
                c_bus_requests += 1
                c_breq_w += 1
                bus_queue_w.append(((_REQ_WALK, addresses[level],
                                     request[2].pte_bytes, False, request,
                                     addresses, level, started_at), now))
                if not bus_busy:
                    # Bus grant, inlined (walker queue is non-empty).
                    cand_w = inflight_w < bus_max_inflight
                    cand_m = bus_queue_m and inflight_m < bus_max_inflight
                    if cand_w or cand_m:
                        bus_busy = True
                        if cand_w and cand_m:
                            lo, hi = ((walker_master, memif_master)
                                      if walker_master < memif_master
                                      else (memif_master, walker_master))
                            chosen = (lo if (bus_last < lo or bus_last >= hi)
                                      else hi)
                        elif cand_w:
                            chosen = walker_master
                        else:
                            chosen = memif_master
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
                        push(heap, (now + occupancy, seq, 3,
                                    (chosen, gpayload)))
                        seq += 1
        elif code == 6:                 # _EV_FAULT_SERVICE
            fault_service(*payload)
        else:                           # _EV_FAULT_DONE
            fault_done(*payload)

    if finish < 0:
        raise SimulationError(
            "replay quiesced without completing the thread "
            f"(outstanding={outstanding}, pc={pc}/{nops})")

    lend_tlb()
    _fold(sinks, locals(), folded)
    return ReplayOutput(finish=finish, last_cycle=now, events=events)
