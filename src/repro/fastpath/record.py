"""Building (and caching) replay programs from recorded op streams.

A *replay program* is the engine-facing form of a kernel: a list of small
tuples (see :mod:`repro.fastpath.engine`) with every memory operation already
split into page/burst-bounded chunks by the memory interface's own
:func:`~repro.hwthread.memif.split_chunks` — the work the memory interface
does per run happens once here.

Programs are content-keyed alongside :class:`repro.exec.cache.MemoCache`'s
philosophy: the key is :func:`repro.exec.keys.stable_key` over the workload
spec and the two parameters the chunking depends on (page size, max burst),
so a spec's stream is recorded exactly once per workload *shape* no matter
how many sweep points replay it.  Beside the programs, the same bounded store
keeps each multi-process run's per-process scheduler inputs
(:func:`process_inputs`), keyed by spec and page size, so a process's kernel
is drained once for every run of either tier that schedules it.

It also keeps the result of each single-process replay, with the trace of
its TLB's operations and their outcomes
(:meth:`~repro.vm.tlb.TLB.start_trace`), for its *capacity class*: every
point that differs only in TLB geometry (:func:`capacity_class`).  The
engine reads the TLB only through those outcomes (a lookup's hit or miss,
a fill's resident or new entry, a prefetch probe's present or absent key)
and the fields of present entries, and equal outcomes at every fill keep
those fields equal.  So a point whose own TLB, run over the trace, gives
every recorded outcome schedules the stored run's events and ends with its
counters; only the TLB's evictions and occupancy differ, and the check
gives both.  :func:`served_result` hands such a point a copy of the stored
result: when the stored outcomes are those of a TLB that never evicts and
the point's TLB holds every translation the run inserted, at most ``ways``
of them in each set, or when a fresh TLB of the point's geometry follows
the trace.  A class keeps every run it replayed, newest first.
"""

from __future__ import annotations

from array import array
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Optional,
                    Sequence, Sized, Tuple, TypeVar)

from ..exec.keys import stable_key
from ..hwthread.memif import split_chunks
from ..sim.process import Operation
from ..sim.recorder import (KIND_COMPUTE, KIND_FENCE, KIND_MEM, KIND_SWITCH,
                            KIND_YIELD, RecordedStream, TraceRecorder)
from ..vm.tlb import TLB, TLBConfig
from .engine import OP_COMPUTE, OP_FENCE, OP_MEM, OP_SWITCH, OP_YIELD

if TYPE_CHECKING:
    from ..vm.mmu import MMU

#: Bytes per op in the budget: the nine default-scale suite programs
#: average ~230 B/op (183k ops, 42.5 MB by tracemalloc).
_OP_BYTES = 230

#: Cache budget in total ops, over programs, process inputs and capacity
#: classes alike: about 60 MB, so all nine suite programs stay cached
#: together.
_CACHE_OPS = 1 << 18

#: stable_key -> program, process inputs or capacity class, least recently
#: used first (a hit moves to the end); each entry's ``len`` is its size in
#: ops.
_programs: "OrderedDict[str, Sized]" = OrderedDict()

#: Monotonic counters exposed for runner/bench reporting: programs recorded
#: and reused, points served from a capacity class, and points whose class
#: held a stored run their geometry could not reuse, so they replayed.
record_stats = {"records": 0, "reuses": 0, "served": 0, "refused": 0}

_Entry = TypeVar("_Entry", bound=Sized)


def clear_program_cache() -> None:
    """Drop every cached program, process input and capacity class (tests
    and memory pressure)."""
    _programs.clear()


def _insert(key: str, entry: _Entry) -> _Entry:
    """Cache ``entry`` under ``key``, in place of any entry there, evicting
    least recently used entries until it fits the budget; an entry larger
    than the budget stays uncached."""
    _programs.pop(key, None)
    if len(entry) <= _CACHE_OPS:
        held = sum(map(len, _programs.values()))
        while held + len(entry) > _CACHE_OPS:
            held -= len(_programs.popitem(last=False)[1])
        _programs[key] = entry
    return entry


def build_program(stream: RecordedStream, page_size: int,
                  max_burst_bytes: int) -> list:
    """Lower a recorded stream into engine op tuples, in one pass.

    A memory op that fits one chunk (within the burst limit, not crossing a
    page boundary) is lowered inline; every other goes through
    :func:`split_chunks`.
    """
    limit = min(max_burst_bytes, page_size)
    program: list = []
    append = program.append
    for kind, addr, size, write, cycles in stream.rows:
        if kind == KIND_MEM:
            if 0 < size <= limit and addr % page_size + size <= page_size:
                append((OP_MEM, [(addr, size, write)], size))
            else:
                append((OP_MEM, split_chunks(addr, size, write, page_size,
                                             limit), size))
        elif kind == KIND_COMPUTE:
            append((OP_COMPUTE, cycles))
        elif kind == KIND_FENCE:
            append((OP_FENCE,))
        elif kind == KIND_YIELD:
            append((OP_YIELD,))
        else:   # KIND_SWITCH (addr carries the process index)
            append((OP_SWITCH, addr))
    return program


def _cached_program(key: str, build: Callable[[], list]) -> list:
    """The program under ``key``, built (and cached) on a miss."""
    program = _programs.get(key)
    if program is not None:
        _programs.move_to_end(key)
        record_stats["reuses"] += 1
        return program
    record_stats["records"] += 1
    return _insert(key, build())


def process_inputs(spec, page_size: int,
                   build: Callable[[], _Entry]) -> _Entry:
    """One process's scheduler inputs, built by ``build`` on a miss.

    The entry is a :class:`~repro.workloads.multiprocess.ProcessInputs`: the
    process's drained op list, the prefix sums the scheduler cuts slices
    with, and its demand and pressure estimates.  It is keyed as programs
    are, by the workload spec and the page size, so every run that
    schedules a spec, and every process of a run that shares one, gets the
    same entry.  It shares the program cache's order and budget, sized by
    its op count, and counts in no ``record_stats`` field.

    Nothing may mutate a cached entry or its ``Operation`` objects: the
    event tier executes these very objects, and ``Access`` and ``Burst`` are
    mutable dataclasses.  Each consumer keeps its own cursor.
    """
    key = stable_key("fastpath-inputs", spec, page_size)
    inputs = _programs.get(key)
    if inputs is None:
        return _insert(key, build())
    _programs.move_to_end(key)
    return inputs


def program_for_workload(spec, ops: Callable[[], Iterable[Operation]],
                         page_size: int, max_burst_bytes: int) -> list:
    """The replay program of one workload, one tuple per operation.

    ``ops()`` gives the workload's op stream, and runs only on a miss: a
    fresh kernel, or a multi-process run's stored op list.  ``spec`` must
    fully determine the op stream given the page size (binding a workload
    spec into a fresh address space is deterministic), so the cache key
    never needs the space itself.
    """
    return _cached_program(
        stable_key("fastpath-svm", spec, page_size, max_burst_bytes),
        lambda: build_program(TraceRecorder.capture(ops()),
                              page_size, max_burst_bytes))


def program_for_plan(mp, make_plan: Callable[[], Sequence[tuple]],
                     page_size: int, max_burst_bytes: int) -> list:
    """The replay program of a static multi-process slice plan.

    Mirrors :func:`repro.workloads.multiprocess.time_sliced_kernel`: a
    process boundary becomes ``Fence`` + an ``OP_SWITCH`` marker (the engine
    performs the MMU re-point and charges the context-switch stall when it
    reaches the marker, exactly when the generator's switch hook would run).
    ``make_plan`` builds the plan; it runs only on a cache miss.
    """
    def build() -> list:
        recorder = TraceRecorder()
        current = 0
        for process, ops in make_plan():
            if process != current:
                recorder.rows.append((KIND_FENCE, 0, 0, False, 0))
                recorder.rows.append((KIND_SWITCH, process, 0, False, 0))
                current = process
            for op in ops:
                recorder.on_op(op)
        return build_program(recorder.finish(), page_size, max_burst_bytes)

    return _cached_program(
        stable_key("fastpath-mp", mp, page_size, max_burst_bytes), build)


@dataclass(slots=True)
class CapacityClass:
    """A single-process replay's result and TLB trace, kept for its class
    with the runs of the class stored before it.

    ``tags`` are the VPNs of the translations the run inserted (a trace
    covers one address space) if every outcome in ``trace`` is the one a
    TLB that never evicts gives, else ``None``.  ``mmu`` names the MMU
    whose ``tlb_evictions`` and ``tlb_occupancy`` a served copy takes from
    its own geometry; ``footprint_bytes`` is the workload's, which sizes an
    auto-sized TLB.  ``older`` is the class's previous run, or ``None``.
    Its size in the op budget counts one op per statistic and per
    translation and the trace by its bytes, for this run and every older
    one.
    """

    result: object
    trace: array
    tags: Optional[Tuple[int, ...]]
    mmu: str
    footprint_bytes: int
    older: Optional[CapacityClass] = None
    size: int = field(init=False)

    def __post_init__(self) -> None:
        self.size = (len(self.result.system_result.stats)
                     + len(self.tags or ())
                     + -(-len(self.trace) * self.trace.itemsize // _OP_BYTES)
                     + (0 if self.older is None else self.older.size))

    def __len__(self) -> int:
        return self.size

    def fits(self, tlb: TLBConfig) -> bool:
        """True if the run's outcomes are a never-evicting TLB's and a TLB
        of ``tlb``'s geometry holds every translation it inserted: at most
        ``ways`` of them index each set."""
        if self.tags is None:
            return False
        load = Counter(vpn % tlb.num_sets for vpn in self.tags)
        return max(load.values(), default=0) <= tlb.ways

    def reuse(self, config: TLBConfig) -> Optional[Tuple[int, int]]:
        """The evictions and occupancy a TLB of ``config`` ends the run
        with, if it gives every recorded outcome; else ``None``."""
        if self.fits(config):
            return 0, len(self.tags)
        tlb = TLB(config)
        if tlb.follow(self.trace):
            return tlb.evictions, tlb.occupancy
        return None


def _copy(result, stats: Optional[Dict[str, int]] = None):
    """A copy of a single-process ``result`` that shares no mutable part
    with it (its ``telemetry`` is ``None``), with ``stats`` overriding its
    statistics."""
    system = result.system_result
    return replace(result, system_result=replace(
        system,
        per_thread_fabric_cycles=dict(system.per_thread_fabric_cycles),
        per_thread_wall_cycles=dict(system.per_thread_wall_cycles),
        aborted_threads=list(system.aborted_threads),
        stats={**system.stats, **(stats or {})}))


def capacity_class(spec, config) -> str:
    """The key of a single-process point's capacity class: ``spec`` and its
    harness ``config`` with the TLB geometry (entries, associativity,
    replacement) set aside."""
    return stable_key("fastpath-class", spec, replace(
        config, tlb_entries=1, tlb_associativity=None, tlb_replacement="lru"))


def store_class(key: str, result, mmu: MMU, footprint_bytes: int) -> None:
    """Keep a copy of a replay's ``result`` and its TLB's trace under its
    class ``key``, if the trace ran to the end (no shootdown or flush).

    A point replays only when no run its class keeps serves it, so the run
    joins the class in front of the older ones and displaces none: every
    geometry a stored run serves stays served, whatever the order of a
    sweep, until the op budget evicts the class.
    """
    trace = mmu.tlb.trace
    if trace is None:
        return
    never = TLB(TLBConfig(entries=len(trace) + 1))
    tags = tuple(never._sets[0]) if never.follow(trace) else None
    _insert(key, CapacityClass(_copy(result), trace, tags, mmu.name,
                               footprint_bytes, _programs.get(key)))


def served_result(key: str,
                  tlb: Callable[[int], TLBConfig]) -> Optional[object]:
    """A fresh copy of a result stored under class ``key``, or ``None``.

    ``tlb(footprint_bytes)`` gives the point's own TLB; a stored run's
    result is served, newest run first, only if that TLB gives every
    outcome the run saw, with the point's own ``tlb_evictions`` and
    ``tlb_occupancy``.  A class whose runs the point cannot reuse counts in
    ``record_stats["refused"]``.
    """
    run = _programs.get(key)
    if run is None:
        return None
    config = tlb(run.footprint_bytes)
    while (reused := run.reuse(config)) is None:
        run = run.older
        if run is None:
            record_stats["refused"] += 1
            return None
    _programs.move_to_end(key)
    record_stats["served"] += 1
    return _copy(run.result, {f"{run.mmu}.tlb_evictions": reused[0],
                              f"{run.mmu}.tlb_occupancy": reused[1]})
