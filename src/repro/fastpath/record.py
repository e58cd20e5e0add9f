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

It also keeps the result of each single-process replay whose TLB never
dropped an entry, for its *capacity class*: every point that differs only in
TLB geometry (:func:`capacity_class`).  Such a TLB only ever holds the
translations inserted so far, whatever its geometry; the replacement policy
orders entries and draws random numbers only to pick a victim.  So every
eviction-free run of a class schedules the same events and ends with the
same counters and the same resident translations, and a geometry that can
hold those translations, at most ``ways`` of them in each set, never evicts:
:func:`served_result` hands it a copy of the stored result.
"""

from __future__ import annotations

import copy
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Callable, Iterable, Optional, Sequence,
                    Sized, Tuple, TypeVar)

from ..exec.keys import stable_key
from ..hwthread.memif import split_chunks
from ..sim.process import Operation
from ..sim.recorder import (KIND_COMPUTE, KIND_FENCE, KIND_MEM, KIND_SWITCH,
                            KIND_YIELD, RecordedStream, TraceRecorder)
from .engine import OP_COMPUTE, OP_FENCE, OP_MEM, OP_SWITCH, OP_YIELD

if TYPE_CHECKING:
    from ..vm.tlb import TLB, TLBConfig

#: Cache budget in total ops, over programs and process inputs alike: about
#: 60 MB at the ~230 B/op that the nine default-scale suite programs average
#: (183k ops, 42.5 MB by tracemalloc), so all nine stay cached together.
_CACHE_OPS = 1 << 18

#: stable_key -> program, process inputs or capacity class, least recently
#: used first (a hit moves to the end); each entry's ``len`` is its size in
#: ops.
_programs: "OrderedDict[str, Sized]" = OrderedDict()

#: Monotonic counters exposed for runner/bench reporting: programs recorded
#: and reused, and points served from a capacity class.
record_stats = {"records": 0, "reuses": 0, "served": 0}

_Entry = TypeVar("_Entry", bound=Sized)


def clear_program_cache() -> None:
    """Drop every cached program, process input and capacity class (tests
    and memory pressure)."""
    _programs.clear()


def _insert(key: str, entry: _Entry) -> _Entry:
    """Cache ``entry`` under ``key``, evicting least recently used entries
    until it fits the budget; an entry larger than the budget stays
    uncached."""
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
    """An eviction-free replay's result, kept for its capacity class.

    ``tags`` are the ``(asid, vpn)`` translations its TLB held at the end;
    ``footprint_bytes`` is the workload's, which sizes an auto-sized TLB.
    Its size in the op budget counts one op per statistic and per
    translation.
    """

    result: object
    tags: Tuple[Tuple[int, int], ...]
    footprint_bytes: int

    def __len__(self) -> int:
        return len(self.result.system_result.stats) + len(self.tags)

    def fits(self, tlb: TLBConfig) -> bool:
        """True if a TLB of ``tlb``'s geometry holds every translation: at
        most ``ways`` of them index each set."""
        load = Counter(vpn % tlb.num_sets for _, vpn in self.tags)
        return max(load.values(), default=0) <= tlb.ways


def capacity_class(spec, config) -> str:
    """The key of a single-process point's capacity class: ``spec`` and its
    harness ``config`` with the TLB geometry (entries, associativity,
    replacement) set aside."""
    return stable_key("fastpath-class", spec, replace(
        config, tlb_entries=1, tlb_associativity=None, tlb_replacement="lru"))


def store_class(key: str, result, tlb: TLB, footprint_bytes: int) -> None:
    """Keep a copy of a replay's ``result`` under its class ``key`` if its
    ``tlb`` never evicted, flushed or invalidated an entry."""
    if tlb.evictions or tlb.flushes or tlb.invalidations:
        return
    tags = tuple(tag for tlb_set in tlb._sets for tag in tlb_set)
    _insert(key, CapacityClass(copy.deepcopy(result), tags, footprint_bytes))


def served_result(key: str,
                  tlb: Callable[[int], TLBConfig]) -> Optional[object]:
    """A fresh copy of the result stored under class ``key``, or ``None``.

    ``tlb(footprint_bytes)`` gives the point's own TLB; the result is served
    only if that TLB holds the stored translations, so it would not evict.
    """
    entry = _programs.get(key)
    if entry is None or not entry.fits(tlb(entry.footprint_bytes)):
        return None
    _programs.move_to_end(key)
    record_stats["served"] += 1
    return copy.deepcopy(entry.result)
