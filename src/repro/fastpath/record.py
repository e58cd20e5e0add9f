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
how many sweep points replay it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Sequence

from ..exec.keys import stable_key
from ..hwthread.memif import split_chunks
from ..sim.recorder import (KIND_COMPUTE, KIND_FENCE, KIND_MEM, KIND_SWITCH,
                            KIND_YIELD, RecordedStream, TraceRecorder)
from .engine import OP_COMPUTE, OP_FENCE, OP_MEM, OP_SWITCH, OP_YIELD

#: Cache budget in total program ops: about 60 MB at the ~230 B/op that the
#: nine default-scale suite programs average (183k ops, 42.5 MB by
#: tracemalloc), so all nine stay cached together.
_CACHE_OPS = 1 << 18

#: stable_key -> program, least recently used first (a hit moves to the end).
_programs: "OrderedDict[str, list]" = OrderedDict()

#: Monotonic counters exposed for runner/bench reporting.
record_stats = {"records": 0, "reuses": 0}


def clear_program_cache() -> None:
    """Drop every cached program (tests and memory pressure)."""
    _programs.clear()


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
    program = build()
    if len(program) <= _CACHE_OPS:    # a longer one is returned uncached
        held = sum(map(len, _programs.values()))
        while held + len(program) > _CACHE_OPS:
            held -= len(_programs.popitem(last=False)[1])
        _programs[key] = program
    return program


def program_for_workload(spec, bound, page_size: int,
                         max_burst_bytes: int) -> list:
    """The replay program of one bound single-process workload.

    ``spec`` must fully determine the op stream given the page size (binding
    a workload spec into a fresh address space is deterministic), so the
    cache key never needs the space itself.
    """
    return _cached_program(
        stable_key("fastpath-svm", spec, page_size, max_burst_bytes),
        lambda: build_program(TraceRecorder.capture(bound.make_kernel()),
                              page_size, max_burst_bytes))


def program_for_plan(mp, make_plan: Callable[[], Sequence[tuple]],
                     page_size: int, max_burst_bytes: int,
                     initial_process: int = 0) -> list:
    """The replay program of a static multi-process slice plan.

    Mirrors :func:`repro.workloads.multiprocess.time_sliced_kernel`: a
    process boundary becomes ``Fence`` + an ``OP_SWITCH`` marker (the engine
    performs the MMU re-point and charges the context-switch stall when it
    reaches the marker, exactly when the generator's switch hook would run).
    ``make_plan`` builds the plan; it runs only on a cache miss.
    """
    def build() -> list:
        recorder = TraceRecorder()
        current = initial_process
        for process, ops in make_plan():
            if process != current:
                recorder.rows.append((KIND_FENCE, 0, 0, False, 0))
                recorder.rows.append((KIND_SWITCH, process, 0, False, 0))
                current = process
            for op in ops:
                recorder.on_op(op)
        return build_program(recorder.finish(), page_size, max_burst_bytes)

    return _cached_program(
        stable_key("fastpath-mp", mp, page_size, max_burst_bytes,
                   initial_process), build)


def stream_for_ops(ops) -> RecordedStream:
    """Record an operation iterable (generator or list) without caching."""
    return TraceRecorder.capture(ops)
