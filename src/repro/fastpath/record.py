"""Building (and caching) replay programs from recorded op streams.

A *replay program* is the engine-facing form of a kernel: a list of small
tuples (see :mod:`repro.fastpath.engine`) with every memory operation already
split into page/burst-bounded chunks — the work
:meth:`repro.hwthread.memif.MemoryInterface._split` would do per run happens
once here, vectorized over the recorded NumPy columns.

Programs are content-keyed alongside :class:`repro.exec.cache.MemoCache`'s
philosophy: the key is :func:`repro.exec.keys.stable_key` over the workload
spec and the two parameters the chunking depends on (page size, max burst),
so a spec's stream is recorded exactly once per workload *shape* no matter
how many sweep points replay it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Sequence, Tuple

from ..exec.keys import stable_key
from ..sim.recorder import (HAVE_NUMPY, KIND_COMPUTE, KIND_FENCE, KIND_MEM,
                            KIND_SWITCH, KIND_YIELD, RecordedStream,
                            TraceRecorder)
from .engine import OP_COMPUTE, OP_FENCE, OP_MEM, OP_SWITCH, OP_YIELD

if HAVE_NUMPY:
    import numpy as _np

#: Cache capacity (programs; a default-scale program is a few hundred KB).
_CACHE_CAPACITY = 64

#: stable_key -> (RecordedStream, program).  FIFO-evicted at capacity.
_programs: "OrderedDict[str, Tuple[RecordedStream, list]]" = OrderedDict()

#: Monotonic counters exposed for runner/bench reporting.
record_stats = {"records": 0, "reuses": 0}


def clear_program_cache() -> None:
    """Drop every cached stream/program (tests and memory pressure)."""
    _programs.clear()


def split_chunks(addr: int, size: int, is_write: bool, page_size: int,
                 limit: int) -> List[Tuple[int, int, bool]]:
    """Split ``[addr, addr+size)`` at page and max-burst boundaries.

    Byte-identical to ``MemoryInterface._split`` (``limit`` is the
    pre-clamped ``min(max_burst_bytes, page_size)``).
    """
    chunks: List[Tuple[int, int, bool]] = []
    remaining = size
    cursor = addr
    while remaining > 0:
        page_left = page_size - (cursor % page_size)
        chunk = min(remaining, page_left, limit)
        chunks.append((cursor, chunk, is_write))
        cursor += chunk
        remaining -= chunk
    return chunks


def build_program(stream: RecordedStream, page_size: int,
                  max_burst_bytes: int) -> list:
    """Lower a recorded stream into engine op tuples.

    The common case — a memory op that fits one chunk — is detected for the
    whole stream at once on the NumPy columns; only boundary-crossing ops go
    through the scalar splitter.
    """
    if not HAVE_NUMPY:
        raise RuntimeError("building a replay program requires numpy")
    limit = min(max_burst_bytes, page_size)
    kinds = stream.kinds
    # Vectorized single-chunk test: fits the burst limit and does not cross
    # a page boundary.
    mem = kinds == KIND_MEM
    single = _np.zeros(len(kinds), dtype=bool)
    if mem.any():
        addrs = stream.addrs
        sizes = stream.sizes
        single[mem] = ((sizes[mem] <= limit)
                       & ((addrs[mem] % page_size) + sizes[mem] <= page_size)
                       & (sizes[mem] > 0))

    program: list = []
    append = program.append
    rows = zip(kinds.tolist(), stream.addrs.tolist(), stream.sizes.tolist(),
               stream.writes.tolist(), stream.cycles.tolist(),
               single.tolist())
    for kind, addr, size, write, cycles, one in rows:
        if kind == KIND_MEM:
            if one:
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
        else:   # KIND_SWITCH (addr column carries the process index)
            append((OP_SWITCH, addr))
    return program


def _cache_put(key: str, value: Tuple[RecordedStream, list]) -> None:
    if len(_programs) >= _CACHE_CAPACITY:
        _programs.popitem(last=False)
    _programs[key] = value


def program_for_workload(spec, bound, page_size: int,
                         max_burst_bytes: int) -> list:
    """The replay program of one bound single-process workload.

    ``spec`` must fully determine the op stream given the page size (binding
    a workload spec into a fresh address space is deterministic), so the
    cache key never needs the space itself.
    """
    key = stable_key("fastpath-svm", spec, page_size, max_burst_bytes)
    hit = _programs.get(key)
    if hit is not None:
        _programs.move_to_end(key)
        record_stats["reuses"] += 1
        return hit[1]
    record_stats["records"] += 1
    stream = TraceRecorder.capture(bound.make_kernel())
    program = build_program(stream, page_size, max_burst_bytes)
    _cache_put(key, (stream, program))
    return program


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
    key = stable_key("fastpath-mp", mp, page_size, max_burst_bytes,
                     initial_process)
    hit = _programs.get(key)
    if hit is not None:
        _programs.move_to_end(key)
        record_stats["reuses"] += 1
        return hit[1]
    record_stats["records"] += 1
    recorder = TraceRecorder()
    current = initial_process
    for process, ops in make_plan():
        if process != current:
            recorder._append(KIND_FENCE, 0, 0, False, 0)
            recorder._append(KIND_SWITCH, process, 0, False, 0)
            current = process
        for op in ops:
            recorder.on_op(op)
    stream = recorder.finish()
    program = build_program(stream, page_size, max_burst_bytes)
    _cache_put(key, (stream, program))
    return program


def stream_for_ops(ops) -> RecordedStream:
    """Record an operation iterable (generator or list) without caching."""
    return TraceRecorder.capture(ops)
