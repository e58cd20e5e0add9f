"""Workload specifications and binding to an address space.

A :class:`WorkloadSpec` describes a workload abstractly (which kernel, what
problem size, how much of it is resident at start).  Binding it to a process
address space allocates the buffers and yields a :class:`BoundWorkload` that
can mint fresh kernel generators — one per execution model — plus the byte
counts every baseline needs.  Auxiliary data (linked-list chain order,
histogram bin indices, sparse patterns, random addresses) comes from a
seeded RNG on the first ``make_kernel()`` call and is kept for later calls,
so a run whose replay program is cached never draws it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..hwthread import kernels
from ..hwthread.hls import KernelSchedule, schedule_for
from ..hwthread.kernels import WORD
from ..os.address_space import AddressSpace, VMArea
from ..sim.process import KernelGenerator


@dataclass(frozen=True)
class WorkloadSpec:
    """Abstract description of one workload instance."""

    name: str
    kernel: str
    params: Dict[str, int] = field(default_factory=dict)
    residency: float = 1.0
    seed: int = 7
    burst_words: int = 64

    def __post_init__(self) -> None:
        if self.kernel not in _BINDERS:
            raise ValueError(f"unknown kernel {self.kernel!r}; "
                             f"known: {sorted(_BINDERS)}")
        if not 0.0 <= self.residency <= 1.0:
            raise ValueError("residency must be within [0, 1]")

    def bind(self, space: AddressSpace) -> "BoundWorkload":
        """Allocate buffers in ``space`` and return the bound workload."""
        return _BINDERS[self.kernel](self, space)

    @property
    def work_items(self) -> int:
        """Problem size (elements / nodes / accesses) this spec describes.

        Matches the ``items`` count of the bound workload without binding:
        each kernel's counter mirrors its binder's parameter defaults, so
        throughput metrics can be computed from the spec instead of guessing
        which ``params`` key holds the item count.
        """
        return _WORK_ITEMS[self.kernel](self)


@dataclass
class BoundWorkload:
    """A workload whose buffers live in a concrete address space."""

    spec: WorkloadSpec
    make_kernel: Callable[[], KernelGenerator]
    areas: List[VMArea]
    footprint_bytes: int          # total bytes of all mapped buffers
    touched_bytes: int            # bytes the kernel actually reads + writes
    copy_in_bytes: int            # bytes a copy-based accelerator must marshal in
    copy_out_bytes: int           # ... and out
    items: int                    # problem size (elements / nodes / pixels)
    #: Items needing pointer fix-up when marshalled into a physically
    #: contiguous DMA buffer (non-zero only for pointer-based structures).
    marshal_items: int = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def schedule(self) -> KernelSchedule:
        return schedule_for(self.spec.kernel)


# ---------------------------------------------------------------------------
# Binder helpers
# ---------------------------------------------------------------------------
#: One source of truth for every kernel's parameter defaults, shared by the
#: binders and the ``work_items`` counters so they cannot diverge.  (Dynamic
#: defaults — linked_list's ``visit`` follows ``nodes``, spmv's ``cols``
#: follows ``rows`` — stay in the binders.)
_PARAM_DEFAULTS: Dict[str, Dict[str, int]] = {
    "vecadd": {"n": 65536},
    "saxpy": {"n": 65536},
    "matmul": {"n": 96, "block": 32},
    "merge_sort": {"n": 32768},
    "filter2d": {"width": 256, "height": 256},
    "linked_list": {"nodes": 8192, "node_bytes": 16},
    "histogram": {"n": 32768, "bins": 16384, "zipf_like": 0},
    "spmv": {"rows": 2048, "nnz_per_row": 8},
    "random_access": {"table_bytes": 4 * 1024 * 1024, "accesses": 16384},
}


def _param(spec: WorkloadSpec, name: str) -> int:
    """A workload parameter, falling back to the kernel's default."""
    if name in spec.params:
        return spec.params[name]
    return _PARAM_DEFAULTS[spec.kernel][name]


def _mmap(space: AddressSpace, size: int, name: str, residency: float) -> VMArea:
    return space.mmap(size, name=name, residency=residency)


def _bind_vecadd(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    n = _param(spec, "n")
    size = n * WORD
    a = _mmap(space, size, f"{spec.name}.a", spec.residency)
    b = _mmap(space, size, f"{spec.name}.b", spec.residency)
    dst = _mmap(space, size, f"{spec.name}.dst", spec.residency)

    def make() -> KernelGenerator:
        return kernels.vecadd(dst.start, a.start, b.start, n,
                              burst_words=spec.burst_words)

    return BoundWorkload(spec=spec, make_kernel=make, areas=[a, b, dst],
                         footprint_bytes=3 * size, touched_bytes=3 * size,
                         copy_in_bytes=2 * size, copy_out_bytes=size, items=n)


def _bind_saxpy(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    n = _param(spec, "n")
    size = n * WORD
    x = _mmap(space, size, f"{spec.name}.x", spec.residency)
    y = _mmap(space, size, f"{spec.name}.y", spec.residency)
    dst = _mmap(space, size, f"{spec.name}.dst", spec.residency)

    def make() -> KernelGenerator:
        return kernels.saxpy(dst.start, x.start, y.start, n,
                             burst_words=spec.burst_words)

    return BoundWorkload(spec=spec, make_kernel=make, areas=[x, y, dst],
                         footprint_bytes=3 * size, touched_bytes=3 * size,
                         copy_in_bytes=2 * size, copy_out_bytes=size, items=n)


def _bind_matmul(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    n = _param(spec, "n")
    block = _param(spec, "block")
    size = n * n * WORD
    a = _mmap(space, size, f"{spec.name}.a", spec.residency)
    b = _mmap(space, size, f"{spec.name}.b", spec.residency)
    c = _mmap(space, size, f"{spec.name}.c", spec.residency)
    blocks = n // block
    touched = (2 * blocks * size) + size  # A and B streamed once per block row/col

    def make() -> KernelGenerator:
        return kernels.matmul(c.start, a.start, b.start, n, block=block)

    return BoundWorkload(spec=spec, make_kernel=make, areas=[a, b, c],
                         footprint_bytes=3 * size, touched_bytes=touched,
                         copy_in_bytes=2 * size, copy_out_bytes=size,
                         items=n * n)


def _bind_merge_sort(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    n = _param(spec, "n")
    size = n * WORD
    buf_a = _mmap(space, size, f"{spec.name}.a", spec.residency)
    buf_b = _mmap(space, size, f"{spec.name}.b", spec.residency)
    import math
    passes = max(1, math.ceil(math.log2(max(2, n))))

    def make() -> KernelGenerator:
        return kernels.merge_sort(buf_a.start, buf_b.start, n,
                                  burst_words=spec.burst_words)

    return BoundWorkload(spec=spec, make_kernel=make, areas=[buf_a, buf_b],
                         footprint_bytes=2 * size,
                         touched_bytes=2 * size * passes,
                         copy_in_bytes=size, copy_out_bytes=size, items=n)


def _bind_filter2d(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    width = _param(spec, "width")
    height = _param(spec, "height")
    size = width * height * WORD
    src = _mmap(space, size, f"{spec.name}.src", spec.residency)
    dst = _mmap(space, size, f"{spec.name}.dst", spec.residency)

    def make() -> KernelGenerator:
        return kernels.filter2d(dst.start, src.start, width, height,
                                burst_words=spec.burst_words)

    return BoundWorkload(spec=spec, make_kernel=make, areas=[src, dst],
                         footprint_bytes=2 * size, touched_bytes=2 * size,
                         copy_in_bytes=size, copy_out_bytes=size,
                         items=width * height)


def _bind_linked_list(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    nodes = _param(spec, "nodes")
    node_bytes = _param(spec, "node_bytes")
    visit = spec.params.get("visit", nodes)
    pool_bytes = nodes * node_bytes
    pool = _mmap(space, pool_bytes, f"{spec.name}.pool", spec.residency)

    @functools.cache
    def chain() -> List[int]:
        order = list(range(nodes))
        random.Random(spec.seed).shuffle(order)
        return [pool.start + idx * node_bytes for idx in order[:visit]]

    def make() -> KernelGenerator:
        return kernels.linked_list(chain(), node_bytes=node_bytes)

    visited = len(range(nodes)[:visit])
    return BoundWorkload(spec=spec, make_kernel=make, areas=[pool],
                         footprint_bytes=pool_bytes,
                         touched_bytes=visited * node_bytes,
                         copy_in_bytes=pool_bytes, copy_out_bytes=0,
                         items=visited, marshal_items=nodes)


def _bind_histogram(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    n = _param(spec, "n")
    num_bins = _param(spec, "bins")
    skew = _param(spec, "zipf_like")
    src_size = n * WORD
    bins_size = num_bins * WORD
    src = _mmap(space, src_size, f"{spec.name}.src", spec.residency)
    bins = _mmap(space, bins_size, f"{spec.name}.bins", spec.residency)

    @functools.cache
    def indices() -> List[int]:
        rng = random.Random(spec.seed)
        if skew:
            # Skewed distribution: 80% of updates hit 20% of the bins.
            hot = max(1, num_bins // 5)
            return [rng.randrange(hot) if rng.random() < 0.8
                    else rng.randrange(num_bins) for _ in range(n)]
        return [rng.randrange(num_bins) for _ in range(n)]

    def make() -> KernelGenerator:
        return kernels.histogram(src.start, n, bins.start, indices(),
                                 burst_words=spec.burst_words)

    return BoundWorkload(spec=spec, make_kernel=make, areas=[src, bins],
                         footprint_bytes=src_size + bins_size,
                         touched_bytes=src_size + 2 * n * WORD,
                         copy_in_bytes=src_size + bins_size,
                         copy_out_bytes=bins_size, items=n)


def _bind_spmv(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    rows = _param(spec, "rows")
    nnz_per_row = _param(spec, "nnz_per_row")
    cols = spec.params.get("cols", rows)
    nnz = rows * nnz_per_row

    values = _mmap(space, nnz * WORD, f"{spec.name}.vals", spec.residency)
    colidx = _mmap(space, nnz * WORD, f"{spec.name}.cols", spec.residency)
    x = _mmap(space, cols * WORD, f"{spec.name}.x", spec.residency)
    y = _mmap(space, rows * WORD, f"{spec.name}.y", spec.residency)

    row_lengths = [nnz_per_row] * rows

    @functools.cache
    def gathers() -> List[int]:
        rng = random.Random(spec.seed)
        return [rng.randrange(cols) for _ in range(nnz)]

    def make() -> KernelGenerator:
        return kernels.spmv(row_lengths, values.start, colidx.start,
                            x.start, y.start, gathers(),
                            burst_words=spec.burst_words)

    footprint = (2 * nnz + cols + rows) * WORD
    touched = (2 * nnz + nnz + rows) * WORD
    return BoundWorkload(spec=spec, make_kernel=make,
                         areas=[values, colidx, x, y],
                         footprint_bytes=footprint, touched_bytes=touched,
                         copy_in_bytes=(2 * nnz + cols) * WORD,
                         copy_out_bytes=rows * WORD, items=nnz)


def _bind_random_access(spec: WorkloadSpec, space: AddressSpace) -> BoundWorkload:
    table_bytes = _param(spec, "table_bytes")
    accesses = _param(spec, "accesses")
    table = _mmap(space, table_bytes, f"{spec.name}.table", spec.residency)

    @functools.cache
    def addresses() -> List[int]:
        rng = random.Random(spec.seed)
        return [table.start + rng.randrange(table_bytes // WORD) * WORD
                for _ in range(accesses)]

    def make() -> KernelGenerator:
        return kernels.random_access(addresses(), write_fraction=0.25)

    return BoundWorkload(spec=spec, make_kernel=make, areas=[table],
                         footprint_bytes=table_bytes,
                         touched_bytes=accesses * WORD,
                         copy_in_bytes=table_bytes, copy_out_bytes=table_bytes,
                         items=accesses)


_BINDERS: Dict[str, Callable[[WorkloadSpec, AddressSpace], BoundWorkload]] = {
    "vecadd": _bind_vecadd,
    "saxpy": _bind_saxpy,
    "matmul": _bind_matmul,
    "merge_sort": _bind_merge_sort,
    "filter2d": _bind_filter2d,
    "linked_list": _bind_linked_list,
    "histogram": _bind_histogram,
    "spmv": _bind_spmv,
    "random_access": _bind_random_access,
}


#: Per-kernel item counters; parameter defaults come from the same
#: ``_PARAM_DEFAULTS`` table the binders read, and each counter is checked
#: against the bound workload's ``items`` by the test suite.
_WORK_ITEMS: Dict[str, Callable[[WorkloadSpec], int]] = {
    "vecadd": lambda s: _param(s, "n"),
    "saxpy": lambda s: _param(s, "n"),
    "matmul": lambda s: _param(s, "n") ** 2,
    "merge_sort": lambda s: _param(s, "n"),
    "filter2d": lambda s: _param(s, "width") * _param(s, "height"),
    "linked_list": lambda s: min(_param(s, "nodes"),
                                 s.params.get("visit", _param(s, "nodes"))),
    "histogram": lambda s: _param(s, "n"),
    "spmv": lambda s: _param(s, "rows") * _param(s, "nnz_per_row"),
    "random_access": lambda s: _param(s, "accesses"),
}


def available_workload_kernels() -> List[str]:
    return sorted(_BINDERS)
