"""Software-only baseline: the kernels running as POSIX threads on the host.

The model replays the *same* operation stream the accelerator kernel
produces, but prices it with a host-CPU cost model: each data element moves
through the cache hierarchy (hit/miss latencies), each element costs a few
issue cycles of address arithmetic and loop control, and the arithmetic work
of the kernel is derived from its HLS schedule (the accelerator performs
``unroll / II`` operations per cycle; a scalar in-order host core performs
roughly ``1 / cpi`` per cycle).

L1 and L2 are plain LRU tables (:class:`~repro.mem.cache.Cache`) with
constant penalties: no simulator runs, and the host's private cache path
does not contend with the fabric masters.  An element in the same L1 line as
the element before it, in the same operation, is counted as an L1 hit
without a lookup: the lookup before left that line resident and most
recently used, and a burst's elements share ``is_write``, so a lookup would
change nothing but L1's access and hit counts.

Host cycles are converted to fabric cycles using the platform clock ratio so
results are directly comparable with the hardware-thread runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from ..hwthread.hls import KernelSchedule
from ..mem.cache import Cache, CacheConfig
from ..os.scheduler import RoundRobinScheduler, SchedulerConfig
from ..sim.process import Access, Burst, Compute, Fence, Operation, Yield
from ..core.platform import ClockConfig


@dataclass(frozen=True)
class SoftwareCPUConfig:
    """Host CPU cost model (an in-order embedded core, Cortex-A9 class)."""

    cycles_per_op: float = 2.0        # CPI of the kernel's arithmetic ops
    issue_cycles_per_element: float = 3.0   # loads/stores, address arithmetic, loop
    cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, line_bytes=32, associativity=4,
        hit_latency=1, miss_penalty=80))
    l2_cache: Optional[CacheConfig] = field(default_factory=lambda: CacheConfig(
        size_bytes=512 * 1024, line_bytes=32, associativity=8,
        hit_latency=8, miss_penalty=120))
    word_bytes: int = 4

    def __post_init__(self) -> None:
        if self.cycles_per_op <= 0 or self.issue_cycles_per_element < 0:
            raise ValueError("CPU cost parameters must be positive")


@dataclass
class SoftwareRunResult:
    """Outcome of a software baseline execution."""

    host_cycles: int
    fabric_cycles: int
    elements_accessed: int
    arithmetic_ops: int
    l1_hit_rate: float
    l2_hit_rate: float
    per_thread_host_cycles: List[int] = field(default_factory=list)


class SoftwareCPU:
    """Replays kernel operation streams with a host-CPU cost model."""

    def __init__(self, config: SoftwareCPUConfig | None = None,
                 clocks: ClockConfig | None = None):
        self.config = config or SoftwareCPUConfig()
        self.clocks = clocks or ClockConfig()

    # ------------------------------------------------------------ execution
    def run_ops(self, ops: Iterable[Operation],
                schedule: Optional[KernelSchedule] = None) -> SoftwareRunResult:
        """Price a single-threaded execution of the given operation stream."""
        cfg = self.config
        l1 = Cache(cfg.cache)
        l2 = Cache(cfg.l2_cache) if cfg.l2_cache else None

        host_cycles = 0.0
        elements = 0
        arithmetic = 0
        ops_per_cycle_hw = (schedule.throughput_items_per_cycle()
                            * max(1, schedule.ops_per_item)) if schedule else 1.0

        for op in ops:
            if isinstance(op, Compute):
                # The accelerator spent op.cycles; the equivalent scalar work
                # is ops_per_cycle_hw * cycles arithmetic operations.
                work_ops = op.cycles * ops_per_cycle_hw
                arithmetic += int(work_ops)
                host_cycles += work_ops * cfg.cycles_per_op
            elif isinstance(op, (Access, Burst)):
                host_cycles += self._memory_cost(op, l1, l2)
                elements += self._elements_of(op)
            elif isinstance(op, (Fence, Yield)):
                continue
            else:
                raise TypeError(f"unsupported operation {op!r}")

        result = SoftwareRunResult(
            host_cycles=int(math.ceil(host_cycles)),
            fabric_cycles=self.clocks.host_to_fabric(host_cycles),
            elements_accessed=elements,
            arithmetic_ops=arithmetic,
            l1_hit_rate=l1.hit_rate,
            l2_hit_rate=l2.hit_rate if l2 else 0.0,
        )
        return result

    def run_threads(self, op_streams: Sequence[Iterable[Operation]],
                    schedule: Optional[KernelSchedule] = None,
                    scheduler: Optional[SchedulerConfig] = None) -> SoftwareRunResult:
        """Price a multi-threaded software execution.

        Each stream is priced independently (private L1 per core is assumed)
        and the per-thread demands are interleaved by the round-robin OS
        scheduler to obtain the makespan.
        """
        per_thread: List[SoftwareRunResult] = [
            self.run_ops(ops, schedule=schedule) for ops in op_streams]
        if not per_thread:
            return SoftwareRunResult(0, 0, 0, 0, 0.0, 0.0)

        rr = RoundRobinScheduler(scheduler or SchedulerConfig())
        demands = [(f"t{i}", r.host_cycles) for i, r in enumerate(per_thread)]
        makespan_host = rr.makespan(demands)

        return SoftwareRunResult(
            host_cycles=makespan_host,
            fabric_cycles=self.clocks.host_to_fabric(makespan_host),
            elements_accessed=sum(r.elements_accessed for r in per_thread),
            arithmetic_ops=sum(r.arithmetic_ops for r in per_thread),
            l1_hit_rate=(sum(r.l1_hit_rate for r in per_thread) / len(per_thread)),
            l2_hit_rate=(sum(r.l2_hit_rate for r in per_thread) / len(per_thread)),
            per_thread_host_cycles=[r.host_cycles for r in per_thread],
        )

    # -------------------------------------------------------------- internal
    def _elements_of(self, op: Access | Burst) -> int:
        if isinstance(op, Burst):
            return op.count
        return max(1, op.size // self.config.word_bytes)

    def _memory_cost(self, op: Access | Burst, l1: Cache,
                     l2: Optional[Cache]) -> float:
        cfg = self.config
        issue = cfg.issue_cycles_per_element
        hit_latency = cfg.cache.hit_latency
        line_bytes = cfg.cache.line_bytes
        cycles = 0.0
        if isinstance(op, Burst):
            addrs = [op.addr + i * op.size for i in range(op.count)]
        else:
            addrs = [op.addr]
        is_write = op.is_write
        last_line = None
        same_line = 0
        for addr in addrs:
            cycles += issue
            line = addr // line_bytes
            if line == last_line:
                # Resident and most recently used since the element before.
                same_line += 1
                cycles += hit_latency
                continue
            last_line = line
            misses = l1.misses
            l1_latency = l1.lookup(addr, is_write)
            if l2 is not None and l1.misses != misses:
                # L1 miss: the L2 lookup's latency, hit or miss, follows
                # the L1 hit latency.
                l1_latency = hit_latency + l2.lookup(addr, is_write)
            cycles += l1_latency
        l1.accesses += same_line
        l1.hits += same_line
        return cycles
