"""Set-associative cache model used by the host-CPU software baseline.

The cache is a *timing filter*: it classifies each access as hit or miss and
reports the resulting latency.  Misses optionally forward a line-fill request
to a downstream :class:`~repro.mem.port.MemoryTarget`; the software baseline
normally runs in analytic mode (``backing=None``) where the miss penalty is a
constant, because the paper's host CPU has a private L1/L2 path that does not
contend with the fabric masters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.component import Component
from ..sim.engine import Simulator
from .port import MemoryRequest, MemoryTarget


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int = 32 * 1024
    line_bytes: int = 64
    associativity: int = 4
    hit_latency: int = 1
    miss_penalty: int = 60
    writeback: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("size must be a multiple of line_bytes * associativity")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


class _Line:
    __slots__ = ("tag", "dirty", "last_used")

    def __init__(self, tag: int, now: int):
        self.tag = tag
        self.dirty = False
        self.last_used = now


class Cache(Component):
    """LRU set-associative cache with optional backing memory."""

    def __init__(self, sim: Simulator, config: CacheConfig | None = None,
                 backing: Optional[MemoryTarget] = None, name: str = "cache"):
        super().__init__(sim, name)
        self.config = config or CacheConfig()
        self.backing = backing
        self._sets: List[Dict[int, _Line]] = [
            {} for _ in range(self.config.num_sets)]
        self._tick = 0

    # ------------------------------------------------------------ addressing
    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr // self.config.line_bytes
        return line % self.config.num_sets, line // self.config.num_sets

    # ---------------------------------------------------------------- lookup
    def lookup(self, addr: int, is_write: bool = False) -> int:
        """Access the cache; return the latency in cycles for this access."""
        self._tick += 1
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        self.count("accesses")

        line = cache_set.get(tag)
        if line is not None:
            line.last_used = self._tick
            if is_write:
                line.dirty = True
            self.count("hits")
            return self.config.hit_latency

        self.count("misses")
        latency = self.config.hit_latency + self.config.miss_penalty
        evicted_dirty = self._fill(index, tag, is_write)
        if evicted_dirty and self.config.writeback:
            self.count("writebacks")
            latency += self.config.miss_penalty // 2
        if self.backing is not None:
            self._issue_fill(addr)
        return latency

    def _fill(self, index: int, tag: int, is_write: bool) -> bool:
        """Insert a line, evicting LRU if needed.  Returns True if the victim
        was dirty."""
        cache_set = self._sets[index]
        evicted_dirty = False
        if len(cache_set) >= self.config.associativity:
            victim_tag = min(cache_set, key=lambda t: cache_set[t].last_used)
            evicted_dirty = cache_set[victim_tag].dirty
            del cache_set[victim_tag]
        line = _Line(tag, self._tick)
        line.dirty = is_write
        cache_set[tag] = line
        return evicted_dirty

    def _issue_fill(self, addr: int) -> None:
        line_addr = (addr // self.config.line_bytes) * self.config.line_bytes
        request = MemoryRequest(addr=line_addr, size=self.config.line_bytes,
                                is_write=False, master=self.name)
        self.backing.access(request)

    # ------------------------------------------------------------------ info
    @property
    def hit_rate(self) -> float:
        accesses = self.stats.counter_value("accesses")
        if not accesses:
            return 0.0
        return self.stats.counter_value("hits") / accesses

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines flushed."""
        dirty = 0
        for cache_set in self._sets:
            dirty += sum(1 for line in cache_set.values() if line.dirty)
            cache_set.clear()
        self.count("flushes")
        return dirty
