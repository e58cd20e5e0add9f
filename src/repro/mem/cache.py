"""Set-associative LRU cache model used by the host-CPU software baseline.

The cache is a *timing filter*: it classifies each access as hit or miss and
reports the resulting latency from constant penalties.  It is a plain table,
not a simulator component: the paper's host CPU has a private L1/L2 path that
does not contend with the fabric masters, so nothing downstream sees its
line fills.  Each set is an ordered map from tag to dirty bit, least recently
used first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List


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


class Cache:
    """LRU set-associative cache with hit, miss and writeback counters."""

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self._num_sets = self.config.num_sets
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self._num_sets)]
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def lookup(self, addr: int, is_write: bool = False) -> int:
        """Access the cache; return the latency in cycles for this access."""
        config = self.config
        line = addr // config.line_bytes
        cache_set = self._sets[line % self._num_sets]
        tag = line // self._num_sets
        self.accesses += 1

        if tag in cache_set:
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = True
            self.hits += 1
            return config.hit_latency

        self.misses += 1
        latency = config.hit_latency + config.miss_penalty
        if len(cache_set) >= config.associativity:
            _, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty and config.writeback:
                self.writebacks += 1
                latency += config.miss_penalty // 2
        cache_set[tag] = is_write
        return latency

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0
