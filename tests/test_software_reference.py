"""The software baseline against a per-element reference.

``SoftwareCPU`` counts an element in the same L1 line as the element before
it, in the same operation, as an L1 hit without looking up either cache.
This suite checks that the shortcut changes no result: on drawn op streams,
cache geometries and issue costs, ``run_ops`` must equal, as a whole
``SoftwareRunResult``, a reference that looks up every element in its own
minimal LRU cache (each line stamped with its last access, the oldest stamp
evicted).
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from repro.baselines.software import (SoftwareCPU, SoftwareCPUConfig,
                                      SoftwareRunResult)
from repro.mem.cache import CacheConfig
from repro.sim.process import Access, Burst, Compute, Fence


class ReferenceCache:
    """LRU by stamp: every lookup stamps its line, a miss in a full set
    evicts the line with the oldest stamp."""

    def __init__(self, config):
        self.config = config
        self.sets = [{} for _ in range(config.num_sets)]
        self.tick = self.accesses = self.hits = 0

    def lookup(self, addr, is_write):
        cfg = self.config
        self.tick += 1
        self.accesses += 1
        line = addr // cfg.line_bytes
        cache_set = self.sets[line % cfg.num_sets]
        tag = line // cfg.num_sets
        entry = cache_set.get(tag)
        if entry is not None:
            entry[0] = self.tick
            entry[1] = entry[1] or is_write
            self.hits += 1
            return cfg.hit_latency
        latency = cfg.hit_latency + cfg.miss_penalty
        if len(cache_set) >= cfg.associativity:
            victim = min(cache_set, key=lambda t: cache_set[t][0])
            if cache_set.pop(victim)[1] and cfg.writeback:
                latency += cfg.miss_penalty // 2
        cache_set[tag] = [self.tick, is_write]
        return latency

    @property
    def hit_rate(self):
        return self.hits / self.accesses if self.accesses else 0.0


def reference_run(cpu, ops):
    """``cpu.run_ops(ops)`` with every element looked up, summed in the
    same order: per operation, each element's issue cost then its
    latency."""
    cfg = cpu.config
    l1 = ReferenceCache(cfg.cache)
    l2 = ReferenceCache(cfg.l2_cache) if cfg.l2_cache else None
    host = 0.0
    elements = arithmetic = 0
    for op in ops:
        if isinstance(op, Compute):
            # No schedule: one arithmetic operation per fabric cycle.
            arithmetic += op.cycles
            host += float(op.cycles) * cfg.cycles_per_op
        elif isinstance(op, (Access, Burst)):
            if isinstance(op, Burst):
                addrs = [op.addr + i * op.size for i in range(op.count)]
                elements += op.count
            else:
                addrs = [op.addr]
                elements += max(1, op.size // cfg.word_bytes)
            cycles = 0.0
            for addr in addrs:
                cycles += cfg.issue_cycles_per_element
                hits = l1.hits
                latency = l1.lookup(addr, op.is_write)
                if l1.hits == hits and l2 is not None:
                    # An L1 miss, whatever its penalty, looks up L2.
                    latency = cfg.cache.hit_latency + l2.lookup(addr,
                                                                op.is_write)
                cycles += latency
            host += cycles
    return SoftwareRunResult(
        host_cycles=int(math.ceil(host)),
        fabric_cycles=cpu.clocks.host_to_fabric(host),
        elements_accessed=elements, arithmetic_ops=arithmetic,
        l1_hit_rate=l1.hit_rate, l2_hit_rate=l2.hit_rate if l2 else 0.0)


@st.composite
def geometries(draw, hit_latency):
    line = draw(st.sampled_from((16, 32, 64)))
    ways = draw(st.sampled_from((1, 2, 4)))
    sets = draw(st.sampled_from((1, 2, 8)))
    return CacheConfig(size_bytes=line * ways * sets, line_bytes=line,
                       associativity=ways, hit_latency=hit_latency,
                       miss_penalty=draw(st.sampled_from((0, 7, 80))),
                       writeback=draw(st.booleans()))


#: Strides 0, below a 16-byte line, one line of each size, and above a
#: 64-byte line; starts unaligned, in a range small enough that lines
#: collide and a write follows a read of the same line.
operations = st.one_of(
    st.builds(Burst, addr=st.integers(0, 2048), count=st.integers(0, 40),
              size=st.sampled_from((0, 4, 12, 16, 32, 64, 100)),
              is_write=st.booleans()),
    st.builds(Access, addr=st.integers(0, 2048), size=st.sampled_from((4, 16)),
              is_write=st.booleans()),
    st.builds(Compute, cycles=st.integers(0, 50)),
    st.builds(Fence))

#: One set of one 16-byte line.
DIRECT = CacheConfig(size_bytes=16, line_bytes=16, associativity=1,
                     hit_latency=1, miss_penalty=80, writeback=True)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(operations, max_size=24),
       l1=geometries(hit_latency=1),
       l2=st.none() | geometries(hit_latency=8),
       issue=st.sampled_from((0.0, 0.1, 2.7, 3.0)))
# A write to the line the read before it left: the write dirties the line,
# so evicting it costs a writeback.
@example(ops=[Burst(addr=0, count=2), Access(addr=4, is_write=True),
              Access(addr=16)], l1=DIRECT, l2=None, issue=3.0)
# Two L1 misses with no L1 penalty, then a hit, under the default L2: each
# miss still looks up L2.
@example(ops=[Access(addr=0), Access(addr=32768), Access(addr=0)],
         l1=replace(SoftwareCPUConfig().cache, miss_penalty=0),
         l2=SoftwareCPUConfig().l2_cache, issue=3.0)
def test_run_ops_equals_the_per_element_reference(ops, l1, l2, issue):
    cpu = SoftwareCPU(SoftwareCPUConfig(issue_cycles_per_element=issue,
                                        cache=l1, l2_cache=l2))
    assert cpu.run_ops(ops) == reference_run(cpu, ops)
