"""Unit and property tests for the TLB."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm.tlb import (TLB, TLBConfig, TRACE_ABSENT, TRACE_HIT, TRACE_MISS,
                          TRACE_NEW, TRACE_PRESENT, TRACE_RESIDENT)


def test_miss_then_hit_after_insert():
    tlb = TLB(TLBConfig(entries=4))
    assert tlb.lookup(5) is None
    tlb.insert(5, frame=50, writable=True)
    entry = tlb.lookup(5)
    assert entry is not None
    assert entry.frame == 50
    assert tlb.hits == 1 and tlb.misses == 1


def test_capacity_bounded_and_eviction_counted():
    tlb = TLB(TLBConfig(entries=4))
    for vpn in range(10):
        tlb.insert(vpn, frame=vpn, writable=True)
    assert tlb.occupancy == 4
    assert tlb.evictions == 6


def test_lru_keeps_recently_used():
    tlb = TLB(TLBConfig(entries=2, replacement="lru"))
    tlb.insert(1, 1, True)
    tlb.insert(2, 2, True)
    tlb.lookup(1)                    # 1 becomes MRU
    tlb.insert(3, 3, True)           # evicts 2
    assert tlb.lookup(1) is not None
    assert tlb.lookup(2) is None
    assert tlb.lookup(3) is not None


def test_fifo_evicts_oldest_regardless_of_use():
    tlb = TLB(TLBConfig(entries=2, replacement="fifo"))
    tlb.insert(1, 1, True)
    tlb.insert(2, 2, True)
    tlb.lookup(1)
    tlb.insert(3, 3, True)           # evicts 1 (oldest insert)
    assert tlb.lookup(1) is None
    assert tlb.lookup(2) is not None


def test_random_replacement_is_deterministic_per_seed():
    def evicted_set(seed):
        tlb = TLB(TLBConfig(entries=4, replacement="random", seed=seed))
        for vpn in range(8):
            tlb.insert(vpn, vpn, True)
        return frozenset(tlb.resident_vpns())

    assert evicted_set(1) == evicted_set(1)


def test_set_associative_indexing_and_conflicts():
    config = TLBConfig(entries=8, associativity=2)
    tlb = TLB(config)
    assert config.num_sets == 4
    # All these VPNs map to set 0 (multiples of num_sets).
    for i in range(3):
        tlb.insert(i * 4, frame=i, writable=True)
    assert tlb.occupancy == 2            # third insert evicted within set 0
    assert tlb.evictions == 1


def test_duplicate_insert_updates_in_place():
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(7, frame=1, writable=False)
    tlb.insert(7, frame=2, writable=True)
    entry = tlb.lookup(7)
    assert entry.frame == 2 and entry.writable
    assert tlb.occupancy == 1


def test_asid_mismatch_is_a_miss():
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(9, frame=3, writable=True, asid=1)
    assert tlb.lookup(9, asid=2) is None
    assert tlb.lookup(9, asid=1) is not None


def test_invalidate_single_entry():
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(1, 1, True)
    assert tlb.invalidate(1) is True
    assert tlb.invalidate(1) is False
    assert tlb.lookup(1) is None


def test_flush_clears_everything():
    tlb = TLB(TLBConfig(entries=8))
    for vpn in range(5):
        tlb.insert(vpn, vpn, True)
    assert tlb.flush() == 5
    assert tlb.occupancy == 0
    assert tlb.flushes == 1


def test_hit_rate_and_contains():
    tlb = TLB(TLBConfig(entries=4))
    tlb.lookup(1)
    tlb.insert(1, 1, True)
    tlb.lookup(1)
    assert tlb.hit_rate == pytest.approx(0.5)
    assert 1 in tlb
    assert 2 not in tlb
    assert len(tlb) == 1


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        TLBConfig(entries=0)
    with pytest.raises(ValueError):
        TLBConfig(entries=8, associativity=3)
    with pytest.raises(ValueError):
        TLBConfig(replacement="mru")
    with pytest.raises(ValueError):
        TLBConfig(page_size=1000)


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(entries=st.sampled_from([2, 4, 8, 16]),
       policy=st.sampled_from(["lru", "fifo", "random"]),
       vpns=st.lists(st.integers(min_value=0, max_value=1 << 20),
                     min_size=1, max_size=200))
def test_property_occupancy_never_exceeds_capacity(entries, policy, vpns):
    tlb = TLB(TLBConfig(entries=entries, replacement=policy))
    for vpn in vpns:
        if tlb.lookup(vpn) is None:
            tlb.insert(vpn, frame=vpn, writable=True)
        assert tlb.occupancy <= entries
    assert tlb.hits + tlb.misses == len(vpns)


@settings(max_examples=40, deadline=None)
@given(vpns=st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                     max_size=100))
def test_property_inserted_entry_translates_consistently(vpns):
    tlb = TLB(TLBConfig(entries=512))   # large enough: no evictions
    for vpn in vpns:
        tlb.insert(vpn, frame=vpn + 1000, writable=True)
    for vpn in set(vpns):
        entry = tlb.lookup(vpn)
        assert entry is not None
        assert entry.frame == vpn + 1000


@settings(max_examples=30, deadline=None)
@given(working_set=st.integers(min_value=1, max_value=8),
       accesses=st.integers(min_value=50, max_value=200))
def test_property_working_set_within_capacity_hits_after_warmup(working_set, accesses):
    tlb = TLB(TLBConfig(entries=8, replacement="lru"))
    misses_after_warmup = 0
    for i in range(accesses):
        vpn = i % working_set
        if tlb.lookup(vpn) is None:
            tlb.insert(vpn, vpn, True)
            if i >= working_set:
                misses_after_warmup += 1
    assert misses_after_warmup == 0


# ---------------------------------------------------------------------------
# ASID isolation (regression: entries used to be keyed by VPN alone, so one
# address space's insert silently overwrote another's translation)
# ---------------------------------------------------------------------------
def test_two_asids_same_vpn_coexist_with_different_frames():
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(9, frame=100, writable=True, asid=1)
    tlb.insert(9, frame=200, writable=False, asid=2)
    assert tlb.occupancy == 2
    entry1 = tlb.lookup(9, asid=1)
    entry2 = tlb.lookup(9, asid=2)
    assert entry1.frame == 100 and entry1.writable
    assert entry2.frame == 200 and not entry2.writable


def test_insert_does_not_clobber_other_asid():
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(5, frame=50, writable=True, asid=1)
    tlb.insert(5, frame=99, writable=True, asid=2)   # other space, same vpn
    assert tlb.lookup(5, asid=1).frame == 50          # survived untouched


def test_invalidate_is_per_asid():
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(7, frame=1, writable=True, asid=1)
    tlb.insert(7, frame=2, writable=True, asid=2)
    assert tlb.invalidate(7, asid=1) is True
    assert tlb.lookup(7, asid=1) is None
    assert tlb.lookup(7, asid=2) is not None          # other space untouched
    assert tlb.invalidate(7, asid=1) is False         # already gone


def test_invalidate_wildcard_shoots_down_all_spaces():
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(7, frame=1, writable=True, asid=1)
    tlb.insert(7, frame=2, writable=True, asid=2)
    assert tlb.invalidate(7) is True                  # asid=None wildcard
    assert tlb.occupancy == 0


def test_contains_and_resident_vpns_are_asid_aware():
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(3, frame=1, writable=True, asid=1)
    tlb.insert(3, frame=2, writable=True, asid=2)
    tlb.insert(4, frame=3, writable=True, asid=2)
    assert 3 in tlb                                   # bare vpn: any space
    assert (1, 3) in tlb and (2, 3) in tlb
    assert (3, 3) not in tlb
    assert sorted(tlb.resident_vpns()) == [3, 3, 4]
    assert sorted(tlb.resident_vpns(asid=1)) == [3]
    assert sorted(tlb.resident_vpns(asid=2)) == [3, 4]


def test_multi_asid_entries_contend_within_a_set():
    # Same vpn from many spaces fills the set and triggers eviction.
    tlb = TLB(TLBConfig(entries=2, replacement="lru"))
    tlb.insert(1, frame=10, writable=True, asid=1)
    tlb.insert(1, frame=20, writable=True, asid=2)
    tlb.insert(1, frame=30, writable=True, asid=3)    # evicts asid 1 (LRU)
    assert tlb.evictions == 1
    assert tlb.lookup(1, asid=1) is None
    assert tlb.lookup(1, asid=2).frame == 20
    assert tlb.lookup(1, asid=3).frame == 30


def test_mmu_invalidate_passes_asid_through():
    from repro.vm.mmu import MMU
    # The MMU forwards targeted and wildcard shootdowns to its TLB.
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(8, frame=1, writable=True, asid=1)
    tlb.insert(8, frame=2, writable=True, asid=2)
    mmu = MMU.__new__(MMU)               # translation plumbing not needed here
    mmu.tlb = tlb
    mmu.count = lambda *a, **k: None
    assert MMU.invalidate(mmu, 8, asid=1) is True
    assert (2, 8) in tlb and (1, 8) not in tlb
    assert MMU.invalidate(mmu, 8) is True             # wildcard drops the rest
    assert tlb.occupancy == 0


# --------------------------------------------------------------- op traces
def _outcomes(tlb):
    """``tlb``'s trace as ``(vpn, outcome)`` pairs."""
    return [(code >> 3, code & 7) for code in tlb.trace]


def test_a_trace_keeps_every_miss_and_drops_a_hit_that_repeats_a_hit():
    tlb = TLB(TLBConfig(entries=2))
    tlb.start_trace(asid=0, vpn_limit=16)
    tlb.lookup(5)
    tlb.lookup(5)
    tlb.insert(5, 50, True)
    tlb.insert(5, 50, True)
    tlb.lookup(5)
    tlb.lookup(5)                    # repeats the hit: not recorded
    tlb.lookup(6)
    tlb.lookup(5)
    assert _outcomes(tlb) == [(5, TRACE_MISS), (5, TRACE_MISS), (5, TRACE_NEW),
                              (5, TRACE_RESIDENT), (5, TRACE_HIT),
                              (6, TRACE_MISS), (5, TRACE_HIT)]
    assert tlb.hits == 3 and tlb.misses == 3


def test_a_trace_starts_empty_and_ends_outside_its_address_space():
    """A shootdown, a flush or an operation of another address space ends
    a trace."""
    tlb = TLB(TLBConfig(entries=4))
    tlb.insert(1, 1, True)
    with pytest.raises(ValueError):
        tlb.start_trace(asid=0, vpn_limit=16)
    tlb.flush()
    tlb.start_trace(asid=0, vpn_limit=16)
    tlb.invalidate(9)                # dropped nothing, still ends the trace
    assert tlb.trace is None
    tlb.start_trace(asid=0, vpn_limit=16)
    tlb.flush()
    assert tlb.trace is None
    tlb.start_trace(asid=1, vpn_limit=16)
    tlb.insert(1, 1, True, asid=1)
    tlb.lookup(1, asid=2)
    assert tlb.trace is None
    tlb.flush()
    tlb.start_trace(asid=0, vpn_limit=1 << 28)   # codes fit in 31 bits
    assert tlb.trace.itemsize == 4
    tlb.start_trace(asid=0, vpn_limit=1 << 29)
    assert tlb.trace.itemsize == 8


def test_follow_stops_at_a_fill_that_finds_its_page_evicted():
    """A fill's outcome alone tells the geometries apart: every lookup
    below hits or misses alike on both TLBs."""
    big = TLB(TLBConfig(entries=4))
    big.start_trace(asid=0, vpn_limit=16)
    for vpn in (1, 2, 3, 1):
        big.insert(vpn, vpn, True)
    assert _outcomes(big)[-1] == (1, TRACE_RESIDENT)
    assert TLB(TLBConfig(entries=3)).follow(big.trace)
    assert not TLB(TLBConfig(entries=2)).follow(big.trace)


def test_follow_stops_at_a_probe_that_finds_its_page_evicted():
    big = TLB(TLBConfig(entries=4))
    big.start_trace(asid=0, vpn_limit=16)
    for vpn in (1, 2, 3):
        big.insert(vpn, vpn, True)
    big.trace.append(1 << 3 | TRACE_PRESENT)     # probe of vpn 1
    assert TLB(TLBConfig(entries=3)).follow(big.trace)
    small = TLB(TLBConfig(entries=2))
    assert not small.follow(big.trace)
    assert small.evictions == 1


_ops = st.lists(st.tuples(st.sampled_from(("lookup", "insert", "probe")),
                          st.integers(0, 11)), max_size=60)
_geometry = st.tuples(st.sampled_from((1, 2, 3, 4, 6, 8, 12)),
                      st.sampled_from((None, 1, 2)),
                      st.sampled_from(("lru", "fifo", "random")))


def _traced(geometry, ops):
    """A TLB of ``geometry`` that ran ``ops`` with a trace, probes encoded
    as the replay engine records them."""
    entries, associativity, replacement = geometry
    if associativity is not None and entries % associativity:
        associativity = None
    tlb = TLB(TLBConfig(entries=entries, associativity=associativity,
                        replacement=replacement))
    tlb.start_trace(asid=0, vpn_limit=16)
    for op, vpn in ops:
        if op == "lookup":
            tlb.lookup(vpn)
        elif op == "insert":
            tlb.insert(vpn, vpn, True)
        else:
            tlb.trace.append(vpn << 3 | (TRACE_PRESENT if vpn in tlb
                                         else TRACE_ABSENT))
    return tlb


@settings(max_examples=200, deadline=None)
@given(ops=_ops, recorded=_geometry, other=_geometry)
def test_property_follow_accepts_exactly_the_geometries_with_equal_outcomes(
        ops, recorded, other):
    """A fresh TLB follows a trace iff running the same operations on it
    records the same trace, and then ends with that run's evictions,
    occupancy and resident pages, in the same order."""
    source = _traced(recorded, ops)
    own = _traced(other, ops)
    follower = TLB(own.config)
    assert follower.follow(source.trace) == (own.trace == source.trace)
    if own.trace == source.trace:
        assert follower.evictions == own.evictions
        assert follower.occupancy == own.occupancy
        assert ([list(s) for s in follower._sets]
                == [[vpn for _, vpn in s] for s in own._sets])
