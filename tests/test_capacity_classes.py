"""Capacity classes: an eviction-free replay serves every TLB that holds it.

A replay-tier run whose TLB never evicted, flushed or invalidated an entry
is stored for its capacity class (the point with its TLB geometry set
aside), and a later replay-tier point of that class whose TLB can hold the
stored translations, at most ``ways`` of them in each set, is served a copy
of the stored result without replaying.  Nothing else checks a served
point: perfbench's references are event-tier runs of points that are not
served, so these tests carry the exactness burden.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.eval import harness
from repro.eval.harness import HarnessConfig, run_svm
from repro.fastpath import record, replay
from repro.fastpath.record import (capacity_class, clear_program_cache,
                                   record_stats)
from repro.vm.tlb import TLBConfig
from repro.workloads import standard_suite, workload

TINY_KERNELS = [spec.kernel for spec in standard_suite("tiny")]

#: Holds every tiny kernel's translations (random_access touches 128 pages).
BIG_TLB = 256

#: A tiny vecadd keeps 12 translations, from three 4-page arrays with a
#: guard page between them.
VECADD = workload("vecadd", scale="tiny")


def _as_event(result):
    """``result`` with its tier fields set as an event-tier run sets them."""
    return dataclasses.replace(result, tier="event", tier_reason=None)


def _served(run):
    """``run()``'s result and whether it was served from a class."""
    before = record_stats["served"]
    result = run()
    return result, record_stats["served"] - before


geometries = st.tuples(
    st.sampled_from((4, 8, 12, 16, 32, 64, 128, BIG_TLB)),
    st.sampled_from((None, 1, 2, 4)),
    st.sampled_from(("lru", "fifo", "random")))


@settings(max_examples=25, deadline=None)
@given(kernel=st.sampled_from(TINY_KERNELS),
       residency=st.sampled_from((1.0, 0.5)),
       prefetch=st.sampled_from((0, 2)),
       pin_all=st.booleans(),
       host_shares_tlb=st.booleans(),
       drawn=st.lists(geometries, min_size=1, max_size=3),
       last_policy=st.sampled_from(("lru", "fifo", "random")))
def test_served_points_equal_event_tier_runs(kernel, residency, prefetch,
                                             pin_all, host_shares_tlb, drawn,
                                             last_policy):
    """Every point of a geometry sequence on ``tier="auto"`` equals its
    ``tier="event"`` run as a whole ``SVMResult``.  The sequence opens and
    closes with a fully associative TLB that holds every tiny kernel's
    translations, so the first stores a class and the last is served."""
    spec = workload(kernel, scale="tiny", residency=residency)
    base = HarnessConfig(tlb_prefetch=prefetch, pin_all=pin_all,
                         host_shares_tlb=host_shares_tlb)
    sequence = [(BIG_TLB, None, "lru"), *drawn, (BIG_TLB, None, last_policy)]
    clear_program_cache()
    served = 0
    for entries, associativity, replacement in sequence:
        config = dataclasses.replace(base, tlb_entries=entries,
                                     tlb_associativity=associativity,
                                     tlb_replacement=replacement)
        auto, hit = _served(lambda: run_svm(spec, config, tier="auto"))
        assert auto.tier == "replay"
        assert _as_event(auto) == run_svm(spec, config, tier="event"), config
        served += hit
    assert served >= 1


def test_a_run_that_evicts_once_stores_nothing():
    """Eleven entries hold all but one of vecadd's 12 translations."""
    small = HarnessConfig(tlb_entries=11)
    clear_program_cache()
    result = run_svm(VECADD, small, tier="replay")
    assert result.system_result.stats["mmu.hwt0.tlb_evictions"] == 1
    assert capacity_class(VECADD, small) not in record._programs
    big, hit = _served(lambda: run_svm(
        VECADD, HarnessConfig(tlb_entries=BIG_TLB), tier="replay"))
    assert not hit
    assert big.system_result.stats["mmu.hwt0.tlb_evictions"] == 0


def test_a_set_too_small_for_its_translations_replays_and_evicts():
    """Twelve entries in six 2-way sets hold 12 translations in total, but
    the guard pages leave three of vecadd's translations in one set."""
    clear_program_cache()
    run_svm(VECADD, HarnessConfig(tlb_entries=16), tier="replay")
    stored = record._programs[capacity_class(VECADD, HarnessConfig())]
    geometry = TLBConfig(entries=12, associativity=2)
    assert len(stored.tags) == geometry.entries
    assert not stored.fits(geometry)
    config = HarnessConfig(tlb_entries=12, tlb_associativity=2)
    result, hit = _served(lambda: run_svm(VECADD, config, tier="replay"))
    assert not hit
    assert result.system_result.stats["mmu.hwt0.tlb_evictions"] > 0
    assert _as_event(result) == run_svm(VECADD, config, tier="event")


def test_the_event_tier_never_reads_or_writes_the_store(monkeypatch):
    clear_program_cache()
    stored = run_svm(VECADD, HarnessConfig(tlb_entries=16), tier="replay")
    entries = list(record._programs.items())

    def forbidden(*args):
        raise AssertionError("the event tier touched a capacity class")

    monkeypatch.setattr(record, "capacity_class", forbidden)
    monkeypatch.setattr(record, "served_result", forbidden)
    monkeypatch.setattr(record, "store_class", forbidden)
    for config in (HarnessConfig(tlb_entries=32),
                   HarnessConfig(tlb_entries=32, max_outstanding=2)):
        result = run_svm(VECADD, config, tier="event")
        assert result.tier == "event"
    assert list(record._programs.items()) == entries
    assert _as_event(stored) == run_svm(VECADD, HarnessConfig(tlb_entries=64),
                                        tier="event")


def test_two_served_copies_are_distinct_objects(monkeypatch):
    clear_program_cache()
    stored = run_svm(VECADD, HarnessConfig(tlb_entries=16), tier="replay")
    monkeypatch.setattr(replay, "replay_fabric", None)   # served, or fails
    first = run_svm(VECADD, HarnessConfig(tlb_entries=32), tier="replay")
    second = run_svm(VECADD, HarnessConfig(tlb_entries=64,
                                           tlb_replacement="random"),
                     tier="auto")
    assert first == second == stored
    assert first is not second
    assert first.system_result is not second.system_result
    assert first.system_result.stats is not second.system_result.stats
    first.system_result.stats["mmu.hwt0.tlb_hits"] = -1
    first.tier = "changed"
    third = run_svm(VECADD, HarnessConfig(tlb_entries=16), tier="replay")
    assert third == stored


def test_clearing_the_program_cache_empties_the_classes(monkeypatch):
    clear_program_cache()
    run_svm(VECADD, HarnessConfig(tlb_entries=16), tier="replay")
    assert capacity_class(VECADD, HarnessConfig()) in record._programs
    clear_program_cache()
    assert not record._programs
    replays = []
    monkeypatch.setattr(harness, "_build_svm_system",
                        lambda *args, _real=harness._build_svm_system:
                        replays.append(args) or _real(*args))
    _, hit = _served(lambda: run_svm(VECADD, HarnessConfig(tlb_entries=32),
                                     tier="replay"))
    assert not hit
    assert len(replays) == 1
