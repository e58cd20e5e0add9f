"""Capacity classes: a stored replay serves every TLB that would see its
outcomes.

A replay-tier run is stored for its capacity class (the point with its TLB
geometry set aside) with the trace of its TLB's lookups, fills and prefetch
probes and their outcomes.  A later replay-tier point of that class is
served a copy of the stored result, with its own TLB evictions and
occupancy, when its TLB would give every recorded outcome: either the
stored outcomes are a never-evicting TLB's and the point's TLB holds every
translation the run inserted, or a fresh TLB of the point's geometry
follows the trace.  perfbench checks one served point at most
(``fig5_default``'s vecadd/8), so these tests carry the exactness burden.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.eval import harness
from repro.eval.harness import HarnessConfig, run_multiprocess, run_svm
from repro.fastpath import record, replay
from repro.fastpath.record import (capacity_class, clear_program_cache,
                                   record_stats)
from repro.vm.tlb import TLB, TLBConfig, TRACE_HIT, TRACE_MISS
from repro.workloads import contention, standard_suite, workload

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


def _stats(result):
    """The TLB evictions and occupancy of a single-process result."""
    stats = result.system_result.stats
    return stats["mmu.hwt0.tlb_evictions"], stats["mmu.hwt0.tlb_occupancy"]


geometries = st.tuples(
    st.sampled_from((4, 8, 12, 16, 32, 64, 128, BIG_TLB)),
    st.sampled_from((None, 1, 2, 4)),
    st.sampled_from(("lru", "fifo", "random")))


def _config(base, geometry):
    entries, associativity, replacement = geometry
    return dataclasses.replace(base, tlb_entries=entries,
                               tlb_associativity=associativity,
                               tlb_replacement=replacement)


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
    for geometry in sequence:
        config = _config(base, geometry)
        auto, hit = _served(lambda: run_svm(spec, config, tier="auto"))
        assert auto.tier == "replay"
        assert _as_event(auto) == run_svm(spec, config, tier="event"), config
        served += hit
    assert served >= 1


@settings(max_examples=20, deadline=None)
@given(kernel=st.sampled_from(TINY_KERNELS),
       residency=st.sampled_from((1.0, 0.5)),
       prefetch=st.sampled_from((0, 2)),
       pin_all=st.booleans(),
       host_shares_tlb=st.booleans(),
       drawn=st.lists(geometries, min_size=1, max_size=3))
def test_a_repeated_geometry_is_served(kernel, residency, prefetch, pin_all,
                                       host_shares_tlb, drawn):
    """Drawn geometries, then the first again, on ``tier="auto"``: each
    point equals its ``tier="event"`` run, and the repeated one is served,
    whatever replayed in between."""
    spec = workload(kernel, scale="tiny", residency=residency)
    base = HarnessConfig(tlb_prefetch=prefetch, pin_all=pin_all,
                         host_shares_tlb=host_shares_tlb)
    clear_program_cache()
    hit = 0
    for geometry in [*drawn, drawn[0]]:
        config = _config(base, geometry)
        auto, hit = _served(lambda: run_svm(spec, config, tier="auto"))
        assert _as_event(auto) == run_svm(spec, config, tier="event"), config
    assert hit


def test_a_run_whose_eviction_nothing_observes_serves_a_bigger_tlb():
    """Eleven entries hold all but one of vecadd's 12 translations, and no
    operation touches the evicted one again: the run's outcomes are those of
    a TLB that never evicts, so a TLB holding all 12 is served."""
    small = HarnessConfig(tlb_entries=11)
    clear_program_cache()
    result = run_svm(VECADD, small, tier="replay")
    assert _stats(result) == (1, 11)
    stored = record._programs[capacity_class(VECADD, small)]
    assert len(stored.tags) == 12
    big_config = HarnessConfig(tlb_entries=BIG_TLB)
    big, hit = _served(lambda: run_svm(VECADD, big_config, tier="replay"))
    assert hit
    assert _stats(big) == (0, 12)
    assert _as_event(big) == run_svm(VECADD, big_config, tier="event")


def test_a_set_too_small_for_its_translations_replays_and_evicts():
    """Twelve entries in six 2-way sets hold 12 translations in total, but
    the guard pages leave three of vecadd's translations in one set.  The
    evictions that forces drop only pages nothing touches again, so the
    trace check serves the point.  random_access's evictions at that
    geometry are seen by later lookups, so it replays."""
    clear_program_cache()
    run_svm(VECADD, HarnessConfig(tlb_entries=16), tier="replay")
    stored = record._programs[capacity_class(VECADD, HarnessConfig())]
    geometry = TLBConfig(entries=12, associativity=2)
    assert len(stored.tags) == geometry.entries
    assert not stored.fits(geometry)
    config = HarnessConfig(tlb_entries=12, tlb_associativity=2)
    result, hit = _served(lambda: run_svm(VECADD, config, tier="replay"))
    assert hit
    assert _stats(result)[0] > 0
    assert _as_event(result) == run_svm(VECADD, config, tier="event")

    spec = workload("random_access", scale="tiny")
    run_svm(spec, HarnessConfig(tlb_entries=BIG_TLB), tier="replay")
    refused = record_stats["refused"]
    result, hit = _served(lambda: run_svm(spec, config, tier="replay"))
    assert not hit
    assert record_stats["refused"] == refused + 1
    assert _stats(result)[0] > 0
    assert _as_event(result) == run_svm(spec, config, tier="event")


def test_a_prefetch_probe_that_finds_its_page_evicted_replays():
    """Six entries give every lookup and fill of this half-resident,
    prefetching filter2d the outcome a 256-entry run saw, but a prefetch
    probe finds a page evicted that the big TLB still held: the small TLB
    walks a prefetch the stored run never issued."""
    spec = workload("filter2d", scale="tiny", residency=0.5)
    clear_program_cache()
    run_svm(spec, HarnessConfig(tlb_entries=BIG_TLB, tlb_prefetch=2),
            tier="replay")
    config = HarnessConfig(tlb_entries=6, tlb_prefetch=2)
    result, hit = _served(lambda: run_svm(spec, config, tier="replay"))
    assert not hit
    assert _as_event(result) == run_svm(spec, config, tier="event")


def test_a_fill_that_finds_its_page_evicted_replays():
    """Three entries give every lookup and prefetch probe of this
    half-resident, prefetching merge_sort the outcome a 4-entry run saw, but
    a walk fills a page the 4-entry TLB still held and the 3-entry one had
    evicted: it evicts again, so the run's evictions differ."""
    spec = workload("merge_sort", scale="tiny", residency=0.5)
    clear_program_cache()
    run_svm(spec, HarnessConfig(tlb_entries=4, tlb_prefetch=2), tier="replay")
    config = HarnessConfig(tlb_entries=3, tlb_prefetch=2)
    result, hit = _served(lambda: run_svm(spec, config, tier="replay"))
    assert not hit
    assert _as_event(result) == run_svm(spec, config, tier="event")


def test_an_evicting_run_leaves_the_unbounded_run_serving():
    """A 4-entry run between two 256-entry points replays and joins the
    class; the never-evicting run stored first still serves the last
    point."""
    spec = workload("filter2d", scale="tiny")
    clear_program_cache()
    hits = []
    for entries in (BIG_TLB, 4, BIG_TLB):
        config = HarnessConfig(tlb_entries=entries, tlb_prefetch=2)
        result, hit = _served(lambda: run_svm(spec, config, tier="auto"))
        assert _as_event(result) == run_svm(spec, config, tier="event")
        hits.append(hit)
    assert hits == [0, 0, 1]


def test_a_replay_trace_keeps_repeated_misses_and_drops_repeated_hits(
        monkeypatch):
    """The engine records as ``TLB.lookup`` does: matmul's chunks of one
    page miss one after another while its walk is pending, and each miss is
    recorded; a hit right after a hit on the same page is not."""
    traces = []
    start_trace = TLB.start_trace

    def kept(tlb, asid, vpn_limit):
        start_trace(tlb, asid, vpn_limit)
        traces.append(tlb)

    monkeypatch.setattr(TLB, "start_trace", kept)
    clear_program_cache()
    run_svm(workload("matmul", scale="tiny"), HarnessConfig(tlb_entries=16),
            tier="replay")
    (tlb,) = traces
    pairs = list(zip(tlb.trace, tlb.trace[1:]))
    assert any(a == b and a & 7 == TRACE_MISS for a, b in pairs)
    assert not any(a == b and a & 7 == TRACE_HIT for a, b in pairs)


def test_only_single_process_replays_record_a_trace(monkeypatch):
    started = []
    monkeypatch.setattr(TLB, "start_trace",
                        lambda tlb, asid, vpn_limit: started.append(tlb))
    clear_program_cache()
    run_svm(VECADD, HarnessConfig(tlb_entries=16), tier="event")
    run_multiprocess(contention(["vecadd", "saxpy"], scale="tiny"),
                     HarnessConfig(tlb_entries=16), tier="replay")
    assert started == []
    run_svm(VECADD, HarnessConfig(tlb_entries=16), tier="replay")
    assert len(started) == 1


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
    for name in ("stats", "per_thread_fabric_cycles",
                 "per_thread_wall_cycles", "aborted_threads"):
        assert (getattr(first.system_result, name)
                is not getattr(second.system_result, name)), name
    first.system_result.stats["mmu.hwt0.tlb_hits"] = -1
    first.system_result.per_thread_fabric_cycles["hwt0"] = -1
    first.system_result.per_thread_wall_cycles["hwt0"] = -1
    first.system_result.aborted_threads.append("hwt0")
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
