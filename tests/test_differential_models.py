"""Differential tests across the execution-model registry.

Golden pins freeze absolute numbers for a handful of configurations; these
tests instead assert *cross-model orderings that must hold by construction*
on randomized small workloads — catching relative regressions (a variant
quietly losing its advantage, translation costs leaking into the ideal
model) that no absolute pin can see:

* ``ideal`` never loses: address translation only ever adds cycles, so every
  SVM-family model's runtime dominates the ideal accelerator's.
* ``svm-hugepage`` walks less: a single-level table cannot fetch more walker
  levels than the multi-level one, whatever the workload.
* ``svm-prefetch`` never increases demand TLB misses on pure streaming —
  the prefetcher may idle (accuracy throttle), but a correct one cannot make
  a sequential stream miss *more*.
* ``svm-shared-tlb`` degenerates exactly to ``svm`` when there is only one
  thread and one process (one sharer of the "shared" TLB).
* For N contending processes, flushing the TLB at every context switch
  (``svm`` semantics) can never miss less — or finish sooner — than ASID
  survival (``svm-shared-tlb`` semantics) on the identical slice plan.
"""

from hypothesis import example, given, note, settings, strategies as st

from repro.eval.harness import HarnessConfig, run_multiprocess
from repro.models import get_model
from repro.os.scheduler import get_policy
from repro.workloads import contention, workload

#: Per-kernel small-size overrides the randomized cases draw from.
SIZES = {
    "vecadd": ({"n": 256}, {"n": 1024}, {"n": 3072}),
    "saxpy": ({"n": 512}, {"n": 2048}),
    "linked_list": ({"nodes": 128, "node_bytes": 16},
                    {"nodes": 1024, "node_bytes": 16}),
    "random_access": ({"table_bytes": 64 * 1024, "accesses": 256},
                      {"table_bytes": 256 * 1024, "accesses": 1024}),
}

SVM_FAMILY = ("svm", "svm-prefetch", "svm-shared-tlb", "svm-hugepage")


def run_models(spec, models, config=None):
    config = config or HarnessConfig(tlb_entries=16)
    return {name: get_model(name).run(spec, config) for name in models}


@settings(max_examples=10, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16))
def test_ideal_is_a_lower_bound_for_every_svm_variant(kernel, size_index,
                                                      seed):
    overrides = SIZES[kernel][size_index % len(SIZES[kernel])]
    spec = workload(kernel, scale="tiny", seed=seed, **overrides)
    outcomes = run_models(spec, ("ideal",) + SVM_FAMILY)
    ideal = outcomes["ideal"]
    for name in SVM_FAMILY:
        assert outcomes[name].total_cycles >= ideal.total_cycles, name
        # The fabric portion alone already dominates (vm_overhead >= 1).
        assert outcomes[name].fabric_cycles >= ideal.fabric_cycles, name


@settings(max_examples=8, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16))
def test_hugepage_never_fetches_more_walker_levels(kernel, size_index, seed):
    overrides = SIZES[kernel][size_index % len(SIZES[kernel])]
    spec = workload(kernel, scale="tiny", seed=seed, **overrides)
    outcomes = run_models(spec, ("svm", "svm-hugepage"))
    assert outcomes["svm-hugepage"].breakdown["walker_levels"] <= \
        outcomes["svm"].breakdown["walker_levels"]
    # ~512x fewer pages also means no more demand misses.
    assert outcomes["svm-hugepage"].tlb_misses <= outcomes["svm"].tlb_misses


@settings(max_examples=8, deadline=None)
@given(kernel=st.sampled_from(("vecadd", "saxpy")),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16))
def test_prefetch_never_increases_misses_on_pure_streaming(kernel, size_index,
                                                           seed):
    overrides = SIZES[kernel][size_index % len(SIZES[kernel])]
    spec = workload(kernel, scale="tiny", seed=seed, **overrides)
    outcomes = run_models(spec, ("svm", "svm-prefetch"))
    assert outcomes["svm-prefetch"].tlb_misses <= outcomes["svm"].tlb_misses


@settings(max_examples=6, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_shared_tlb_with_one_sharer_degenerates_to_svm(kernel, seed):
    spec = workload(kernel, scale="tiny", seed=seed, **SIZES[kernel][0])
    outcomes = run_models(spec, ("svm", "svm-shared-tlb"))
    assert outcomes["svm"].total_cycles == \
        outcomes["svm-shared-tlb"].total_cycles
    assert outcomes["svm"].tlb_misses == outcomes["svm-shared-tlb"].tlb_misses


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       procs=st.integers(min_value=2, max_value=4),
       policy=st.sampled_from(("round-robin", "weighted-fair")))
def test_flush_on_switch_never_beats_asid_survival_differential(seed, procs,
                                                                policy):
    mp = contention(["vecadd"] * procs, scale="tiny", quantum=2000,
                    policy=policy, seed=seed, n=2048)
    config = HarnessConfig(tlb_entries=64)
    flushing = run_multiprocess(mp, config, flush_on_switch=True)
    surviving = run_multiprocess(mp, config)
    assert flushing.tlb_misses >= surviving.tlb_misses
    assert flushing.total_cycles >= surviving.total_cycles


# ---------------------------------------------------------------------------
# Two-tier exactness: the replay fastpath vs the event simulator
# ---------------------------------------------------------------------------
#
# The replay tier is only allowed to be *faster*, never *different*: every
# counter the event simulator produces must come back bit-for-bit identical
# from the fastpath engine, across the whole SVM family, every TLB
# replacement policy and N-process contention runs.  These tests are the
# safety net that lets sweeps default to ``tier="auto"``.

import dataclasses
import itertools

import pytest

from repro.eval import harness
from repro.eval.harness import _build_svm_system, run_svm
from repro.fastpath import record
from repro.fastpath.record import (capacity_class, clear_program_cache,
                                   record_stats)
from repro.sim.recorder import TraceRecorder

#: Every scalar field of SVMResult/RunOutcome that both tiers must agree on.
RESULT_FIELDS = ("total_cycles", "fabric_cycles", "tlb_hit_rate",
                 "tlb_misses", "faults", "software_overhead_cycles",
                 "walks", "walker_levels", "walker_cycles",
                 "miss_stall_cycles", "prefetches_issued", "prefetch_hits",
                 "context_switches")


def assert_svm_results_equal(event, replay):
    """Field-for-field equality, including the full component stats dump
    and the telemetry epochs."""
    for name in RESULT_FIELDS:
        assert getattr(event, name) == getattr(replay, name), name
    stats_e = event.system_result.stats
    stats_r = replay.system_result.stats
    for key in sorted(set(stats_e) | set(stats_r)):
        assert stats_e.get(key) == stats_r.get(key), f"stats[{key}]"
    assert (event.telemetry is None) == (replay.telemetry is None)
    if event.telemetry is not None:
        assert ([dataclasses.asdict(e) for e in event.telemetry.epochs]
                == [dataclasses.asdict(e) for e in replay.telemetry.epochs])


def run_with_fault_logs(run, *args, **kwargs):
    """``run(*args, **kwargs)`` plus every process's handler ``fault_log``.

    Both tiers build their platform through the harness builders, so a spy
    on those sees the platform whichever tier runs.
    """
    platforms = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_build_svm_system", "_build_mp_system"):
            def spy(*a, _real=getattr(harness, name), **k):
                built = _real(*a, **k)
                platforms.append(built[0])
                return built
            patch.setattr(harness, name, spy)
        result = run(*args, **kwargs)
    assert platforms, "no platform was built: the point was served"
    kernel = platforms[-1].kernel
    return result, {process: kernel.fault_handler(process).fault_log
                    for process in kernel.processes}


def assert_tiers_agree(run, *args, **kwargs):
    """Run on both tiers; results, stats, epochs and fault logs agree.

    The caches are emptied before the replay run, so a point whose capacity
    class an earlier run stored still replays instead of being served
    (``test_capacity_classes.py`` covers served points).
    """
    event, event_faults = run_with_fault_logs(run, *args, tier="event",
                                              **kwargs)
    clear_program_cache()
    replay, replay_faults = run_with_fault_logs(run, *args, tier="replay",
                                                **kwargs)
    assert replay.tier == "replay"
    assert_svm_results_equal(event, replay)
    assert event_faults == replay_faults
    return event


def test_tiers_agree_on_a_point_whose_class_an_earlier_run_stored():
    # The first comparison's replay stores the point's capacity class; the
    # second must replay again rather than be served with no platform.
    spec = workload("vecadd", scale="tiny", residency=0.5)
    for _ in range(2):
        assert_tiers_agree(run_svm, spec, HarnessConfig(tlb_entries=64))


@settings(max_examples=2, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16))
@example(kernel="random_access", size_index=1, seed=0)
def test_replay_tier_matches_event_tier_exactly(kernel, size_index, seed):
    """Every SVM-family model under every TLB replacement policy, each pair
    on every drawn workload: the whole ``SVMResult`` each tier's
    ``run_svm`` returns, stats dump included.  The explicit example touches
    64 pages through the 16-entry TLB, so every run evicts under each
    policy."""
    sizes = SIZES[kernel]
    spec = workload(kernel, scale="tiny", seed=seed,
                    **sizes[size_index % len(sizes)])
    results = []
    real = harness.run_svm

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_svm", spy)
        for model, replacement in itertools.product(
                SVM_FAMILY, ("lru", "fifo", "random")):
            note(f"model={model} tlb_replacement={replacement}")
            config = HarnessConfig(tlb_entries=16,
                                   tlb_replacement=replacement)
            results.clear()
            event = get_model(model).run(spec, config, tier="event")
            replay = get_model(model).run(spec, config, tier="replay")
            assert [result.tier for result in results] == ["event", "replay"]
            assert_svm_results_equal(*results)
            assert event.breakdown == replay.breakdown


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       procs=st.integers(min_value=2, max_value=3),
       policy=st.sampled_from(("round-robin", "weighted-fair")),
       flush=st.booleans())
def test_replay_tier_matches_event_tier_multiprocess(seed, procs, policy,
                                                     flush):
    mp = contention(["vecadd"] * procs, scale="tiny", quantum=2000,
                    policy=policy, seed=seed, n=2048)
    config = HarnessConfig(tlb_entries=64)
    event = run_multiprocess(mp, config, flush_on_switch=flush, tier="event")
    replay = run_multiprocess(mp, config, flush_on_switch=flush,
                              tier="replay")
    assert replay.tier == "replay"
    assert_svm_results_equal(event, replay)


#: Residencies below 1: every first touch of a missing page faults.
RESIDENCIES = (0.25, 0.5, 0.75)


@pytest.mark.parametrize("residency", RESIDENCIES)
@pytest.mark.parametrize("features", (
    {},
    {"tlb_prefetch": 2},
    {"host_shares_tlb": True, "tlb_associativity": 2},
), ids=("plain", "prefetch", "host-shared-tlb"))
def test_replay_serves_demand_faults_exactly(residency, features):
    spec = workload("random_access", scale="tiny", residency=residency,
                    **SIZES["random_access"][1])
    event = assert_tiers_agree(run_svm, spec,
                               HarnessConfig(tlb_entries=16, **features))
    assert event.faults > 0


@settings(max_examples=6, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       size_index=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16),
       residency=st.sampled_from(RESIDENCIES),
       prefetch=st.sampled_from((0, 2)))
def test_replay_matches_event_tier_under_demand_paging(kernel, size_index,
                                                       seed, residency,
                                                       prefetch):
    sizes = SIZES[kernel]
    spec = workload(kernel, scale="tiny", seed=seed, residency=residency,
                    **sizes[size_index % len(sizes)])
    assert_tiers_agree(run_svm, spec,
                       HarnessConfig(tlb_entries=16, tlb_prefetch=prefetch))


#: (policy, residency, HarnessConfig overrides, flush_on_switch): every
#: adaptive policy, every residency, the host-shared TLB, prefetching and
#: the shared walker, on static and adaptive schedules alike.
MP_CASES = {
    "adaptive-fault-quarter": ("adaptive-fault", 0.25, {}, False),
    "miss-fair-half-shared-walker-prefetch": (
        "miss-fair", 0.5, {"shared_walker": True, "tlb_prefetch": 2}, False),
    "host-aware-three-quarters-host-tlb": (
        "host-aware", 0.75, {"host_shares_tlb": True}, False),
    "miss-fair-resident-flushing": ("miss-fair", 1.0, {}, True),
    "round-robin-half-host-tlb-shared-walker": (
        "round-robin", 0.5, {"host_shares_tlb": True, "shared_walker": True},
        False),
    "weighted-fair-quarter-prefetch-flushing": (
        "weighted-fair", 0.25, {"tlb_prefetch": 2}, True),
}


@pytest.mark.parametrize("case", sorted(MP_CASES))
def test_replay_matches_event_tier_multiprocess_faults_and_policies(case):
    policy, residency, overrides, flush = MP_CASES[case]
    mp = contention(["random_access", "vecadd", "vecadd"], scale="tiny",
                    quantum=2000, policy=policy, residency=residency,
                    accesses=512, n=1024)
    config = HarnessConfig(tlb_entries=16, tlb_associativity=4, **overrides)
    event = assert_tiers_agree(run_multiprocess, mp, config,
                               flush_on_switch=flush)
    assert event.context_switches > 0
    if residency < 1.0:
        assert event.faults > 0
    if get_policy(policy).adaptive:
        assert event.telemetry.num_epochs > 1


@pytest.mark.parametrize("policy", ("round-robin", "miss-fair"))
def test_multiprocess_replay_is_deterministic_across_cache_states(policy):
    """Cold and warm program caches replay identically, static plans (one
    cached program per run) and adaptive slices (cached per process)."""
    mp = contention(["random_access", "vecadd"], scale="tiny", quantum=2000,
                    policy=policy, residency=0.5, accesses=512, n=1024)
    config = HarnessConfig(tlb_entries=16, host_shares_tlb=True)
    clear_program_cache()
    cold = run_multiprocess(mp, config, tier="replay")
    warm = run_multiprocess(mp, config, tier="replay")
    assert cold.tier == warm.tier == "replay"
    assert_svm_results_equal(cold, warm)
    assert_svm_results_equal(run_multiprocess(mp, config, tier="event"),
                             warm)


@settings(max_examples=8, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_recorded_streams_are_deterministic(kernel, seed):
    """Binding a spec twice records the exact same op stream both times.

    This is the precondition the program cache relies on: a spec's stream
    is recorded once and reused, so recording must be a pure function of
    the spec (and the page size).
    """
    spec = workload(kernel, scale="tiny", seed=seed, **SIZES[kernel][0])
    config = HarnessConfig(tlb_entries=16)
    streams = []
    for _ in range(2):
        _, _, bound = _build_svm_system(spec, config, 1)
        streams.append(TraceRecorder.capture(bound[0].make_kernel()))
    assert streams[0].num_ops > 0
    assert streams[0] == streams[1]


@settings(max_examples=4, deadline=None)
@given(kernel=st.sampled_from(sorted(SIZES)),
       seed=st.integers(min_value=0, max_value=2**16))
def test_replay_is_deterministic_across_cache_states(kernel, seed):
    """Cold record, re-record, and warm cache hits all replay identically."""
    spec = workload(kernel, scale="tiny", seed=seed, **SIZES[kernel][0])
    config = HarnessConfig(tlb_entries=16)
    clear_program_cache()
    cold = run_svm(spec, config, tier="replay")
    clear_program_cache()
    recold = run_svm(spec, config, tier="replay")
    # Drop the capacity class the run may have stored, keeping its program,
    # so the warm run replays the cached program instead of being served.
    record._programs.pop(capacity_class(spec, config), None)
    served = record_stats["served"]
    warm = run_svm(spec, config, tier="replay")
    assert record_stats["served"] == served
    assert_svm_results_equal(cold, recold)
    assert_svm_results_equal(cold, warm)
