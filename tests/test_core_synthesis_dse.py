"""Unit tests for the system synthesizer and design-space exploration."""

import pytest

from repro.core.dse import DesignPoint, DesignSpaceExplorer, SweepAxes, pareto_front
from repro.core.platform import Platform, PlatformConfig
from repro.core.resources import ResourceEstimate
from repro.core.spec import SystemSpec, ThreadSpec
from repro.core.synthesis import SystemSynthesizer
from repro.workloads import workload


def simple_spec(num_threads=1, kernel="vecadd", shared_walker=False, **thread_kwargs):
    threads = [ThreadSpec(name=f"hwt{i}", kernel=kernel, **thread_kwargs)
               for i in range(num_threads)]
    return SystemSpec(name="test", threads=threads, shared_walker=shared_walker)


# ---------------------------------------------------------------- synthesis
def test_synthesize_creates_one_mmu_and_walker_per_thread():
    system = SystemSynthesizer().synthesize(simple_spec(num_threads=3))
    assert len(system.threads) == 3
    walkers = {id(t.walker) for t in system.threads.values()}
    assert len(walkers) == 3
    mmus = {id(t.mmu) for t in system.threads.values()}
    assert len(mmus) == 3


def test_synthesize_shared_walker_is_single_instance():
    system = SystemSynthesizer().synthesize(
        simple_spec(num_threads=3, shared_walker=True))
    walkers = {id(t.walker) for t in system.threads.values()}
    assert len(walkers) == 1
    assert system.shared_walker is not None


def test_resource_estimate_grows_with_threads_and_tlb():
    one = SystemSynthesizer().synthesize(simple_spec(num_threads=1))
    four = SystemSynthesizer().synthesize(simple_spec(num_threads=4))
    assert four.resource_estimate().luts > one.resource_estimate().luts

    small_tlb = SystemSynthesizer().synthesize(simple_spec(tlb_entries=8))
    big_tlb = SystemSynthesizer().synthesize(simple_spec(tlb_entries=128))
    assert big_tlb.resource_estimate().luts > small_tlb.resource_estimate().luts


def test_synthesized_system_fits_device():
    system = SystemSynthesizer().synthesize(simple_spec(num_threads=2))
    assert system.fits()


def test_run_executes_kernels_and_reports_per_thread_cycles():
    platform = Platform(PlatformConfig())
    bound = workload("vecadd", scale="tiny").bind(platform.space)
    spec = simple_spec(num_threads=1)
    system = SystemSynthesizer().synthesize(spec, platform=platform)
    result = system.run({"hwt0": bound.make_kernel()})
    assert result.ok
    assert result.total_cycles > 0
    assert result.per_thread_fabric_cycles["hwt0"] > 0
    assert result.per_thread_wall_cycles["hwt0"] > result.per_thread_fabric_cycles["hwt0"]
    assert 0.0 < result.tlb_hit_rate("hwt0") <= 1.0
    assert result.software_overhead_cycles > 0


def test_run_rejects_mismatched_kernel_bindings():
    platform = Platform(PlatformConfig())
    bound = workload("vecadd", scale="tiny").bind(platform.space)
    system = SystemSynthesizer().synthesize(simple_spec(num_threads=2),
                                            platform=platform)
    with pytest.raises(KeyError):
        system.run({"hwt0": bound.make_kernel()})                # missing hwt1
    with pytest.raises(KeyError):
        system.run({"hwt0": bound.make_kernel(),
                    "hwt1": bound.make_kernel(),
                    "ghost": bound.make_kernel()})               # unknown thread


def test_two_threads_run_concurrently():
    platform = Platform(PlatformConfig())
    first = workload("vecadd", scale="tiny").bind(platform.space)
    second = workload("saxpy", scale="tiny").bind(platform.space)
    spec = SystemSpec(name="dual", threads=[
        ThreadSpec(name="hwt0", kernel="vecadd"),
        ThreadSpec(name="hwt1", kernel="saxpy"),
    ])
    system = SystemSynthesizer().synthesize(spec, platform=platform)
    result = system.run({"hwt0": first.make_kernel(),
                         "hwt1": second.make_kernel()})
    assert result.ok
    combined = result.total_cycles
    serial = sum(result.per_thread_wall_cycles.values())
    assert combined < serial                        # overlap happened


# ---------------------------------------------------------------- DSE
def _point(runtime, luts, **params):
    return DesignPoint(parameters=tuple(sorted(params.items())),
                       runtime_cycles=runtime,
                       resources=ResourceEstimate(luts=luts))


def test_pareto_front_removes_dominated_points():
    points = [_point(100, 100, a=1), _point(90, 110, a=2),
              _point(120, 120, a=3), _point(100, 90, a=4)]
    front = pareto_front(points)
    runtimes = [p.runtime_cycles for p in front]
    assert 120 not in runtimes                      # dominated by (100, 90)
    assert _point(90, 110, a=2).params in [p.params for p in front]


def test_dominates_relation():
    assert _point(10, 10).dominates(_point(20, 20))
    assert _point(10, 20).dominates(_point(10, 30))
    assert not _point(10, 30).dominates(_point(20, 20))
    assert not _point(10, 10).dominates(_point(10, 10))


def test_explorer_enumerates_grid():
    axes = SweepAxes(tlb_entries=(8, 16), max_burst_bytes=(128,),
                     max_outstanding=(2, 4), shared_walker=(False, True))
    base = simple_spec()
    explorer = DesignSpaceExplorer(lambda spec: (1, ResourceEstimate()))
    candidates = explorer.candidates(base, axes)
    assert len(candidates) == axes.size() == 8
    tlb_values = {c.threads[0].tlb_entries for c in candidates}
    assert tlb_values == {8, 16}


def test_explorer_explore_calls_evaluator_per_candidate():
    calls = []

    def evaluator(spec):
        calls.append(spec)
        return (spec.threads[0].tlb_entries * 10,
                ResourceEstimate(luts=spec.threads[0].tlb_entries))

    axes = SweepAxes(tlb_entries=(8, 16, 32), max_burst_bytes=(256,),
                     max_outstanding=(4,), shared_walker=(False,))
    explorer = DesignSpaceExplorer(evaluator)
    points, front = explorer.explore_pareto(simple_spec(), axes)
    assert len(calls) == 3
    assert len(points) == 3
    # Smaller TLB is both faster (per this toy evaluator) and smaller: front of 1.
    assert len(front) == 1
    assert front[0].params["tlb_entries"] == 8


# ------------------------------------------------------- pareto (O(n log n))
def _brute_force_front(points):
    # Same canonical order pareto_front promises: ties on both objectives
    # break on the parameters, never on input order.
    front = [p for p in points
             if not any(q.dominates(p) for q in points if q is not p)]
    return sorted(front, key=lambda p: (p.runtime_cycles, p.luts,
                                        repr(p.parameters)))


def test_pareto_front_matches_brute_force_oracle_on_random_sets():
    import random
    rng = random.Random(20260730)
    for trial in range(200):
        n = rng.randrange(0, 40)
        points = [_point(rng.randrange(1, 20), rng.randrange(1, 20), i=i)
                  for i in range(n)]
        assert pareto_front(points) == _brute_force_front(points), \
            f"trial {trial} diverged"


def test_pareto_front_keeps_exact_duplicates_and_drops_lut_ties():
    # Equal (runtime, luts) duplicates dominate nothing and stay; a point
    # with equal runtime but more LUTs is dominated.
    dup_a, dup_b = _point(10, 5, i=0), _point(10, 5, i=1)
    fat = _point(10, 7, i=2)
    slower_smaller = _point(20, 3, i=3)
    front = pareto_front([fat, dup_a, slower_smaller, dup_b])
    assert fat not in front
    assert dup_a in front and dup_b in front and slower_smaller in front


def test_pareto_front_empty_and_singleton():
    assert pareto_front([]) == []
    only = _point(5, 5)
    assert pareto_front([only]) == [only]


def test_pareto_front_tie_order_is_input_order_independent():
    # Points equal on both objectives used to keep whatever relative order
    # the input happened to have; the front — order included — must be a
    # pure function of the point *set* (the dse oracle suite compares
    # fronts for exact equality).
    import itertools

    ties = [_point(10, 5, cfg=name) for name in ("delta", "alpha", "carol")]
    slower = _point(20, 3, cfg="zed")
    fronts = {tuple(p.params["cfg"] for p in pareto_front(list(perm)))
              for perm in itertools.permutations(ties + [slower])}
    assert fronts == {("alpha", "carol", "delta", "zed")}


# ----------------------------------------------------------- runner seam
def test_explore_with_runner_matches_serial():
    from repro.exec import MemoCache, SweepRunner

    def evaluator(spec):
        return (spec.threads[0].tlb_entries * 10 + spec.threads[0].max_burst_bytes,
                ResourceEstimate(luts=spec.threads[0].tlb_entries))

    axes = SweepAxes(tlb_entries=(8, 16, 32), max_burst_bytes=(128, 256),
                     max_outstanding=(4,), shared_walker=(False,))
    explorer = DesignSpaceExplorer(evaluator)
    serial = explorer.explore(simple_spec(), axes)
    runner = SweepRunner(jobs=4, cache=MemoCache())
    parallel = explorer.explore(simple_spec(), axes, runner=runner)
    assert parallel == serial
    assert runner.stats.points_submitted == axes.size()
    # Unpicklable local evaluator: the runner degrades to its serial path.
    assert runner.stats.parallel_batches == 0
    assert runner.stats.serial_batches >= 1


# ------------------------------------------------------- policy sweep axis
def test_policy_axis_expands_the_grid_and_marks_candidates():
    axes = SweepAxes(tlb_entries=(8,), max_burst_bytes=(128,),
                     max_outstanding=(4,), shared_walker=(False,),
                     policy=(None, "round-robin", "adaptive-fault"))
    base = simple_spec()
    explorer = DesignSpaceExplorer(lambda spec: (1, ResourceEstimate()))
    candidates = explorer.candidates(base, axes)
    assert len(candidates) == axes.size() == 3
    assert [c.scheduling_policy for c in candidates] == [
        None, "round-robin", "adaptive-fault"]


def test_policy_axis_reaches_the_evaluator_and_the_design_points():
    seen = []

    def evaluator(spec):
        seen.append(spec.scheduling_policy)
        return (1, ResourceEstimate())

    axes = SweepAxes(tlb_entries=(8,), max_burst_bytes=(128,),
                     max_outstanding=(4,), shared_walker=(False,),
                     policy=("round-robin", "miss-fair"))
    explorer = DesignSpaceExplorer(evaluator)
    points = explorer.explore(simple_spec(), axes)
    assert seen == ["round-robin", "miss-fair"]
    assert [p.params["policy"] for p in points] == ["round-robin",
                                                    "miss-fair"]
    # The default axis (policy=None) keeps params backward-compatible.
    default_points = DesignSpaceExplorer(
        lambda spec: (1, ResourceEstimate())).explore(simple_spec())
    assert all("policy" not in p.params for p in default_points)


def test_a_policy_axis_mixing_none_names_the_policy_only_where_set():
    axes = SweepAxes(tlb_entries=(8,), max_burst_bytes=(128,),
                     max_outstanding=(4,), shared_walker=(False,),
                     policy=(None, "round-robin"))
    explorer = DesignSpaceExplorer(lambda spec: (1, ResourceEstimate()))
    knobs = (("tlb_entries", 8), ("max_burst_bytes", 128),
             ("max_outstanding", 4), ("shared_walker", False),
             ("tlb_prefetch", 0), ("num_threads", 1))
    points = explorer.explore(simple_spec(), axes)
    assert [p.parameters for p in points] == [
        knobs, knobs + (("policy", "round-robin"),)]
    exploration = explorer.explore(simple_spec(), axes, explorer="exhaustive")
    assert [p.coords for p in exploration.points] == [
        tuple(sorted(knobs)),
        tuple(sorted(knobs + (("policy", "round-robin"),)))]


def test_a_base_spec_policy_is_reported_under_the_default_axis():
    base = SystemSpec(name="test",
                      threads=[ThreadSpec(name="hwt0", kernel="vecadd")],
                      scheduling_policy="miss-fair")
    axes = SweepAxes(tlb_entries=(8, 16), max_burst_bytes=(128,),
                     max_outstanding=(4,), shared_walker=(False,))
    explorer = DesignSpaceExplorer(lambda spec: (1, ResourceEstimate()))
    assert [c.scheduling_policy for c in explorer.candidates(base, axes)] == [
        "miss-fair", "miss-fair"]
    points = explorer.explore(base, axes)
    assert [p.params["policy"] for p in points] == ["miss-fair", "miss-fair"]
    assert [p.parameters[-1] for p in points] == [("policy", "miss-fair")] * 2
    exploration = explorer.explore(base, axes, explorer="exhaustive")
    assert [p.params["policy"] for p in exploration.points] == [
        "miss-fair", "miss-fair"]


def test_the_classic_call_accepts_any_runtime_resources_pair():
    # The classic call reads its points off the evaluator's payloads, so a
    # pair the objectives cannot extract (a list, no LUT count) still works.
    def evaluator(spec):
        return [spec.threads[0].tlb_entries, None]

    axes = SweepAxes(tlb_entries=(8, 16), max_burst_bytes=(128,),
                     max_outstanding=(4,), shared_walker=(False,))
    points = DesignSpaceExplorer(evaluator).explore(simple_spec(), axes)
    assert [(p.runtime_cycles, p.resources) for p in points] == [(8, None),
                                                                 (16, None)]


def _tlb_cycles(spec):
    tlb = spec.threads[0].tlb_entries
    return (tlb * 10, ResourceEstimate(luts=tlb))


def test_the_classic_call_never_reads_the_runners_results_store(tmp_path):
    # A store on the runner only records the classic grid's points; a row
    # already there (here a doctored one) is never served back.
    from repro.exec import SweepRunner
    from repro.exec.keys import stable_key
    from repro.store.results import ResultsStore

    axes = SweepAxes(tlb_entries=(8, 16), max_burst_bytes=(128,),
                     max_outstanding=(4,), shared_walker=(False,))
    explorer = DesignSpaceExplorer(_tlb_cycles)
    store = ResultsStore(tmp_path / "results.db")
    first = explorer.candidates(simple_spec(), axes)[0]
    store.record(stable_key(_tlb_cycles, first),
                 (1, ResourceEstimate(luts=1)), experiment="doctored")
    runner = SweepRunner(results=store)
    points = explorer.explore(simple_spec(), axes, runner=runner)
    assert [(p.runtime_cycles, p.luts) for p in points] == [(80, 8),
                                                            (160, 16)]
    assert runner.stats.explore_warm_hits == 0
    assert runner.stats.explore_evaluations == 2


def test_system_spec_rejects_unknown_scheduling_policy():
    import pytest
    from repro.core.spec import SystemSpec, ThreadSpec
    with pytest.raises(ValueError):
        SystemSpec(name="bad", threads=[ThreadSpec(name="t", kernel="vecadd")],
                   scheduling_policy="no-such-policy")
    spec = SystemSpec(name="ok", threads=[ThreadSpec(name="t", kernel="vecadd")],
                      scheduling_policy="adaptive-fault")
    assert spec.scheduling_policy == "adaptive-fault"


def test_policy_axis_drives_a_multiprocess_evaluation_end_to_end():
    # The axis is explorable against real contention runs: the evaluator
    # builds a MultiProcessSpec from the candidate's scheduling policy.
    from repro.eval.harness import HarnessConfig, run_multiprocess
    from repro.workloads import contention

    def evaluator(spec):
        mp = contention(["vecadd", "vecadd"], scale="tiny",
                        policy=spec.scheduling_policy or "round-robin")
        result = run_multiprocess(mp, HarnessConfig(
            tlb_entries=spec.threads[0].tlb_entries))
        return result.total_cycles, ResourceEstimate()

    axes = SweepAxes(tlb_entries=(16,), max_burst_bytes=(256,),
                     max_outstanding=(4,), shared_walker=(False,),
                     policy=("round-robin", "adaptive-fault"))
    points = DesignSpaceExplorer(evaluator).explore(simple_spec(), axes)
    assert len(points) == 2
    assert all(p.runtime_cycles > 0 for p in points)
    assert {p.params["policy"] for p in points} == {"round-robin",
                                                    "adaptive-fault"}
