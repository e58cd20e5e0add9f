"""Oracle suite for the adaptive DSE explorers (``repro.dse``).

The contract pinned here: on fidelity-consistent ladders — every cheap
rung's objectives a strictly monotone transform of the full-fidelity ones —
successive halving with a sufficient budget recovers the exhaustive Pareto
front *bit-exactly*; under any budget it never exceeds the cap and the same
seed replays the identical evaluation sequence; and rows adopted from a
results store (warm starts) are never re-dispatched.  The synthetic oracle
is hypothesis-randomized; a pinned real fig14 sub-space plus a differential
re-run of its front against the raw stats-registry counters then ties the
oracle to the actual telemetry plumbing.
"""

import functools
import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dse import DesignSpaceExplorer, SweepAxes, pareto_front
from repro.core.resources import ResourceEstimate
from repro.core.spec import SystemSpec, ThreadSpec
from repro.dse import (BudgetExhaustedError, DesignSpace, DseObjectives,
                       Exploration, ExplorationPoint, FidelityRung,
                       SuccessiveHalvingExplorer, evaluation_metrics,
                       explorer_names, get_explorer, pareto_points)
from repro.exec import SweepRunner, stable_key
from repro.store import ResultsStore

OBJ = DseObjectives(("cycles", "luts"))


# ---------------------------------------------------------------------------
# Synthetic spaces
# ---------------------------------------------------------------------------
def _hash_eval(candidate, factor=1):
    """Deterministic synthetic objectives (module-level: content-addressable,
    so warm-start keys and runner memo keys both work)."""
    basis = sum((i + 1) * int(v)
                for i, (_, v) in enumerate(sorted(candidate.items())))
    return {"cycles": factor * ((basis * 7919) % 23),
            "luts": factor * ((basis * 104729 + 5) % 19)}


HASH_AXES = {"tlb": (0, 1, 2, 3), "burst": (0, 1, 2), "walker": (0, 1)}


def _hash_space(factors=(1, 10)):
    """24-candidate space whose cheap rung is full-values scaled by 1/10."""
    ladder = tuple(
        FidelityRung(f"x{factor}", functools.partial(_hash_eval,
                                                     factor=factor))
        for factor in factors)
    return DesignSpace.from_axes(HASH_AXES, ladder)


def _table_space(axes, table, scales=(1, 7)):
    """Space over ``axes`` whose full-fidelity objectives come from
    ``table`` (one (cycles, luts) pair per candidate, in grid order) and
    whose cheaper rungs are monotone scalings of them."""
    names = list(axes)
    index = {}
    for i, values in enumerate(itertools.product(*(axes[n] for n in names))):
        index[tuple(sorted(zip(names, values)))] = table[i]

    def rung(scale):
        def evaluate(candidate):
            cycles, luts = index[tuple(sorted(candidate.items()))]
            return {"cycles": scale * cycles, "luts": scale * luts}
        return FidelityRung(f"scale{scale}", evaluate)

    return DesignSpace.from_axes(axes, tuple(rung(s) for s in scales))


@st.composite
def synthetic_spaces(draw):
    """Small randomized grids with heavily tie-prone objective tables."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=3),
                          min_size=1, max_size=3))
    axes = {f"k{i}": tuple(range(n)) for i, n in enumerate(sizes)}
    total = math.prod(sizes)
    table = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          min_size=total, max_size=total))
    return axes, table


def _front_key(exploration):
    return [(p.coords, p.values) for p in exploration.front]


# ---------------------------------------------------------------------------
# Index decoding: candidates are built on demand, in product order
# ---------------------------------------------------------------------------
@st.composite
def small_axes(draw):
    """1-4 axes of 1-4 integer values each (repeats allowed)."""
    count = draw(st.integers(min_value=1, max_value=4))
    return {f"a{k}": tuple(draw(st.lists(st.integers(-3, 3), min_size=1,
                                         max_size=4)))
            for k in range(count)}


@given(axes=small_axes(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_index_decoding_matches_the_product_enumeration(axes, data):
    space = DesignSpace.from_axes(axes, (FidelityRung("full", _hash_eval),))
    expected = [dict(zip(axes, values))
                for values in itertools.product(*axes.values())]
    assert space.size() == len(expected)
    candidates = [space.candidate(i) for i in range(space.size())]
    assert candidates == expected
    assert all(list(c) == list(axes) for c in candidates)
    for i, candidate in enumerate(expected):
        assert space.coords(i) == tuple(sorted(candidate.items()))
    outside = data.draw(st.one_of(st.integers(max_value=-1),
                                  st.integers(min_value=space.size())))
    with pytest.raises(IndexError):
        space.candidate(outside)
    with pytest.raises(IndexError):
        space.coords(outside)


# ---------------------------------------------------------------------------
# Oracle: halving recovers the exhaustive front bit-exactly
# ---------------------------------------------------------------------------
class TestOracleFrontRecovery:
    @given(case=synthetic_spaces(), seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_sufficient_budget_recovers_exhaustive_front(self, case, seed):
        axes, table = case
        space = _table_space(axes, table)
        exhaustive = get_explorer("exhaustive").explore(space, objectives=OBJ)
        budget = len(space.ladder) * space.size()   # never subsamples
        adaptive = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=budget, seed=seed)
        assert _front_key(adaptive) == _front_key(exhaustive)

    @given(case=synthetic_spaces(), seed=st.integers(0, 2**16),
           data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_budget_is_a_hard_cap_and_seed_replays_the_log(self, case, seed,
                                                           data):
        axes, table = case
        space = _table_space(axes, table)
        budget = data.draw(st.integers(min_value=len(space.ladder),
                                       max_value=2 * space.size()))
        first = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=budget, seed=seed)
        again = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=budget, seed=seed)
        assert first.evaluations <= budget
        assert len(first.log) == first.evaluations
        assert first.log == again.log
        assert _front_key(first) == _front_key(again)

    @pytest.mark.parametrize("margin", [0.0, 0.5, 1.0, 3.0])
    def test_margin_never_changes_an_unsampled_front(self, margin):
        # Every true-front candidate is on every round's front under a
        # monotone ladder, so it survives regardless of the margin.
        space = _hash_space()
        exhaustive = get_explorer("exhaustive").explore(space, objectives=OBJ)
        adaptive = SuccessiveHalvingExplorer(margin=margin).explore(
            space, objectives=OBJ, budget=len(space.ladder) * space.size())
        assert _front_key(adaptive) == _front_key(exhaustive)

    def test_unlimited_budget_matches_exhaustive(self):
        space = _hash_space()
        adaptive = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=None)
        exhaustive = get_explorer("exhaustive").explore(space, objectives=OBJ)
        assert _front_key(adaptive) == _front_key(exhaustive)
        # Trusted points are full-fidelity only.
        assert all(p.fidelity == space.full.name for p in adaptive.points)

    def test_three_rung_ladder_recovers_the_front_too(self):
        space = _hash_space(factors=(1, 3, 9))
        exhaustive = get_explorer("exhaustive").explore(space, objectives=OBJ)
        adaptive = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=3 * space.size())
        assert _front_key(adaptive) == _front_key(exhaustive)


# ---------------------------------------------------------------------------
# Budget errors, registry, bookkeeping
# ---------------------------------------------------------------------------
class TestBudgetsAndRegistry:
    def test_exhaustive_raises_when_budget_cannot_cover_the_pool(self):
        space = _hash_space()
        with pytest.raises(BudgetExhaustedError):
            get_explorer("exhaustive").explore(space, objectives=OBJ,
                                               budget=space.size() - 1)

    def test_halving_raises_when_budget_is_below_the_ladder_depth(self):
        space = _hash_space()        # two rungs
        with pytest.raises(BudgetExhaustedError):
            get_explorer("successive-halving").explore(space, objectives=OBJ,
                                                       budget=1)

    def test_registry_lists_both_backends(self):
        assert explorer_names() == ["exhaustive", "successive-halving"]

    def test_get_explorer_rejects_unknowns_and_passes_instances_through(self):
        with pytest.raises(KeyError, match="successive-halving"):
            get_explorer("simulated-annealing")
        backend = SuccessiveHalvingExplorer()
        assert get_explorer(backend) is backend
        with pytest.raises(TypeError):
            get_explorer(42)

    def test_negative_margin_is_rejected(self):
        with pytest.raises(ValueError):
            SuccessiveHalvingExplorer(margin=-0.1)

    def test_as_dict_summarizes_the_exploration(self):
        space = _hash_space()
        budget = 2 * space.size()
        summary = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=budget).as_dict()
        assert summary["objectives"] == ["cycles", "luts"]
        assert summary["space_size"] == space.size()
        assert summary["budget"] == budget
        assert summary["explored_fraction"] == round(
            summary["evaluations"] / space.size(), 6)
        assert [r["fidelity"] for r in summary["rounds"]] == ["x1", "x10"]
        for row in summary["front"]:
            assert set(row) == {"params", "source", "cycles", "luts"}


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------
class TestObjectives:
    def test_axes_must_be_nonempty_and_unique(self):
        with pytest.raises(ValueError):
            DseObjectives(())
        with pytest.raises(ValueError):
            DseObjectives(("cycles", "cycles"))

    def test_missing_axis_names_the_axis(self):
        with pytest.raises(KeyError, match="fairness"):
            DseObjectives(("cycles", "fairness")).extract({"cycles": 1})

    def test_fairness_is_maximized(self):
        objectives = DseObjectives(("cycles", "fairness"))
        fair = ExplorationPoint((("i", 0),), (100, 0.9), "full")
        unfair = ExplorationPoint((("i", 1),), (100, 0.5), "full")
        assert objectives.dominates(fair.values, unfair.values)
        assert not objectives.dominates(unfair.values, fair.values)
        assert pareto_points([unfair, fair], objectives) == [fair]

    def test_extract_aliases_total_cycles_to_cycles(self):
        values = OBJ.extract({"total_cycles": 123, "luts": 4})
        assert values == (123, 4)

    def test_metrics_from_legacy_runtime_resources_tuple(self):
        metrics = evaluation_metrics((456, ResourceEstimate(luts=7,
                                                            bram_kb=1.5)))
        assert metrics["cycles"] == 456
        assert metrics["luts"] == 7
        assert metrics["bram_kb"] == 1.5

    def test_metrics_from_outcome_derive_telemetry_objectives(self):
        outcome = SimpleNamespace(
            total_cycles=2000, fabric_cycles=1500, tlb_misses=9, faults=2,
            breakdown={"miss_stall_cycles": 40, "epochs": 3,
                       "host_tlb_refills": 6, "epoch_fairness": 0.75})
        metrics = evaluation_metrics(outcome)
        assert metrics["cycles"] == 2000
        assert metrics["miss_stall_cycles"] == 40
        assert metrics["host_refill_rate"] == 1000.0 * 6 / 2000
        assert metrics["fairness"] == 0.75

    def test_metrics_reject_unrecognized_payloads(self):
        with pytest.raises(TypeError):
            evaluation_metrics("not an evaluation")


# ---------------------------------------------------------------------------
# Warm starts from the results store
# ---------------------------------------------------------------------------
def _seed_store(store, space, indices):
    full = space.full.evaluator
    for i in indices:
        store.record(stable_key(full, space.candidate(i)),
                     full(space.candidate(i)), experiment="seed",
                     coords=dict(space.coords(i)))


class TestWarmStart:
    def test_store_rows_are_adopted_and_never_redispatched(self, tmp_path):
        space = _hash_space()
        store = ResultsStore(tmp_path / "results.db")
        seeded = (0, 5, 11)
        _seed_store(store, space, seeded)
        exploration = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=2 * space.size(), results=store)
        assert exploration.warm_hits == 3
        warm_coords = {space.coords(i) for i in seeded}
        assert warm_coords.isdisjoint(c for _, c in exploration.log)
        assert ({p.coords for p in exploration.points
                 if p.source == "warm-start"} == warm_coords)
        cold = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=2 * space.size())
        assert _front_key(exploration) == _front_key(cold)

    def test_fully_seeded_store_needs_zero_budget(self, tmp_path):
        space = _hash_space()
        store = ResultsStore(tmp_path / "results.db")
        _seed_store(store, space, range(space.size()))
        for name in explorer_names():
            exploration = get_explorer(name).explore(
                space, objectives=OBJ, budget=0, results=store)
            assert exploration.evaluations == 0
            assert exploration.warm_hits == space.size()
            assert _front_key(exploration) == _front_key(
                get_explorer("exhaustive").explore(space, objectives=OBJ))

    def test_rows_from_other_package_versions_are_ignored(self, tmp_path,
                                                          monkeypatch):
        space = _hash_space()
        store = ResultsStore(tmp_path / "results.db")
        _seed_store(store, space, range(space.size()))
        monkeypatch.setattr("repro.__version__", "0.0.0+stale")
        exploration = get_explorer("exhaustive").explore(
            space, objectives=OBJ, results=store)
        assert exploration.warm_hits == 0
        assert exploration.evaluations == space.size()

    def test_non_addressable_evaluators_disable_warm_start_cleanly(
            self, tmp_path):
        store = ResultsStore(tmp_path / "results.db")
        space = DesignSpace.from_axes(
            {"k": (0, 1, 2)},
            (FidelityRung("full", lambda c: {"cycles": c["k"], "luts": 1}),))
        exploration = get_explorer("exhaustive").explore(
            space, objectives=OBJ, results=store)
        assert exploration.warm_hits == 0
        assert exploration.evaluations == 3

    def test_runner_recorded_results_warm_start_the_next_exploration(
            self, tmp_path):
        space = _hash_space()
        store = ResultsStore(tmp_path / "results.db")
        runner = SweepRunner(results=store)
        first = get_explorer("successive-halving").explore(
            space, objectives=OBJ, runner=runner, budget=2 * space.size(),
            results=store)
        full_evals = {c for rung, c in first.log if rung == space.full.name}
        assert runner.stats.explore_evaluations == first.evaluations
        again = get_explorer("successive-halving").explore(
            space, objectives=OBJ, budget=2 * space.size(), results=store)
        assert again.warm_hits == len(full_evals)
        assert {c for _, c in again.log}.isdisjoint(full_evals)
        assert _front_key(again) == _front_key(first)


# ---------------------------------------------------------------------------
# Runner budget accounting
# ---------------------------------------------------------------------------
class TestRunnerAccounting:
    def test_runner_stats_mirror_the_exploration(self):
        runner = SweepRunner()
        space = _hash_space()
        exploration = get_explorer("successive-halving").explore(
            space, objectives=OBJ, runner=runner, budget=2 * space.size())
        assert runner.stats.explore_evaluations == exploration.evaluations
        assert runner.stats.explore_warm_hits == 0
        summary = runner.stats.as_dict()
        assert summary["explore_evaluations"] == exploration.evaluations
        assert summary["explore_warm_hits"] == 0

    def test_runner_and_serial_paths_agree(self):
        space = _hash_space()
        serial = get_explorer("exhaustive").explore(space, objectives=OBJ)
        threaded = get_explorer("exhaustive").explore(
            space, objectives=OBJ, runner=SweepRunner(jobs=2))
        assert _front_key(serial) == _front_key(threaded)
        assert serial.log == threaded.log


# ---------------------------------------------------------------------------
# Core DSE integration (the classic grid and the adaptive path agree)
# ---------------------------------------------------------------------------
def _spec_eval(spec):
    thread = spec.threads[0]
    runtime = (thread.tlb_entries * 11 + thread.max_burst_bytes
               + (37 if spec.shared_walker else 0))
    luts = 4 * thread.tlb_entries + (64 if spec.shared_walker else 128)
    return runtime, ResourceEstimate(luts=luts)


CORE_AXES = SweepAxes(tlb_entries=(8, 16, 32), max_burst_bytes=(64, 256),
                      max_outstanding=(2,), shared_walker=(False, True),
                      tlb_prefetch=(0,))


def _core_base():
    return SystemSpec(name="oracle",
                      threads=[ThreadSpec(name="hwt0", kernel="vecadd")])


class TestCoreExplorerIntegration:
    def test_adaptive_exhaustive_matches_the_legacy_grid_bit_for_bit(self):
        explorer = DesignSpaceExplorer(_spec_eval)
        legacy = explorer.explore(_core_base(), CORE_AXES)
        adaptive = explorer.explore(_core_base(), CORE_AXES,
                                    explorer="exhaustive")
        assert isinstance(adaptive, Exploration)
        assert ([p.values for p in adaptive.points]
                == [(pt.runtime_cycles, pt.luts) for pt in legacy])
        assert ([p.coords for p in adaptive.points]
                == [tuple(sorted(pt.parameters)) for pt in legacy])
        legacy_front = {(tuple(sorted(pt.parameters)),
                         (pt.runtime_cycles, pt.luts))
                        for pt in pareto_front(legacy)}
        assert set(_front_key(adaptive)) == legacy_front

    def test_budgeted_halving_through_the_core_api(self):
        explorer = DesignSpaceExplorer(_spec_eval)
        budget = CORE_AXES.size() // 2
        exploration = explorer.explore(_core_base(), CORE_AXES,
                                       explorer="successive-halving",
                                       budget=budget, seed=3)
        assert exploration.evaluations <= budget
        assert exploration.front      # something survives

    def test_core_budget_overrun_raises(self):
        explorer = DesignSpaceExplorer(_spec_eval)
        with pytest.raises(BudgetExhaustedError):
            explorer.explore(_core_base(), CORE_AXES, explorer="exhaustive",
                             budget=3)


# ---------------------------------------------------------------------------
# Pinned real space: fig14 telemetry objectives, end to end
# ---------------------------------------------------------------------------
#: Small-but-real corner of the fig14 space (8 candidates, every policy
#: adaptive so telemetry objectives are always defined).
FIG14_PINNED_AXES = {
    "tlb_entries": (8, 32),
    "tlb_associativity": (4,),
    "max_outstanding": (4,),
    "max_burst_bytes": (256,),
    "shared_walker": (False,),
    "tlb_prefetch": (0, 1),
    "policy": ("adaptive-fault", "miss-fair"),
    "processes": (2,),
    "quantum": (5_000,),
}


@pytest.fixture(scope="module")
def fig14_pinned():
    from repro.eval import experiments as exp
    adaptive = exp.fig14_adaptive_dse(axes=FIG14_PINNED_AXES, budget=24,
                                      seed=0)
    exhaustive = exp.fig14_adaptive_dse(axes=FIG14_PINNED_AXES,
                                        explorer="exhaustive", budget=None)
    return adaptive, exhaustive


class TestFig14Pinned:
    def test_default_space_is_large_and_the_budget_is_tiny(self):
        from repro.eval.experiments import EXPERIMENTS, FIG14_AXES
        size = math.prod(len(v) for v in FIG14_AXES.values())
        assert size >= 100_000
        budget = EXPERIMENTS["fig14"].defaults["budget"]
        assert budget <= 0.05 * size

    def test_halving_recovers_the_exhaustive_front_on_a_real_space(
            self, fig14_pinned):
        adaptive, exhaustive = fig14_pinned
        assert adaptive["front"] == exhaustive["front"]
        assert adaptive["evaluations"] <= adaptive["budget"]
        assert exhaustive["evaluations"] == 8

    def test_front_objectives_agree_with_a_direct_rerun(self, fig14_pinned):
        # Differential oracle: every telemetry-derived objective on the
        # front must equal what the raw stats registry + telemetry trace of
        # an independent re-run of that candidate report.
        from repro.eval.harness import HarnessConfig, run_multiprocess
        from repro.os.telemetry import epoch_fairness
        from repro.sim.stats import sum_matching
        from repro.workloads.multiprocess import MultiProcessSpec
        from repro.workloads.suite import workload

        adaptive, _ = fig14_pinned
        assert adaptive["front"], "pinned space must yield a front"
        for row in adaptive["front"]:
            params = row["params"]
            count = params["processes"]
            specs = [workload("random_access", scale="tiny", residency=0.5,
                              seed=7)]
            specs += [workload("vecadd", scale="tiny", residency=0.5,
                               seed=11 + i) for i in range(count - 1)]
            mp = MultiProcessSpec(name=f"fig14-{count}p", specs=tuple(specs),
                                  quantum=params["quantum"],
                                  policy=params["policy"])
            config = HarnessConfig(
                tlb_entries=params["tlb_entries"],
                tlb_associativity=params["tlb_associativity"],
                max_outstanding=params["max_outstanding"],
                max_burst_bytes=params["max_burst_bytes"],
                shared_walker=params["shared_walker"],
                tlb_prefetch=params["tlb_prefetch"],
                host_shares_tlb=True)
            result = run_multiprocess(mp, config, flush_on_switch=False)
            snapshot = result.system_result.stats
            assert row["cycles"] == result.total_cycles
            assert row["miss_stall_cycles"] == sum_matching(
                snapshot, "mmu.", "miss_latency.total")
            refills = result.telemetry.totals()["host_tlb_refills"]
            assert refills == snapshot.get("os.kernel.host_tlb_refills", 0)
            assert row["host_refill_rate"] == (1000.0 * refills
                                               / result.total_cycles)
            assert row["fairness"] == epoch_fairness(result.telemetry)
