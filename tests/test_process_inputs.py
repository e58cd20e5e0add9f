"""The per-process input store and the bisected chunk rule.

A multi-process run measures each process once per (workload spec, page
size): its drained op list, the prefix sums the scheduler cuts slices with,
and its demand and pressure estimates.  They live beside the replay programs
in ``repro.fastpath.record``, under the programs' LRU order and op budget,
and both tiers read them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import harness
from repro.eval.experiments import fig14_adaptive_dse
from repro.eval.harness import HarnessConfig, run_multiprocess
from repro.exec.runner import SweepRunner
from repro.fastpath import record
from repro.fastpath.record import clear_program_cache, record_stats
from repro.sim.process import Access, Burst, Compute, Fence
from repro.workloads import MultiProcessSpec, contention, workload
from repro.workloads.multiprocess import (ProcessInputs, _op_demand,
                                          _take_chunk)

from test_differential_models import assert_svm_results_equal


# ---------------------------------------------------------------------------
# The chunk rule
# ---------------------------------------------------------------------------
def linear_take_chunk(ops, cursor, budget):
    """The chunk rule as the linear loop it was before it bisected."""
    chunk = []
    while cursor < len(ops) and budget > 0:
        op = ops[cursor]
        chunk.append(op)
        budget -= max(1, _op_demand(op))
        cursor += 1
    return chunk, cursor


operations = st.one_of(
    st.builds(Compute, cycles=st.integers(0, 300)),
    st.builds(Access, addr=st.integers(0, 1 << 20),
              size=st.sampled_from((0, 1, 4, 8, 64)), is_write=st.booleans()),
    st.builds(Burst, addr=st.integers(0, 1 << 20), count=st.integers(0, 64),
              size=st.sampled_from((1, 4, 8)), is_write=st.booleans()),
    st.builds(Fence))


@settings(max_examples=400, deadline=None)
@given(ops=st.lists(operations, max_size=40), data=st.data())
def test_bisected_chunk_matches_the_linear_rule(ops, data):
    inputs = ProcessInputs.of(ops)
    cursor = data.draw(st.integers(0, len(ops)), label="cursor")
    remaining = inputs.prefix[-1] - inputs.prefix[cursor]
    budget = data.draw(st.integers(-5, remaining + 5), label="budget")
    end = _take_chunk(inputs, cursor, budget)
    assert (ops[cursor:end], end) == linear_take_chunk(ops, cursor, budget)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
@pytest.fixture
def drained(monkeypatch):
    """Every kernel the harness drains, seen at its ``run_functional``."""
    kernels = []
    real = harness.run_functional
    monkeypatch.setattr(harness, "run_functional",
                        lambda kernel: kernels.append(kernel) or real(kernel))
    return kernels


def test_a_fig14_exploration_drains_each_process_spec_once(drained):
    """24 evaluations schedule 18 distinct processes: ``random_access`` seed
    7 and ``vecadd`` seeds 11-15, each at three fidelities.  Each is drained
    once, and its programs are lowered from the stored list."""
    clear_program_cache()
    before = dict(record_stats)
    exploration = fig14_adaptive_dse(
        scale="tiny", explorer="successive-halving", budget=24, seed=7,
        runner=SweepRunner(jobs=1, cache=None))
    assert exploration["evaluations"] == 24
    assert len(drained) == 18
    assert record_stats["records"] - before["records"] == 60
    assert record_stats["reuses"] - before["reuses"] == 36


def test_neither_tier_mutates_a_stored_op_list():
    mp = contention(["random_access", "vecadd"], scale="tiny", quantum=2000,
                    policy="miss-fair", residency=0.5, accesses=512, n=1024)
    config = HarnessConfig(tlb_entries=16, host_shares_tlb=True)
    page_size = config.platform.page_size
    clear_program_cache()
    for tier in ("event", "replay"):
        assert run_multiprocess(mp, config, tier=tier).tier == tier
    *_, bound = harness._build_mp_system(mp, config)
    for workload_, fresh in zip(bound, harness._functional_ops(bound)):
        stored = record.process_inputs(
            workload_.spec, page_size,
            lambda: pytest.fail("the run did not store its inputs"))
        assert stored.ops == fresh
        assert stored == ProcessInputs.of(fresh, page_size)


@pytest.mark.parametrize("policy", ("round-robin", "miss-fair"))
def test_processes_sharing_one_spec_share_one_op_list(policy):
    """Two processes of one spec object read one stored list, each through
    its own cursor, and still replay exactly as the event tier runs them,
    cold or warm."""
    spec = workload("random_access", scale="tiny", residency=0.5,
                    accesses=512)
    mp = MultiProcessSpec(name="twins", specs=(spec, spec), quantum=2000,
                          policy=policy)
    config = HarnessConfig(tlb_entries=16, host_shares_tlb=True)
    clear_program_cache()
    cold = run_multiprocess(mp, config, tier="replay")
    stored = [entry for entry in record._programs.values()
              if isinstance(entry, ProcessInputs)]
    assert len(stored) == 1
    warm = run_multiprocess(mp, config, tier="replay")
    assert cold.tier == warm.tier == "replay"
    assert cold.context_switches > 0
    assert_svm_results_equal(cold, warm)
    assert_svm_results_equal(run_multiprocess(mp, config, tier="event"),
                             warm)


def test_inputs_share_the_program_budget_and_clear(monkeypatch):
    """Op lists and programs are evicted least recently used first from one
    op budget; only programs count in ``record_stats``, and
    ``clear_program_cache`` empties both."""
    monkeypatch.setattr(record, "_CACHE_OPS", 10)
    spec_a = workload("vecadd", scale="tiny", n=64)
    spec_b = workload("vecadd", scale="tiny", n=128)

    def inputs(spec, ops=4):
        return record.process_inputs(
            spec, 4096, lambda: ProcessInputs.of([Compute(cycles=1)] * ops))

    def program(key, ops):
        return record._cached_program(key, lambda: [("op",)] * ops)

    clear_program_cache()
    try:
        before = dict(record_stats)
        first = inputs(spec_a)
        program("p", 4)
        assert inputs(spec_a) is first          # a hit: now most recent
        inputs(spec_b)                          # 12 > 10: evicts "p"
        assert "p" not in record._programs
        assert len(record._programs) == 2
        program("q", 6)                         # 14 > 10: evicts spec_a's
        assert inputs(spec_a) is not first
        assert record_stats["records"] - before["records"] == 2
        assert record_stats["reuses"] == before["reuses"]
        clear_program_cache()
        assert not record._programs
    finally:
        clear_program_cache()
