"""Golden data: the replay engine's schedule, run by run.

The differential suite compares the replay tier's statistics with the event
tier's, and ``test_fastpath.py::TestReplayEvents`` checks that every event
``ReplayOutput.events`` counts is dispatched once.  Neither pins the schedule
itself: a restructured dispatch loop that pushes one event more, drops one,
or moves the last one keeps every statistic.  This suite pins ``(events,
finish, last_cycle)`` of every ``replay_fabric`` call in 34 replay-tier
runs: fig5's grid at tiny scale, matmul and vecadd at default scale with 8
TLB entries (the deepest event queues of fig5's kernels, so an event
scheduled last most often meets another event of its cycle there), FIFO and
random replacement, prefetching, operations split into several chunks, more
operations in flight than the bus lets one master have, demand faults, and
a two-process contention under a static and an adaptive policy.  Between
them they reach every branch of the dispatch loop: the bus grant after each
event kind, the TLB fill of demand and prefetch walks, and the clean-hit
probe of the next chunk and of a stalled operation.

Regenerate with ``--update-golden`` (see ``tests/README.md``).
"""

import json
from pathlib import Path

import pytest

from repro.eval.harness import HarnessConfig, run_multiprocess, run_svm
from repro.fastpath import clear_program_cache, replay
from repro.workloads.multiprocess import contention
from repro.workloads.suite import workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "replay_schedule.json"

#: fig5's default grid.
FIG5_KERNELS = ("vecadd", "matmul", "linked_list", "random_access")
FIG5_TLB_SIZES = (4, 8, 16, 32, 64, 128)


def _svm(kernel, residency=1.0, scale="tiny", **config):
    return lambda: run_svm(workload(kernel, scale=scale, residency=residency),
                           HarnessConfig(**config), tier="replay")


def _contention(policy):
    # At the default 20,000-cycle quantum each process runs in one slice
    # under either policy; at 2,000 round-robin switches 7 times and
    # miss-fair, adapting to the measured misses, 4 times.
    return lambda: run_multiprocess(
        contention(["random_access", "vecadd"], scale="tiny", residency=0.5,
                   policy=policy, quantum=2_000),
        HarnessConfig(host_shares_tlb=True), tier="replay")


CASES = {
    **{f"fig5_{kernel}_tlb{entries}": _svm(kernel, tlb_entries=entries)
       for kernel in FIG5_KERNELS for entries in FIG5_TLB_SIZES},
    "fig5_default_matmul_tlb8": _svm("matmul", scale="default", tlb_entries=8),
    "fig5_default_vecadd_tlb8": _svm("vecadd", scale="default", tlb_entries=8),
    "random_access_fifo": _svm("random_access", tlb_entries=16,
                               tlb_replacement="fifo"),
    "random_access_random": _svm("random_access", tlb_entries=16,
                                 tlb_replacement="random"),
    "vecadd_prefetch2": _svm("vecadd", tlb_prefetch=2),
    # Bursts of 64 bytes split operations into several chunks, so the next
    # chunk issues from the completion of the one before.
    "matmul_burst64": _svm("matmul", max_burst_bytes=64),
    # Sixteen operations in flight outrun the bus's eight requests per
    # master, so a DRAM completion on an idle bus grants a queued request.
    "matmul_outstanding16": _svm("matmul", max_outstanding=16),
    "linked_list_residency_half": _svm("linked_list", residency=0.5),
    "contention_round_robin": _contention("round-robin"),
    "contention_miss_fair": _contention("miss-fair"),
}


def _schedule(case, monkeypatch):
    """Run ``case`` and return ``[events, finish, last_cycle]`` of each
    replay it makes.

    The caches are emptied first, so a case whose capacity class an earlier
    case stored still replays instead of being served.
    """
    clear_program_cache()
    outputs = []
    real = replay.replay_fabric

    def spy(program, ctx):
        outputs.append(real(program, ctx))
        return outputs[-1]

    monkeypatch.setattr(replay, "replay_fabric", spy)
    result = case()
    assert result.tier == "replay"
    return [[out.events, out.finish, out.last_cycle] for out in outputs]


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-golden"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            data = {name: _schedule(case, monkeypatch)
                    for name, case in sorted(CASES.items())}
        GOLDEN_PATH.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
        return data
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_schedule_matches_golden(name, golden, monkeypatch):
    assert _schedule(CASES[name], monkeypatch) == golden[name]


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)
    assert all(len(records) == 1 for records in golden.values())
