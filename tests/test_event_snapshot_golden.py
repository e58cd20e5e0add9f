"""Golden data: the event tier's full statistics dump, key by key.

``experiments_golden.json`` pins only the series and objectives the
experiments report, and ``test_differential_models.py`` compares the two
tiers only where the replay tier can run.  Neither sees the rest of an
event-tier run's statistics: a drift in ``bus.latency_for.*.max`` or a
counter that appears at zero would pass both.  This suite pins the whole
``SVMResult.system_result.stats`` snapshot (every key, exact values) of
four event-tier runs, and the telemetry epochs of the one that has them:
an adaptive multi-process fig14 candidate, a fault-heavy single-process
run, and one fig5 point under each non-default bus arbiter.  The fig5 point
runs on two hardware threads: on one thread all three arbiters give
identical statistics, so the point would not tell them apart.  The replay
tier must reproduce the first two records exactly, faults, adaptive slices
and telemetry epochs included; the fig5 points stay event-only.

Regenerate with ``--update-golden`` (see ``tests/README.md``).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.platform import PlatformConfig
from repro.eval import harness
from repro.eval.experiments import _fig14_point
from repro.eval.harness import HarnessConfig, run_svm
from repro.workloads.suite import workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "event_snapshots.json"

#: A fig14 candidate with everything the replay tier serves on top of
#: plain replay switched on: adaptive scheduling, demand faults (half
#: residency), a shared walker, prefetching and (always in fig14) the host
#: CPU sharing the fabric TLB.
FIG14_CANDIDATE = {"tlb_entries": 16, "tlb_associativity": 2,
                   "max_outstanding": 4, "max_burst_bytes": 128,
                   "shared_walker": True, "tlb_prefetch": 2,
                   "policy": "miss-fair", "processes": 3, "quantum": 10_000}


def _fig14_candidate(monkeypatch, tier="event"):
    runs = []
    real = harness.run_multiprocess

    def spy(*args, **kwargs):
        runs.append(real(*args, **{**kwargs, "tier": tier}))
        return runs[-1]

    monkeypatch.setattr(harness, "run_multiprocess", spy)
    _fig14_point(FIG14_CANDIDATE, scale="tiny", fraction=0.25)
    assert len(runs) == 1
    return runs[0]


def _half_resident(monkeypatch, tier="event"):
    return run_svm(workload("random_access", scale="tiny", residency=0.5),
                   HarnessConfig(tlb_entries=8), tier=tier)


def _fig5_point(arbiter):
    def run(monkeypatch):
        config = HarnessConfig(platform=PlatformConfig(arbiter=arbiter),
                               tlb_entries=8, tlb_replacement="lru")
        return run_svm(workload("random_access", scale="tiny"), config,
                       num_threads=2, tier="event")
    return run


CASES = {
    "fig14_candidate_quarter": _fig14_candidate,
    "single_process_residency_half": _half_resident,
    "fig5_fixed_priority": _fig5_point("fixed_priority"),
    "fig5_weighted": _fig5_point("weighted"),
}

#: The cases the replay tier serves (two threads and other arbiters stay
#: event-only).
REPLAYABLE = {name: CASES[name] for name in ("fig14_candidate_quarter",
                                             "single_process_residency_half")}


def _record(result):
    telemetry = result.telemetry
    return _roundtrip({
        "total_cycles": result.total_cycles,
        "stats": result.system_result.stats,
        "epochs": (None if telemetry is None else
                   [dataclasses.asdict(epoch) for epoch in telemetry.epochs]),
    })


def _roundtrip(value):
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-golden"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            data = {name: _record(case(monkeypatch))
                    for name, case in sorted(CASES.items())}
        GOLDEN_PATH.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
        return data
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_snapshot_matches_golden(name, golden, monkeypatch):
    result = CASES[name](monkeypatch)
    assert result.tier == "event"
    assert _record(result) == golden[name]


@pytest.mark.parametrize("name", sorted(REPLAYABLE))
def test_replay_reproduces_event_snapshot(name, golden, monkeypatch):
    result = REPLAYABLE[name](monkeypatch, tier="replay")
    assert result.tier == "replay"
    assert _record(result) == golden[name]


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)


def test_golden_runs_exercise_what_they_claim(golden):
    fig14 = golden["fig14_candidate_quarter"]
    assert fig14["epochs"]
    assert fig14["stats"]["mmu.hwt0.prefetches_issued"] > 0
    assert "ptw.shared.walks_completed" in fig14["stats"]
    assert golden["single_process_residency_half"]["stats"][
        "mmu.hwt0.faults"] > 0
    # The two arbiters must actually reorder grants, or one case is moot.
    assert (golden["fig5_fixed_priority"]["stats"]
            != golden["fig5_weighted"]["stats"])
