"""Unit tests for the two-tier record/replay subsystem.

The differential suite (``test_differential_models.py``) pins the headline
guarantee — replay results equal event-simulator results exactly.  These
tests cover the mechanisms underneath: stream recording (functional and
live), the content-keyed program cache, tier selection plumbing through
jobs/runner/harness, and that the replay tier runs on the standard library
alone.
"""

import dataclasses
import heapq
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.platform import PlatformConfig
from repro.eval import harness
from repro.eval.harness import (HarnessConfig, _build_svm_system,
                                run_multiprocess, run_svm)
from repro.exec.jobs import ExperimentJob, run_job
from repro.exec.runner import SweepRunner
from repro.fastpath import engine, record, replay
from repro.fastpath.engine import ReplayFault
from repro.fastpath.record import clear_program_cache, record_stats
from repro.fastpath.replay import (TierUnavailable, mp_replay_blockers,
                                   svm_replay_blockers)
from repro.os.fault_handler import FaultHandlerConfig
from repro.sim.engine import SimulationError
from repro.sim.process import Access, Burst, Compute, Fence, Yield
from repro.sim.recorder import (KIND_COMPUTE, KIND_FENCE, KIND_MEM,
                                KIND_YIELD, TraceRecorder,
                                UnrecordableOperation)
from repro.workloads import contention, workload


# ---------------------------------------------------------------------------
# Stream recording
# ---------------------------------------------------------------------------
class TestTraceRecorder:
    def test_capture_encodes_every_operation_kind(self):
        stream = TraceRecorder.capture([
            Compute(cycles=3),
            Access(addr=0x1000, size=8, is_write=True),
            Burst(addr=0x2000, count=4, size=16),
            Fence(),
            Yield(),
        ])
        # Access rows carry the byte range; a burst is recorded by its
        # total footprint (the memory interface re-derives the chunking).
        assert stream.rows == (
            (KIND_COMPUTE, 0, 0, False, 3),
            (KIND_MEM, 0x1000, 8, True, 0),
            (KIND_MEM, 0x2000, 4 * 16, False, 0),
            (KIND_FENCE, 0, 0, False, 0),
            (KIND_YIELD, 0, 0, False, 0),
        )
        assert stream.num_ops == 5

    def test_unrecordable_operation_raises(self):
        class Strange:
            pass

        with pytest.raises(UnrecordableOperation):
            TraceRecorder.capture([Strange()])

    def test_live_recording_matches_functional_capture(self):
        """The memif hook sees exactly the mem ops the kernel yields.

        A live recording attached to a running system must agree with a
        functional (no-simulation) capture of the same bound workload —
        this is what lets the program cache record streams functionally
        and replay them in place of real runs.
        """
        spec = workload("vecadd", scale="tiny", n=512)
        config = HarnessConfig(tlb_entries=16)
        _, system, bound = _build_svm_system(spec, config, 1)
        recorder = TraceRecorder()
        system.threads["hwt0"].memif.attach_recorder(recorder)
        system.run({"hwt0": bound[0].make_kernel()})
        live = recorder.finish()

        _, _, bound2 = _build_svm_system(spec, config, 1)
        functional = TraceRecorder.capture(bound2[0].make_kernel())
        mem = tuple(row for row in functional.rows if row[0] == KIND_MEM)
        assert live.num_ops > 0
        assert live.rows == mem


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------
class TestProgramCache:
    def test_stream_recorded_once_then_reused(self):
        spec = workload("vecadd", scale="tiny", n=512)
        config = HarnessConfig(tlb_entries=16)
        clear_program_cache()
        before = dict(record_stats)
        run_svm(spec, config, tier="replay")
        after_first = dict(record_stats)
        # Another capacity class (the program does not depend on how many
        # operations are in flight), so the second run replays.
        run_svm(spec, dataclasses.replace(config, max_outstanding=2),
                tier="replay")
        after_second = dict(record_stats)
        assert after_first["records"] == before["records"] + 1
        assert after_second["records"] == after_first["records"]
        assert after_second["reuses"] == after_first["reuses"] + 1
        assert after_second["served"] == before["served"]

    def test_warm_static_plan_builds_no_op_lists(self, monkeypatch):
        """A cached multi-process program needs neither the processes' op
        lists nor the slice plan built from them."""
        mp = contention(["vecadd"] * 2, scale="tiny", quantum=2000, n=1024)
        config = HarnessConfig(tlb_entries=16)
        clear_program_cache()
        run_multiprocess(mp, config, tier="replay")
        drained = []
        real = harness._functional_ops
        monkeypatch.setattr(harness, "_functional_ops",
                            lambda bound: drained.append(bound) or real(bound))
        assert run_multiprocess(mp, config, tier="replay").tier == "replay"
        assert drained == []

    def test_budget_evicts_least_recently_used_programs(self, monkeypatch):
        """The cache holds at most ``_CACHE_OPS`` ops in all: a miss evicts
        the least recently used programs until it fits, and a program
        longer than the whole budget is returned without being cached."""
        monkeypatch.setattr(record, "_CACHE_OPS", 10)
        clear_program_cache()
        try:
            def cache(key, ops):
                return record._cached_program(key, lambda: [("op",)] * ops)

            cache("a", 4)
            cache("b", 4)
            cache("a", 4)                   # a hit: "a" is now most recent
            cache("c", 4)                   # 12 > 10: evicts "b"
            assert list(record._programs) == ["a", "c"]
            assert len(cache("huge", 11)) == 11
            assert list(record._programs) == ["a", "c"]
            cache("d", 6)                   # 14 > 10: evicts "a"
            assert list(record._programs) == ["c", "d"]
            cache("e", 10)                  # fills the budget alone
            assert list(record._programs) == ["e"]
        finally:
            clear_program_cache()


# ---------------------------------------------------------------------------
# Tier selection plumbing
# ---------------------------------------------------------------------------
class TestTierPlumbing:
    def test_job_rejects_unknown_tier(self):
        spec = workload("vecadd", scale="tiny", n=256)
        with pytest.raises(ValueError, match="tier"):
            ExperimentJob(kind="svm", workload=spec,
                          config=HarnessConfig(), tier="warp")

    def test_event_only_models_ignore_the_tier_request(self):
        """Mixed-model sweeps accept any tier: single-tier models run the
        event simulator regardless of what the job asks for."""
        spec = workload("vecadd", scale="tiny", n=256)
        job = ExperimentJob(kind="ideal", workload=spec,
                            config=HarnessConfig(), tier="replay")
        outcome = run_job(job)
        assert outcome.tier == "event"

    def test_replay_capable_models_honor_the_tier_request(self):
        spec = workload("vecadd", scale="tiny", n=256)
        job = ExperimentJob(kind="svm", workload=spec,
                            config=HarnessConfig(tlb_entries=16),
                            tier="replay")
        outcome = run_job(job)
        assert outcome.tier == "replay"

    def test_strict_replay_raises_on_ineligible_run(self):
        spec = workload("vecadd", scale="tiny", n=256)
        with pytest.raises(TierUnavailable, match="num_threads"):
            run_svm(spec, HarnessConfig(tlb_entries=16), num_threads=2,
                    tier="replay")

    def test_auto_falls_back_and_says_why(self):
        spec = workload("vecadd", scale="tiny", n=256)
        result = run_svm(spec, HarnessConfig(tlb_entries=16), num_threads=2,
                         tier="auto")
        assert result.tier == "event"
        assert result.tier_reason is not None
        assert "num_threads" in result.tier_reason

    def test_strict_replay_serves_demand_paging(self):
        """A half-resident fig8 point replays: its faults no longer block
        the replay tier."""
        outcome = run_job(ExperimentJob(
            kind="svm", workload=workload("linked_list", scale="tiny",
                                          residency=0.5),
            config=HarnessConfig(), tier="replay"))
        assert outcome.tier == "replay"
        assert outcome.faults > 0

    def test_adaptive_policies_replay(self):
        mp = contention(["vecadd"] * 2, scale="tiny", quantum=2000,
                        policy="adaptive-fault", residency=0.5, n=1024)
        result = run_multiprocess(mp, HarnessConfig(tlb_entries=32),
                                  tier="auto")
        assert result.tier == "replay"
        assert result.tier_reason is None
        assert result.faults > 0
        assert result.telemetry.num_epochs > 0

    def test_unmodelled_fault_falls_back_and_says_why(self):
        """A dropped fault aborts the thread: the replay tier stops at the
        overflow and the event tier runs the point, saying why."""
        config = HarnessConfig(tlb_entries=8, platform=PlatformConfig(
            fault_handler=FaultHandlerConfig(max_queue_depth=1)))
        spec = workload("random_access", scale="tiny", residency=0.25)
        result = run_svm(spec, config, tier="auto")
        assert result.tier == "event"
        assert "fault queue" in result.tier_reason
        assert result.system_result.aborted_threads == ["hwt0"]
        with pytest.raises(ReplayFault, match="fault queue"):
            run_svm(spec, config, tier="replay")

    def test_fallback_gives_exactly_the_event_tiers_result(self):
        """A replay that fills the fault queue mid-run falls back to a fresh
        event-tier run: nothing of the aborted replay leaks into it, for
        one process, a static plan and the adaptive feed alike."""
        config = HarnessConfig(tlb_entries=8, platform=PlatformConfig(
            fault_handler=FaultHandlerConfig(max_queue_depth=1)))
        spec = workload("random_access", scale="tiny", residency=0.25)
        runs = [lambda tier: run_svm(spec, config, tier=tier)]
        for policy in ("round-robin", "miss-fair"):
            mp = contention(["random_access", "vecadd"], scale="tiny",
                            residency=0.25, quantum=2000, policy=policy)
            runs.append(lambda tier, mp=mp: run_multiprocess(mp, config,
                                                             tier=tier))
        for run in runs:
            auto = run("auto")
            assert auto.tier == "event"
            assert "fault queue" in auto.tier_reason
            assert dataclasses.replace(auto, tier_reason=None) == run("event")

    def test_blockers_report_none_for_eligible_runs(self):
        spec = workload("vecadd", scale="tiny", n=256)
        config = HarnessConfig(tlb_entries=16)
        assert svm_replay_blockers(spec, config, 1) is None
        assert svm_replay_blockers(spec, config, 2) is not None
        for policy in ("round-robin", "miss-fair"):
            mp = contention(["vecadd"] * 2, scale="tiny", policy=policy,
                            residency=0.5, n=1024)
            assert mp_replay_blockers(mp, config) is None
        half = workload("vecadd", scale="tiny", residency=0.5, n=256)
        assert svm_replay_blockers(half, config, 1) is None

    def test_runner_stats_count_tiers(self):
        spec = workload("vecadd", scale="tiny", n=256)
        config = HarnessConfig(tlb_entries=16)
        runner = SweepRunner(jobs=1)
        runner.map(run_job, [
            ExperimentJob(kind="svm", workload=spec, config=config,
                          tier="replay"),
            ExperimentJob(kind="ideal", workload=spec, config=config),
        ], label="tiers")
        assert runner.stats.tier_counts == {"replay": 1, "event": 1}
        assert "tier_event=1" in runner.summary()
        assert "tier_replay=1" in runner.summary()


# ---------------------------------------------------------------------------
# Replay engine
# ---------------------------------------------------------------------------
class TestReplayEvents:
    """Every event the engine schedules is dispatched exactly once.

    ``ReplayOutput.events`` counts the scheduled events; ``buffered`` of them
    leave straight from the one-event buffer and the rest through the heap,
    which must drain: every push is popped.
    """

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count the engine's heap pushes and pops and keep each
        ``ReplayOutput``."""
        pushes = []
        pops = []
        outputs = []

        class CountingHeapq:
            @staticmethod
            def heappush(heap, item):
                pushes.append(None)
                heapq.heappush(heap, item)

            @staticmethod
            def heappop(heap):
                pops.append(None)
                return heapq.heappop(heap)

        def replay_fabric(program, ctx):
            outputs.append(engine.replay_fabric(program, ctx))
            return outputs[-1]

        monkeypatch.setattr(engine, "heapq", CountingHeapq)
        monkeypatch.setattr(replay, "replay_fabric", replay_fabric)
        return pushes, pops, outputs

    @staticmethod
    def assert_dispatched_once(pushes, pops, outputs):
        [out] = outputs
        assert len(pushes) == len(pops) > 0
        assert out.buffered > 0
        assert out.events == len(pops) + out.buffered

    def test_single_process_walks(self, counted):
        result = run_svm(workload("random_access", scale="tiny"),
                         HarnessConfig(tlb_entries=16), tier="replay")
        assert result.tier == "replay"
        assert result.walks > 0
        self.assert_dispatched_once(*counted)

    def test_adaptive_multiprocess_refills(self, counted):
        mp = contention(["vecadd"] * 2, scale="tiny", quantum=2000,
                        policy="adaptive-fault", residency=0.5, n=1024)
        result = run_multiprocess(mp, HarnessConfig(tlb_entries=32),
                                  tier="replay")
        assert result.tier == "replay"
        assert result.telemetry.num_epochs > 1
        self.assert_dispatched_once(*counted)


class TestCycleLimit:
    """The replay tier stops at ``max_cycles`` where the event tier does.

    Tiny linked_list chases one pointer at a time, so its events leave one
    by one from the one-event buffer, the one past the limit included.  It
    finishes at cycle 41,190.
    """

    @pytest.mark.parametrize("tier", ["replay", "event", "auto"])
    def test_an_event_past_the_limit_raises(self, tier):
        clear_program_cache()
        config = HarnessConfig(platform=PlatformConfig(max_cycles=20_595))
        with pytest.raises(SimulationError, match=re.escape(
                "simulation exceeded max_cycles=20595 "
                "(next event at 20610)")):
            run_svm(workload("linked_list", scale="tiny"), config, tier=tier)

    @pytest.mark.parametrize("tier", ["replay", "event", "auto"])
    def test_a_run_that_ends_at_the_limit_completes(self, tier):
        clear_program_cache()
        config = HarnessConfig(platform=PlatformConfig(max_cycles=41_190))
        result = run_svm(workload("linked_list", scale="tiny"), config,
                         tier=tier)
        assert result.tier == ("event" if tier == "event" else "replay")
        assert result.total_cycles == 41_190


# ---------------------------------------------------------------------------
# Standard library only
# ---------------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[1] / "src"

#: Makes ``numpy`` (and its submodules) unimportable in a fresh interpreter,
#: as on an install without it.
BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, BlockNumpy())
"""

#: Strict replay runs of a half-resident single-process point, a static
#: two-process plan and an adaptive two-process schedule.
REPLAY_POINTS = """
import json
from repro.eval.harness import HarnessConfig, run_multiprocess, run_svm
from repro.workloads import contention, workload

config = HarnessConfig(tlb_entries=16)
half = workload("vecadd", scale="tiny", residency=0.5, n=256)
tiers = {"half-resident": run_svm(half, config, tier="replay").tier}
for policy in ("round-robin", "miss-fair"):
    mp = contention(["vecadd"] * 2, scale="tiny", quantum=2000,
                    policy=policy, residency=0.5, n=1024)
    tiers[policy] = run_multiprocess(mp, config, tier="replay").tier
print(json.dumps(tiers))
"""


def run_python(source: str) -> str:
    """Stdout of ``source`` run in a fresh interpreter that imports
    ``repro`` from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", source],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestStandardLibraryOnly:
    def test_replay_tier_runs_without_numpy(self):
        tiers = json.loads(run_python(BLOCK_NUMPY + REPLAY_POINTS))
        assert tiers == {"half-resident": "replay", "round-robin": "replay",
                         "miss-fair": "replay"}

    def test_importing_the_fastpath_loads_no_numpy(self):
        loaded = run_python("import sys\nimport repro.fastpath\n"
                            "print('numpy' in sys.modules)")
        assert loaded.strip() == "False"

