"""Unit tests for the two-tier record/replay subsystem and the tracer.

The differential suite (``test_differential_models.py``) pins the headline
guarantee — replay results equal event-simulator results exactly.  These
tests cover the mechanisms underneath: stream recording (functional and
live), the content-keyed program cache, tier selection plumbing through
jobs/runner/harness, that the replay tier runs on the standard library
alone, and the zero-cost tracing contract.
"""

import json
import os
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
from repro.fastpath import record
from repro.fastpath.engine import ReplayFault
from repro.fastpath.record import clear_program_cache, record_stats
from repro.fastpath.replay import (TierUnavailable, mp_replay_blockers,
                                   svm_replay_blockers)
from repro.os.fault_handler import FaultHandlerConfig
from repro.sim.process import Access, Burst, Compute, Fence, Yield
from repro.sim.recorder import (KIND_COMPUTE, KIND_FENCE, KIND_MEM,
                                KIND_YIELD, TraceRecorder,
                                UnrecordableOperation)
from repro.sim.trace import Tracer
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
        run_svm(spec, config, tier="replay")
        after_second = dict(record_stats)
        assert after_first["records"] == before["records"] + 1
        assert after_second["records"] == after_first["records"]
        assert after_second["reuses"] == after_first["reuses"] + 1

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


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.log(1, "mmu", "tlb_miss", "vaddr=0x1000")
        assert len(tracer) == 0

    def test_disabled_tracer_never_builds_lazy_detail(self):
        tracer = Tracer(enabled=False)

        def explode():
            raise AssertionError("detail built while tracing is disabled")

        tracer.log(1, "mmu", "tlb_miss", explode)   # must not raise

    def test_lazy_detail_is_evaluated_when_enabled(self):
        tracer = Tracer(enabled=True)
        calls = []

        def detail():
            calls.append(1)
            return "vpn=7"

        tracer.log(3, "ptw", "walk_done", detail)
        assert calls == [1]
        assert tracer.records[0].detail == "vpn=7"

    def test_limit_drops_and_counts(self):
        tracer = Tracer(enabled=True, limit=2)
        for cycle in range(5):
            tracer.log(cycle, "bus", "grant")
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_section_brackets_a_block(self):
        tracer = Tracer(enabled=True)
        with tracer.section(10, "harness", "sweep", "fig5"):
            tracer.log(11, "harness", "point")
        events = [r.event for r in tracer]
        assert events == ["sweep:begin", "point", "sweep:end"]
        assert tracer.records[0].detail == "fig5"
        assert tracer.records[2].detail == "fig5"

    def test_section_emits_end_even_on_raise(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.section(10, "harness", "sweep"):
                raise RuntimeError("boom")
        assert [r.event for r in tracer] == ["sweep:begin", "sweep:end"]

    def test_section_evaluates_lazy_detail_once(self):
        tracer = Tracer(enabled=True)
        calls = []

        def detail():
            calls.append(1)
            return "d"

        with tracer.section(0, "c", "e", detail):
            pass
        assert calls == [1]

    def test_filter_by_component_and_event(self):
        tracer = Tracer(enabled=True)
        tracer.log(0, "mmu", "tlb_miss")
        tracer.log(1, "ptw", "walk_done")
        tracer.log(2, "mmu", "tlb_miss")
        assert len(tracer.filter(component="mmu")) == 2
        assert len(tracer.filter(event="walk_done")) == 1
        assert len(tracer.filter(component="mmu", event="walk_done")) == 0
