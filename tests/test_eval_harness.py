"""Unit tests for the execution harness and report helpers."""

import pytest

from repro.eval.harness import (
    HarnessConfig,
    compare,
    run_copydma,
    run_ideal,
    run_software,
    run_svm,
)
from repro.eval.report import format_series, format_table, speedup_summary
from repro.workloads import standard_suite, workload


TINY = workload("vecadd", scale="tiny")


def test_run_svm_reports_translation_statistics():
    result = run_svm(TINY, HarnessConfig(tlb_entries=16))
    assert result.ok
    assert result.total_cycles > result.fabric_cycles > 0
    assert 0.0 < result.tlb_hit_rate <= 1.0
    assert result.tlb_misses > 0
    assert result.software_overhead_cycles > 0


def test_run_svm_multi_thread_scales_buffers():
    single = run_svm(TINY, HarnessConfig())
    dual = run_svm(TINY, HarnessConfig(), num_threads=2)
    assert dual.ok
    # Two threads do twice the work; the shared bus means the total time grows
    # but stays below 2x the single-thread time.
    assert single.total_cycles < dual.total_cycles < 2 * single.total_cycles


def test_run_ideal_is_lower_bound_for_svm_fabric_time():
    config = HarnessConfig(tlb_entries=16)
    svm = run_svm(TINY, config)
    ideal = run_ideal(TINY, config)
    assert ideal <= svm.fabric_cycles


def test_run_copydma_breakdown_positive():
    result = run_copydma(TINY, HarnessConfig())
    assert result.total_cycles > 0
    assert result.copy_in_cycles > 0
    assert result.fabric_cycles > 0


@pytest.mark.parametrize("spec", standard_suite("tiny"),
                         ids=lambda spec: spec.name)
def test_copydma_fabric_term_equals_the_ideal_run(spec):
    # Copy-DMA computes on the same fully resident buffers through the same
    # physically addressed fabric run as the ideal accelerator; only the
    # copy terms around that run differ.
    assert run_copydma(spec).fabric_cycles == run_ideal(spec)


def test_run_software_single_and_multi():
    single = run_software(TINY, HarnessConfig())
    dual = run_software(TINY, HarnessConfig(), num_threads=2)
    assert single > 0
    assert dual > single            # two instances of the same work


def test_compare_produces_consistent_row():
    result = compare(TINY, HarnessConfig(auto_size_tlb=True))
    row = result.as_row()
    assert row["workload"] == "vecadd"
    assert result.speedup_vs_software == pytest.approx(
        result.software_cycles / result.svm_cycles, rel=1e-6)
    assert result.vm_overhead >= 1.0
    assert set(row) >= {"software", "copy_dma", "svm_thread", "ideal",
                        "speedup_sw", "speedup_dma", "vm_overhead"}


def test_auto_size_tlb_improves_or_matches_hit_rate():
    fixed = run_svm(workload("random_access", scale="tiny"),
                    HarnessConfig(tlb_entries=8))
    auto = run_svm(workload("random_access", scale="tiny"),
                   HarnessConfig(auto_size_tlb=True))
    assert auto.tlb_hit_rate >= fixed.tlb_hit_rate


def test_harness_thread_spec_uses_footprint_when_auto():
    config = HarnessConfig(auto_size_tlb=True, tlb_entries=4)
    spec = config.thread_spec("t", "vecadd", footprint_bytes=256 * 4096)
    assert spec.tlb_entries > 4
    manual = HarnessConfig(auto_size_tlb=False, tlb_entries=4)
    assert manual.thread_spec("t", "vecadd", footprint_bytes=256 * 4096).tlb_entries == 4


# ---------------------------------------------------------------- report
def test_format_table_aligns_columns_and_handles_missing_keys():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "c": "x"}], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1] and "c" in lines[1]
    assert len(lines) == 5
    assert format_table([], title="E").startswith("E")


def test_format_series_orders_x_first():
    text = format_series({"y": [1, 2], "x": [10, 20]}, x_key="x")
    header = text.splitlines()[0]
    assert header.index("x") < header.index("y")


def test_speedup_summary_geomeans():
    rows = [{"speedup_sw": 2.0, "speedup_dma": 1.0, "vm_overhead": 1.0},
            {"speedup_sw": 8.0, "speedup_dma": 4.0, "vm_overhead": 1.5}]
    summary = speedup_summary(rows)
    assert summary["geomean_speedup_vs_software"] == pytest.approx(4.0)
    assert summary["geomean_speedup_vs_copydma"] == pytest.approx(2.0)
    assert summary["geomean_vm_overhead"] == pytest.approx((1.5) ** 0.5)


def test_compare_with_runner_matches_serial():
    from repro.exec import MemoCache, SweepRunner
    from repro.workloads import workload

    spec = workload("vecadd", scale="tiny")
    config = HarnessConfig(tlb_entries=16)
    serial = compare(spec, config)
    runner = SweepRunner(jobs=2, cache=MemoCache())
    parallel = compare(spec, config, runner=runner)
    assert parallel.as_row() == serial.as_row()
    assert parallel.outcomes == serial.outcomes   # bit-identical RunOutcomes
    assert runner.stats.points_submitted == 4


def test_compare_outcomes_are_uniform_run_outcomes():
    from repro.models import CANONICAL_MODELS, RunOutcome

    result = compare(TINY, HarnessConfig(tlb_entries=16))
    assert set(result.outcomes) == set(CANONICAL_MODELS)
    for name, outcome in result.outcomes.items():
        assert isinstance(outcome, RunOutcome)
        assert outcome.model == name
        assert outcome.total_cycles > 0
    assert result["copydma"].marshalling_cycles > 0
    assert result["svm"].marshalling_cycles == 0
    assert result["copydma"].breakdown["copy_in_cycles"] > 0


def test_compare_model_subset():
    result = compare(TINY, HarnessConfig(tlb_entries=16),
                     models=("svm", "software"))
    row = result.as_row()
    assert set(result.outcomes) == {"svm", "software"}
    assert "speedup_sw" in row and "speedup_dma" not in row
    assert result.speedup_vs_software > 0


def test_compare_deduplicates_repeated_models():
    result = compare(TINY, HarnessConfig(tlb_entries=16),
                     models=("svm", "svm", "software"))
    assert result.models == ["svm", "software"]
