"""Tests for the benchmark suite and the regression gate (``repro bench``)."""

import copy
import json

import pytest

from repro.eval import bench


@pytest.fixture(scope="module")
def report():
    return bench.run_suite()


def test_suite_produces_positive_cycle_metrics(report):
    assert set(report.records) == set(bench.BENCH_SUITE)
    for record in report.records.values():
        assert record["wall_seconds"] >= 0
        assert record["metrics"]
        for value in record["metrics"].values():
            assert value > 0


def test_suite_metrics_are_deterministic(report):
    again = bench.run_suite()
    for name, record in report.records.items():
        assert again.records[name]["metrics"] == record["metrics"]


def test_committed_baseline_matches_current_cycles(report):
    # The committed baseline's cycle metrics must be exactly what the code
    # produces today — refreshing it is part of any change that moves them.
    baseline = bench.load_report("benchmarks/baseline.json")
    for name, record in report.records.items():
        assert record["metrics"] == baseline["records"][name]["metrics"]


def test_compare_passes_identical_runs(report):
    assert bench.compare(report.as_dict(), report.as_dict()) == []


def test_compare_flags_injected_cycle_regression(report):
    current = report.as_dict()
    baseline = copy.deepcopy(current)
    metrics = baseline["records"]["table3_tiny"]["metrics"]
    metrics["svm_cycles"] = int(metrics["svm_cycles"] / 1.3)   # >20% growth
    problems = bench.compare(current, baseline)
    assert len(problems) == 1
    assert "svm_cycles" in problems[0] and "regressed" in problems[0]


def test_compare_flags_wall_time_regression(report):
    current = copy.deepcopy(report.as_dict())
    baseline = copy.deepcopy(current)
    current["records"]["fig5_tlb_sweep"]["wall_seconds"] = (
        baseline["records"]["fig5_tlb_sweep"]["wall_seconds"] * 2 + 1)
    problems = bench.compare(current, baseline)
    assert any("wall_seconds" in p for p in problems)


def test_compare_tolerates_growth_within_threshold(report):
    current = copy.deepcopy(report.as_dict())
    baseline = copy.deepcopy(current)
    metrics = baseline["records"]["fig7_scaling"]["metrics"]
    metrics["total_cycles"] = int(metrics["total_cycles"] / 1.1)  # +10%
    assert bench.compare(current, baseline) == []
    assert bench.compare(current, baseline, threshold=0.05)       # stricter


def test_compare_fails_on_missing_benchmarks_and_metrics(report):
    current = copy.deepcopy(report.as_dict())
    baseline = copy.deepcopy(current)
    del current["records"]["fig11_models"]
    del current["records"]["table3_tiny"]["metrics"]["svm_cycles"]
    problems = bench.compare(current, baseline)
    assert any("fig11_models" in p and "missing" in p for p in problems)
    assert any("svm_cycles" in p and "missing" in p for p in problems)


def _reuse_report(monkeypatch, report):
    """Serve the module's suite run to ``repro bench``, which looks
    ``run_suite`` up on the bench module at call time."""
    monkeypatch.setattr(bench, "run_suite", lambda **kwargs: report)


def test_cli_bench_gate_round_trip(tmp_path, capsys, monkeypatch, report):
    from repro.cli import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _reuse_report(monkeypatch, report)
    out = tmp_path / "BENCH_test.json"
    base = tmp_path / "baseline.json"

    # First run writes both the report and a fresh baseline: gate passes.
    assert main(["bench", "--output", str(out),
                 "--write-baseline", str(base),
                 "--baseline", str(base)]) == 0
    report = json.loads(out.read_text())
    assert report["records"]

    # Inject a >20% regression into the baseline: gate fails with exit 1.
    doctored = json.loads(base.read_text())
    metrics = doctored["records"]["multiprocess_shared_tlb"]["metrics"]
    metrics["total_cycles"] = int(metrics["total_cycles"] / 1.5)
    base.write_text(json.dumps(doctored))
    assert main(["bench", "--output", str(out),
                 "--baseline", str(base)]) == 1

    # A looser threshold lets the same delta through.
    assert main(["bench", "--output", str(out), "--baseline", str(base),
                 "--threshold", "0.6"]) == 0


def test_write_baseline_pads_wall_budgets_but_keeps_cycles_exact(tmp_path,
                                                                 report):
    path = tmp_path / "baseline.json"
    bench.write_baseline(report, str(path))
    baseline = json.loads(path.read_text())
    assert baseline["sha"] == "baseline"
    for name, record in report.records.items():
        written = baseline["records"][name]
        assert written["metrics"] == record["metrics"]          # exact
        assert written["wall_seconds"] >= max(
            record["wall_seconds"] * bench.WALL_BUDGET_FACTOR,
            bench.WALL_BUDGET_MIN_SECONDS) - 0.01               # budget
    # A fresh run on the same machine passes the gate it just wrote.
    assert bench.compare(report.as_dict(), baseline) == []


# ---------------------------------------------------------------------------
# Baseline freshness (exact drift, both directions)
# ---------------------------------------------------------------------------
def test_check_freshness_passes_identical_runs(report):
    assert bench.check_freshness(report.as_dict(), report.as_dict()) == []


def test_committed_baseline_is_fresh(report):
    baseline = bench.load_report("benchmarks/baseline.json")
    assert bench.check_freshness(report.as_dict(), baseline) == []


def test_check_freshness_flags_any_drift_even_improvements(report):
    current = report.as_dict()
    baseline = copy.deepcopy(current)
    metrics = baseline["records"]["fig12_contention"]["metrics"]
    # An *improvement* (baseline higher than current) is still drift: a
    # stale baseline silently widens the regression gate's headroom.
    metrics["svm_cycles"] = metrics["svm_cycles"] + 1
    problems = bench.check_freshness(current, baseline)
    assert len(problems) == 1 and "drifted" in problems[0]
    # ... while the threshold-based regression gate happily passes it.
    assert bench.compare(current, baseline) == []


def test_check_freshness_ignores_wall_seconds(report):
    current = copy.deepcopy(report.as_dict())
    baseline = copy.deepcopy(current)
    baseline["records"]["table3_tiny"]["wall_seconds"] = 999.0
    assert bench.check_freshness(current, baseline) == []


def test_check_freshness_flags_missing_records_both_ways(report):
    current = copy.deepcopy(report.as_dict())
    baseline = copy.deepcopy(current)
    del baseline["records"]["fig12_contention"]
    del current["records"]["fig5_tlb_sweep"]
    problems = bench.check_freshness(current, baseline)
    assert any("fig12_contention" in p and "missing from baseline" in p
               for p in problems)
    assert any("fig5_tlb_sweep" in p and "not in current" in p
               for p in problems)


def test_cli_check_baseline_fresh_gate(tmp_path, monkeypatch, report):
    from repro.cli import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _reuse_report(monkeypatch, report)
    out = tmp_path / "BENCH_test.json"
    base = tmp_path / "baseline.json"

    assert main(["bench", "--output", str(out),
                 "--write-baseline", str(base),
                 "--check-baseline-fresh", str(base)]) == 0

    # Tiny drift (well under the 20% regression threshold) still fails.
    doctored = json.loads(base.read_text())
    metrics = doctored["records"]["fig12_contention"]["metrics"]
    metrics["tlb_misses"] = metrics["tlb_misses"] + 1
    base.write_text(json.dumps(doctored))
    assert main(["bench", "--output", str(out),
                 "--baseline", str(base),
                 "--check-baseline-fresh", str(base)]) == 1


# ---------------------------------------------------------------------------
# Suite subsetting, scale selection and the refresh drift summary
# ---------------------------------------------------------------------------
def test_suite_includes_the_adaptive_scheduling_entry(report):
    assert "fig13_adaptive" in bench.BENCH_SUITE
    metrics = report.records["fig13_adaptive"]["metrics"]
    assert metrics["adaptive_epochs"] > 0


def test_run_suite_only_restricts_entries():
    subset = bench.run_suite(only=["fig7_scaling"])
    assert set(subset.records) == {"fig7_scaling"}


def test_run_suite_rejects_unknown_entries():
    with pytest.raises(KeyError):
        bench.run_suite(only=["no-such-benchmark"])


def test_run_suite_scale_reaches_the_experiments(report):
    # default scale must move the numbers (it is a bigger workload).
    default = bench.run_suite(only=["fig7_scaling"], scale="default")
    tiny = report.records["fig7_scaling"]["metrics"]
    assert default.records["fig7_scaling"]["metrics"]["total_cycles"] > \
        tiny["total_cycles"]


def test_summarize_drift_reports_freshness(report):
    text = bench.summarize_drift(report.as_dict(), report.as_dict())
    assert "fresh" in text
    assert "|" not in text.splitlines()[-2]        # no table when fresh


def test_summarize_drift_tabulates_changed_metrics(report):
    current = report.as_dict()
    baseline = copy.deepcopy(current)
    metrics = baseline["records"]["table3_tiny"]["metrics"]
    metrics["svm_cycles"] += 100
    text = bench.summarize_drift(current, baseline)
    assert "| table3_tiny | svm_cycles |" in text
    assert "baseline-refresh" in text
    # Wall seconds are budgets, not code outputs: never tabulated.
    assert "wall_seconds" not in text


def test_summarize_drift_without_a_baseline(report):
    text = bench.summarize_drift(report.as_dict(), None)
    assert "No committed baseline" in text


def test_cli_bench_only_and_summary(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    monkeypatch.chdir(tmp_path)
    summary = tmp_path / "summary.md"
    code = main(["bench", "--output", str(tmp_path / "out.json"),
                 "--only", "fig7_scaling",
                 "--summary", str(summary)])
    assert code == 0
    assert "No committed baseline" in summary.read_text()
    data = json.loads((tmp_path / "out.json").read_text())
    assert set(data["records"]) == {"fig7_scaling"}


def test_cli_bench_rejects_unknown_only_entry(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--only", "bogus"]) == 2


def test_cli_bench_only_rejects_whole_suite_flags(tmp_path, monkeypatch,
                                                  capsys):
    from repro.cli import main
    monkeypatch.chdir(tmp_path)
    for flag in (["--baseline", "b.json"], ["--check-baseline-fresh"],
                 ["--write-baseline"]):
        assert main(["bench", "--only", "fig7_scaling"] + flag) == 2
        assert "whole-suite semantics" in capsys.readouterr().err


def test_cli_bench_non_tiny_scale_rejects_baseline_flags(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    from repro.cli import main
    monkeypatch.chdir(tmp_path)
    for flag in (["--baseline", "b.json"], ["--check-baseline-fresh"],
                 ["--write-baseline"]):
        assert main(["bench", "--scale", "default", "--only", "fig7_scaling"]
                    + flag) == 2
        err = capsys.readouterr().err
        assert "whole-suite semantics" in err or "tiny-scale" in err
    assert main(["bench", "--scale", "default", "--output",
                 str(tmp_path / "o.json"), "--only", "fig7_scaling"]) == 0
