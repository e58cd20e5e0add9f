"""Tests for the benchmark suite and its gate (``repro bench``)."""

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


def test_compare_passes_identical_runs(report):
    assert bench.compare(report.as_dict(), report.as_dict()) == []


def test_compare_flags_injected_cycle_regression(report):
    current = report.as_dict()
    baseline = copy.deepcopy(current)
    metrics = baseline["records"]["table3_tiny"]["metrics"]
    metrics["svm_cycles"] -= 1          # the current run is one cycle slower
    problems = bench.compare(current, baseline)
    assert len(problems) == 1
    assert "svm_cycles" in problems[0] and "drifted" in problems[0]


def test_compare_flags_wall_time_regression(report):
    current = copy.deepcopy(report.as_dict())
    baseline = copy.deepcopy(current)
    baseline["records"]["fig5_tlb_sweep"]["wall_seconds"] = 1.0   # budget
    record = current["records"]["fig5_tlb_sweep"]
    record["wall_seconds"] = 1.0 * (1 + bench.WALL_TOLERANCE)
    assert bench.compare(current, baseline) == []           # at the bound
    record["wall_seconds"] += 0.001
    problems = bench.compare(current, baseline)
    assert len(problems) == 1
    assert "fig5_tlb_sweep: wall_seconds" in problems[0]


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
    assert json.loads(out.read_text())["records"]
    capsys.readouterr()

    # A wall budget cut below measured / (1 + tolerance) fails with exit 1.
    doctored = json.loads(base.read_text())
    measured = report.records["fig14_dse"]["wall_seconds"]
    doctored["records"]["fig14_dse"]["wall_seconds"] = (
        measured / (1 + bench.WALL_TOLERANCE) * 0.9)
    base.write_text(json.dumps(doctored))
    assert main(["bench", "--output", str(out), "--baseline", str(base)]) == 1
    assert "fig14_dse: wall_seconds" in capsys.readouterr().err


def test_cli_check_baseline_fresh_gate(tmp_path, capsys, monkeypatch, report):
    # The freshness check is part of ``--baseline``: any cycle drift fails.
    from repro.cli import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _reuse_report(monkeypatch, report)
    out = tmp_path / "BENCH_test.json"
    base = tmp_path / "baseline.json"
    bench.write_baseline(report, str(base))
    fresh = base.read_text()

    # One cycle of drift either way fails with exit 1 and names the metric.
    for name in ("fig12_contention", "multiprocess_shared_tlb"):
        for delta in (1, -1):
            doctored = json.loads(fresh)
            doctored["records"][name]["metrics"]["tlb_misses"] += delta
            base.write_text(json.dumps(doctored))
            assert main(["bench", "--output", str(out),
                         "--baseline", str(base)]) == 1
            assert f"{name}: tlb_misses drifted" in capsys.readouterr().err

    # The gate has no threshold to loosen and no second flag.
    for flag in (["--threshold", "0.6"], ["--check-baseline-fresh"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--baseline", str(base)] + flag)
        assert exit_info.value.code == 2


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
# Baseline freshness: the gate's exact-cycle half, in both directions
# ---------------------------------------------------------------------------
def test_committed_baseline_is_fresh(report):
    # The committed baseline's cycle metrics must be exactly what the code
    # produces today — refreshing it is part of any change that moves them.
    # Wall budgets are machine-specific, so this run's times are zeroed.
    baseline = bench.load_report("benchmarks/baseline.json")
    current = copy.deepcopy(report.as_dict())
    for record in current["records"].values():
        record["wall_seconds"] = 0.0
    assert bench.compare(current, baseline) == []


def test_check_freshness_flags_any_drift_even_improvements(report):
    current = report.as_dict()
    baseline = copy.deepcopy(current)
    metrics = baseline["records"]["fig12_contention"]["metrics"]
    # An *improvement* (baseline higher than current) is still drift: a
    # stale baseline would hide the next change's drift.
    metrics["svm_cycles"] = metrics["svm_cycles"] + 1
    problems = bench.compare(current, baseline)
    assert len(problems) == 1 and "drifted" in problems[0]


def test_check_freshness_ignores_wall_seconds(report):
    # Wall entries are budgets, not code outputs: one that differs from the
    # measurement is not drift.
    current = copy.deepcopy(report.as_dict())
    baseline = copy.deepcopy(current)
    baseline["records"]["table3_tiny"]["wall_seconds"] = 999.0
    assert bench.compare(current, baseline) == []


def test_check_freshness_flags_missing_records_both_ways(report):
    current = copy.deepcopy(report.as_dict())
    baseline = copy.deepcopy(current)
    del baseline["records"]["fig12_contention"]
    del current["records"]["fig5_tlb_sweep"]
    problems = bench.compare(current, baseline)
    assert any("fig12_contention" in p and "missing from baseline" in p
               for p in problems)
    assert any("fig5_tlb_sweep" in p and "missing from current run" in p
               for p in problems)


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
    for flag in (["--baseline", "b.json"], ["--write-baseline"]):
        assert main(["bench", "--only", "fig7_scaling"] + flag) == 2
        assert "whole-suite semantics" in capsys.readouterr().err


def test_cli_bench_non_tiny_scale_rejects_baseline_flags(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    from repro.cli import main
    monkeypatch.chdir(tmp_path)
    for flag in (["--baseline", "b.json"], ["--write-baseline"]):
        assert main(["bench", "--scale", "default", "--only", "fig7_scaling"]
                    + flag) == 2
        err = capsys.readouterr().err
        assert "whole-suite semantics" in err or "tiny-scale" in err
    assert main(["bench", "--scale", "default", "--output",
                 str(tmp_path / "o.json"), "--only", "fig7_scaling"]) == 0
