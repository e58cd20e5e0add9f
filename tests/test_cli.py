"""Tests for the command-line interface."""

import csv
import io
import json

import pytest

from repro.cli import build_parser, main
from repro.eval.experiments import EXPERIMENTS

from test_store import write_v1_store


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Keep CLI cache writes out of the repository working tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_RESULTS_DB", raising=False)


def test_list_command_prints_experiments_kernels_and_models(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table3" in out
    assert "vecadd" in out
    assert "svm" in out and "copydma" in out
    # Titles from the experiment metadata, not bare names.
    assert "Table 3" in out


def test_models_command_lists_registered_models(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("svm", "ideal", "copydma", "software"):
        assert name in out
    assert "hardware thread" in out          # docstring summaries included


def test_run_command_renders_an_experiment(capsys):
    assert main(["run", "table1", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "kernel" in out
    assert "luts" in out


def test_run_tlb_sweep_renders_series(capsys):
    assert main(["run", "fig8", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "residency" in out


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_run_smoke_every_registered_experiment(experiment, capsys):
    """Every experiment in the registry runs end-to-end at tiny scale.

    Adaptive-DSE experiments get a small evaluation budget, as in CI's CLI
    smoke; their golden and pinned tests cover the default budget.
    """
    argv = ["run", experiment, "--scale", "tiny"]
    if "budget" in EXPERIMENTS[experiment].knobs:
        argv += ["--budget", "24"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv, message", [
    (["run", "fig14", "--budget", "2", "--scale", "tiny"],
     "budget 2 cannot push any candidate through the 3-rung fidelity "
     "ladder"),
    # The exhaustive backend under fig14's default budget of 256 cannot
    # cover the 103,680-point space.
    (["run", "fig14", "--explorer", "exhaustive", "--scale", "tiny"],
     "exhaustive exploration needs 103680 evaluations but the budget is "
     "256"),
])
def test_run_reports_an_exhausted_budget_as_an_argument_error(argv, message,
                                                              capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"repro run: {message}" in err
    assert "Traceback" not in err


def test_run_json_output_is_parseable(capsys):
    assert main(["run", "fig5_replacement", "--scale", "tiny", "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert set(data) >= {"tlb_entries", "lru", "fifo", "random"}


def test_run_csv_output_table(capsys):
    assert main(["run", "table1", "--scale", "tiny", "--csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and "kernel" in rows[0] and "luts" in rows[0]


def test_run_csv_output_nested_series(capsys):
    assert main(["run", "fig8", "--scale", "tiny", "--csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and "group" in rows[0] and "residency" in rows[0]


def test_compare_command_reports_speedups(capsys):
    assert main(["compare", "vecadd", "--scale", "tiny",
                 "--tlb-entries", "16"]) == 0
    out = capsys.readouterr().out
    assert "speedup_sw" in out
    assert "vecadd" in out


def test_compare_model_subset_and_json(capsys):
    assert main(["compare", "vecadd", "--scale", "tiny",
                 "--models", "svm,software", "--json"]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert rows[0]["workload"] == "vecadd"
    assert "speedup_sw" in rows[0] and "copy_dma" not in rows[0]


def test_compare_rejects_unknown_model(capsys):
    assert main(["compare", "vecadd", "--models", "svm,warpdrive"]) == 2
    err = capsys.readouterr().err
    assert "warpdrive" in err


def test_compare_tolerates_repeated_models(capsys):
    assert main(["compare", "vecadd", "--scale", "tiny",
                 "--models", "svm,svm,software"]) == 0
    out = capsys.readouterr().out
    assert "speedup_sw" in out


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "table99"])


def test_parser_rejects_unknown_kernel():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["compare", "fft"])


def test_run_accepts_jobs_and_no_cache_flags(capsys):
    assert main(["run", "fig5", "--scale", "tiny", "--jobs", "2",
                 "--no-cache"]) == 0
    out, err = capsys.readouterr()
    assert "tlb_entries" in out
    assert "sweep timings" in err          # runner summary goes to stderr


def test_run_with_cache_reports_summary(capsys):
    assert main(["run", "fig8", "--scale", "tiny"]) == 0
    _, err = capsys.readouterr()
    assert "cache_hits" in err


def test_cache_dir_persists_across_invocations(tmp_path, capsys):
    cache_dir = tmp_path / "memo"
    argv = ["run", "fig5_replacement", "--scale", "tiny",
            "--cache-dir", str(cache_dir)]
    assert main(argv) == 0
    first_out, _ = capsys.readouterr()
    from repro.exec import default_cache
    cache = default_cache(str(cache_dir))
    assert cache.disk_entries(), "results were persisted to disk"

    # A fresh process would re-read from disk; simulate by clearing the
    # in-memory layer of the process-global cache for that directory.
    cache._data.clear()
    executed_before = cache.hits
    assert main(argv) == 0
    second_out, err = capsys.readouterr()
    assert second_out == first_out
    assert cache.hits > executed_before    # served from the disk layer


def test_refresh_cache_works_from_non_sweepable_experiments(tmp_path, capsys):
    from repro.exec import default_cache
    cache_dir = tmp_path / "memo"
    assert main(["run", "fig8_pinning", "--scale", "tiny",
                 "--cache-dir", str(cache_dir)]) == 0
    assert default_cache(str(cache_dir)).disk_entries()
    capsys.readouterr()
    # table2 runs no sweep, but its cache flags must still take effect.
    assert main(["run", "table2", "--scale", "tiny",
                 "--cache-dir", str(cache_dir), "--refresh-cache"]) == 0
    assert default_cache(str(cache_dir)).disk_entries() == 0


def test_refresh_cache_reexecutes_points(tmp_path, capsys):
    cache_dir = tmp_path / "memo"
    argv = ["run", "fig8_pinning", "--scale", "tiny",
            "--cache-dir", str(cache_dir)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--refresh-cache"]) == 0
    _, err = capsys.readouterr()
    assert "points_executed=3" in err      # cleared, so everything re-ran


def test_compare_accepts_jobs_flag(capsys):
    assert main(["compare", "vecadd", "--scale", "tiny", "--jobs", "2"]) == 0
    out, _ = capsys.readouterr()
    assert "speedup_sw" in out


def test_parser_defaults_for_exec_flags(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_RESULTS_DB", raising=False)
    args = build_parser().parse_args(["run", "fig10"])
    assert args.jobs == 1 and args.no_cache is False
    assert args.cache_dir == ".repro-cache"
    assert args.json is False and args.csv is False
    assert args.results_db is None


def test_run_stats_emits_json_summary(capsys):
    assert main(["run", "fig5", "--scale", "tiny", "--json", "--stats"]) == 0
    out, err = capsys.readouterr()
    json.loads(out)                              # result unchanged by --stats
    stats = json.loads(err)
    assert stats["jobs"] == 1
    assert "fig5_tlb_sweep" in stats["timings_s"]
    assert stats["stats"]["points_submitted"] == stats["stats"][
        "points_executed"] + stats["stats"]["cache_hits"]
    assert stats["stats"]["failed_jobs"] == 0
    assert "cache" in stats


def test_compare_stats_emits_json_summary(capsys):
    assert main(["compare", "vecadd", "--scale", "tiny", "--stats"]) == 0
    _, err = capsys.readouterr()
    stats = json.loads(err)
    assert stats["total_wall_s"] >= 0
    assert "retries" in stats["stats"]


# ---------------------------------------------------------------------------
# Results store round-trip and `repro query`
# ---------------------------------------------------------------------------
def _seeded_store(tmp_path):
    """A deterministic two-sha store for query golden tests."""
    from repro.models import RunOutcome
    from repro.store import ResultsStore

    path = tmp_path / "seed.db"
    ticks = iter(range(100, 200))
    store = ResultsStore(path, clock=lambda: float(next(ticks)) * 86400,
                         sha="aaaaaaaaaaaa")
    store.record("k1" * 32,
                 RunOutcome(model="svm", total_cycles=100, fabric_cycles=80,
                            tlb_hit_rate=0.5, tier="replay"),
                 experiment="fig5", coords={"tlb_entries": 8},
                 kernel="vecadd")
    store.record("k2" * 32,
                 RunOutcome(model="copydma", total_cycles=300,
                            fabric_cycles=200),
                 experiment="fig5", coords={"tlb_entries": 16},
                 kernel="matmul")
    store.close()
    later = ResultsStore(path, clock=lambda: float(next(ticks)) * 86400,
                         sha="bbbbbbbbbbbb")
    later.record("k1" * 32,
                 RunOutcome(model="svm", total_cycles=90, fabric_cycles=75,
                            tlb_hit_rate=0.5, tier="replay"),
                 experiment="fig5", coords={"tlb_entries": 8},
                 kernel="vecadd")
    later.close()
    return path


def test_run_results_db_query_round_trip(tmp_path, capsys):
    """Acceptance: every sweep point lands exactly one queryable row with
    bit-identical cycles, and a re-run appends nothing."""
    db = str(tmp_path / "results.db")
    assert main(["run", "fig5", "--scale", "tiny",
                 "--results-db", db, "--json"]) == 0
    series = json.loads(capsys.readouterr().out)
    points = sum(len(v["tlb_entries"]) for v in series.values())

    assert main(["query", "--db", db, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    rows = json.loads(out)
    assert len(rows) == points
    assert f"{points} row(s)" in err
    by_coord = {(r["kernel"], r["tlb_entries"]): r for r in rows}
    for kernel, data in series.items():
        for entries, fabric, hit_rate in zip(data["tlb_entries"],
                                             data["fabric_cycles"],
                                             data["hit_rate"]):
            row = by_coord[(kernel, entries)]
            assert row["fabric_cycles"] == fabric
            assert row["tlb_hit_rate"] == hit_rate
            assert row["experiment"] == "fig5_tlb_sweep"

    # Warm re-run: identical keys and sha, so the ledger is unchanged.
    assert main(["run", "fig5", "--scale", "tiny",
                 "--results-db", db, "--json"]) == 0
    capsys.readouterr()
    assert main(["query", "--db", db, "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == points


def test_query_filters_against_seeded_store(tmp_path, capsys):
    db = str(_seeded_store(tmp_path))

    assert main(["query", "--db", db, "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 3

    assert main(["query", "--db", db, "--model", "copydma",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["total_cycles"] for r in rows] == [300]

    assert main(["query", "--db", db, "--sha", "bbbbbbbbbbbb",
                 "--format", "json"]) == 0
    assert [r["total_cycles"]
            for r in json.loads(capsys.readouterr().out)] == [90]

    assert main(["query", "--db", db, "--coord", "tlb_entries=8",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["git_sha"] for r in rows} == {"aaaaaaaaaaaa", "bbbbbbbbbbbb"}

    assert main(["query", "--db", db, "--kernel", "vecadd", "--limit", "1",
                 "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1

    # Day 101 (the second seeded row) onwards, in UTC days-since-epoch.
    assert main(["query", "--db", db, "--since", "1970-04-12",
                 "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2


def test_query_output_formats(tmp_path, capsys):
    db = str(_seeded_store(tmp_path))

    assert main(["query", "--db", db,
                 "--columns", "kernel,total_cycles,git_sha"]) == 0
    out = capsys.readouterr().out
    assert "Results:" in out and "vecadd" in out and "total_cycles" in out

    assert main(["query", "--db", db, "--format", "csv",
                 "--columns", "kernel,total_cycles"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows == [{"kernel": "vecadd", "total_cycles": "100"},
                    {"kernel": "matmul", "total_cycles": "300"},
                    {"kernel": "vecadd", "total_cycles": "90"}]


def test_query_golden_row_shape(tmp_path, capsys):
    """The full query row is pinned: the record schema plus provenance."""
    import repro

    db = str(_seeded_store(tmp_path))
    assert main(["query", "--db", db, "--model", "svm",
                 "--sha", "aaaaaaaaaaaa", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{
        "experiment": "fig5", "tlb_entries": 8, "model": "svm",
        "tier": "replay", "total_cycles": 100, "fabric_cycles": 80,
        "tlb_hit_rate": 0.5, "tlb_misses": 0, "faults": 0,
        "software_overhead_cycles": 0, "marshalling_cycles": 0,
        "walks": 0, "walker_levels": 0, "walker_cycles": 0,
        "miss_stall_cycles": 0, "prefetches_issued": 0, "prefetch_hits": 0,
        "context_switches": 0, "epochs": 0, "kernel": "vecadd",
        "wall_seconds": None, "package_version": repro.__version__,
        "git_sha": "aaaaaaaaaaaa", "created": "1970-04-11T00:00:00Z",
        "key": "k1" * 32,
    }]


def test_query_trend_aggregates_across_shas(tmp_path, capsys):
    db = str(_seeded_store(tmp_path))
    assert main(["query", "--db", db, "--trend", "total_cycles",
                 "--coord", "tlb_entries=8", "--format", "json"]) == 0
    trend = json.loads(capsys.readouterr().out)
    assert [(t["git_sha"], t["runs"], t["total_cycles_mean"])
            for t in trend] == [("aaaaaaaaaaaa", 1, 100.0),
                                ("bbbbbbbbbbbb", 1, 90.0)]


def test_query_error_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_RESULTS_DB", raising=False)
    assert main(["query"]) == 2
    assert "REPRO_RESULTS_DB" in capsys.readouterr().err

    assert main(["query", "--db", str(tmp_path / "absent.db")]) == 2
    assert "does not exist" in capsys.readouterr().err

    db = str(_seeded_store(tmp_path))
    assert main(["query", "--db", db, "--coord", "bogus"]) == 2
    assert "AXIS=VALUE" in capsys.readouterr().err

    assert main(["query", "--db", db, "--since", "not-a-date"]) == 2
    assert "--since" in capsys.readouterr().err


def test_query_rejects_schema_mismatch(tmp_path, capsys):
    import sqlite3

    db = str(_seeded_store(tmp_path))
    with sqlite3.connect(db) as conn:
        conn.execute("UPDATE meta SET value = '999' "
                     "WHERE key = 'schema_version'")
    assert main(["query", "--db", db]) == 2
    assert "schema version" in capsys.readouterr().err


def test_bench_results_db_records_suite_rows(tmp_path, capsys):
    db = str(tmp_path / "bench.db")
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--only", "table3_tiny", "--output", out,
                 "--results-db", db]) == 0
    assert "recorded 1 bench row(s)" in capsys.readouterr().err

    assert main(["query", "--db", db, "--experiment", "bench",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["entry"] == "table3_tiny"
    assert rows[0]["scale"] == "tiny"
    assert rows[0]["wall_seconds"] > 0

    # Same commit, same entry: the ledger stays append-once.
    assert main(["bench", "--only", "table3_tiny", "--output", out,
                 "--results-db", db]) == 0
    assert "recorded 0 bench row(s)" in capsys.readouterr().err


def test_compare_table_output_via_shared_renderer(capsys):
    assert main(["compare", "vecadd", "--scale", "tiny",
                 "--tlb-entries", "16", "--csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 and rows[0]["workload"] == "vecadd"


@pytest.mark.parametrize("argv", [
    ["sweep", "status", "--broker", "{db}", "abc"],
    ["sweep", "submit", "--broker", "{db}", "{spec}"],
    ["worker", "--broker", "{db}"],
    ["broker", "serve", "--db", "{db}"],
    ["run", "fig5", "--scale", "tiny", "--results-db", "{db}"],
    ["query", "--db", "{db}"],
    ["bench", "--results-db", "{db}", "--output", "{out}"],
])
def test_a_directory_as_database_is_an_argument_error(argv, tmp_path,
                                                      capsys):
    """Every command that opens a database names the path and exits 2."""
    db = tmp_path / "adir"
    db.mkdir()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"label": "x", "models": ["svm"],
                                "kernels": ["vecadd"], "scale": "tiny",
                                "axes": {"tlb_entries": [8]}}))
    out = tmp_path / "bench.json"
    assert main([arg.format(db=db, spec=spec, out=out)
                 for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"repro: cannot open database {db}: " in err
    assert not out.exists()             # bench failed before its suite ran


@pytest.mark.parametrize("argv", [
    ["run", "fig8_pinning", "--scale", "tiny", "--no-cache",
     "--results-db", "{db}"],
    ["bench", "--results-db", "{db}", "--output", "{out}"],
])
def test_a_results_store_of_another_schema_is_an_argument_error(argv,
                                                                tmp_path,
                                                                capsys):
    db = tmp_path / "v1.db"
    write_v1_store(db)
    out = tmp_path / "bench.json"
    assert main([arg.format(db=db, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"repro: results store {db} has schema version 1" in err
    assert not out.exists()             # bench failed before its suite ran


@pytest.mark.parametrize("argv", [
    ["sweep", "status", "--broker", "{db}", "abc"],
    ["query", "--db", "{db}"],
])
def test_a_file_that_is_not_sqlite_is_an_argument_error(argv, tmp_path,
                                                        capsys):
    db = tmp_path / "junk.db"
    db.write_bytes(bytes(range(256)) * 16)
    assert main([arg.format(db=db) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"repro: cannot open database {db}: file is not a database" in err
