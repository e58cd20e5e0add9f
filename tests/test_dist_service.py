"""Tests for the sweep service front-end (spec expansion, submit/poll, CLI)."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.dist import (SQLiteBroker, SpecError, Worker, expand_spec,
                        iter_results, submit_sweep)
from repro.eval.harness import HarnessConfig
from repro.exec import ExperimentJob, run_job
from repro.workloads import workload


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Keep CLI/service cache writes out of the repository working tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture()
def broker(tmp_path):
    broker = SQLiteBroker(tmp_path / "service.db")
    yield broker
    broker.close()


SPEC = {
    "label": "fig5-grid",
    "models": ["svm"],
    "kernels": ["vecadd"],
    "scale": "tiny",
    "axes": {"tlb_entries": [8, 16, 32]},
}


# ---------------------------------------------------------------------------
# Spec validation and expansion
# ---------------------------------------------------------------------------
def test_expand_spec_builds_the_expected_grid():
    sweep = expand_spec(SPEC)
    assert sweep.label == "fig5-grid"
    assert len(sweep) == 3
    coords = [dict(point.coords) for point in sweep.points]
    assert coords == [
        {"model": "svm", "kernel": "vecadd", "tlb_entries": 8},
        {"model": "svm", "kernel": "vecadd", "tlb_entries": 16},
        {"model": "svm", "kernel": "vecadd", "tlb_entries": 32},
    ]
    job = sweep.points[0].job
    assert job.kind == "svm" and job.config.tlb_entries == 8


def test_expand_spec_applies_fixed_config_and_tier():
    sweep = expand_spec({**SPEC, "config": {"shared_walker": True},
                         "tier": "event", "num_threads": 2})
    for point in sweep.points:
        assert point.job.config.shared_walker is True
        assert point.job.tier == "event"
        assert point.job.num_threads == 2


@pytest.mark.parametrize("mutation, fragment", [
    ({"models": ["nope"]}, "unknown execution model"),
    ({"kernels": ["nope"]}, "unknown kernel"),
    ({"models": []}, "non-empty list"),
    ({"axes": {"no_such_knob": [1]}}, "unknown HarnessConfig field"),
    ({"config": {"no_such_knob": 1}}, "unknown HarnessConfig field"),
    ({"axes": {"model": ["svm"]}}, "reserved"),
    ({"axes": {"tlb_entries": []}}, "non-empty list"),
    ({"axes": {"tlb_entries": [8]}, "config": {"tlb_entries": 16}}, "both"),
    ({"tier": "warp"}, "tier"),
    ({"num_threads": 0}, "positive integer"),
    ({"surprise": True}, "unknown spec field"),
])
def test_expand_spec_rejects_bad_specs(mutation, fragment):
    with pytest.raises(SpecError) as excinfo:
        expand_spec({**SPEC, **mutation})
    assert fragment in str(excinfo.value)


def test_expand_spec_rejects_non_object():
    with pytest.raises(SpecError):
        expand_spec(["not", "a", "spec"])


# ---------------------------------------------------------------------------
# Submit / status / results round-trip
# ---------------------------------------------------------------------------
def test_submit_drain_results_roundtrip(broker):
    ticket = submit_sweep(broker, SPEC)
    assert ticket.total == 3 and ticket.already_done == 0
    status = broker.status(ticket.sweep_id)
    assert status["label"] == "fig5-grid" and status["pending"] == 3
    assert json.loads(status["spec"])["axes"] == SPEC["axes"]

    Worker(broker, worker_id="w1").run_until_idle()

    records = list(iter_results(broker, ticket.sweep_id))
    assert [r["position"] for r in records] == [0, 1, 2]
    for record, entries in zip(records, (8, 16, 32)):
        assert record["state"] == "done"
        assert record["coords"] == {"model": "svm", "kernel": "vecadd",
                                    "tlb_entries": entries}
        direct = run_job(ExperimentJob(
            "svm", workload("vecadd", scale="tiny"),
            HarnessConfig(tlb_entries=entries)))
        assert record["outcome"] == dataclasses.asdict(direct)


def test_submitted_keys_match_in_process_runs(broker, tmp_path):
    """A library run's memo entries resolve a later service submission."""
    from repro.exec import MemoCache, SweepRunner

    cache = MemoCache(path=tmp_path / "shared")
    SweepRunner(jobs=1, cache=cache).map(
        run_job,
        [ExperimentJob("svm", workload("vecadd", scale="tiny"),
                       HarnessConfig(tlb_entries=entries))
         for entries in (8, 16, 32)])

    ticket = submit_sweep(broker, SPEC, memo=cache)
    assert ticket.already_done == 3              # no worker needed at all
    assert broker.status(ticket.sweep_id)["finished"]


def test_iter_results_follow_terminates_and_times_out(broker):
    ticket = submit_sweep(broker, SPEC)
    with pytest.raises(TimeoutError):
        list(iter_results(broker, ticket.sweep_id, follow=True,
                          poll_interval=0.01, timeout=0.2))
    Worker(broker, worker_id="w1").run_until_idle()
    records = list(iter_results(broker, ticket.sweep_id, follow=True,
                                timeout=10.0))
    assert len(records) == 3


def test_iter_results_unknown_sweep_raises(broker):
    with pytest.raises(KeyError):
        list(iter_results(broker, "nope"))


# ---------------------------------------------------------------------------
# CLI round-trip
# ---------------------------------------------------------------------------
def test_cli_submit_worker_results_roundtrip(tmp_path, capsys):
    broker_path = str(tmp_path / "cli.db")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))

    assert main(["sweep", "submit", "--broker", broker_path,
                 str(spec_path), "--id-only"]) == 0
    sweep_id = capsys.readouterr().out.strip()
    assert sweep_id

    assert main(["sweep", "status", "--broker", broker_path, sweep_id]) == 0
    assert "3 pending" in capsys.readouterr().out

    assert main(["worker", "--broker", broker_path]) == 0
    assert "executed 3 job(s)" in capsys.readouterr().err

    assert main(["sweep", "results", "--broker", broker_path, sweep_id,
                 "--follow", "--timeout", "60"]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines() if line]
    assert [r["position"] for r in lines] == [0, 1, 2]
    direct = run_job(ExperimentJob("svm", workload("vecadd", scale="tiny"),
                                   HarnessConfig(tlb_entries=16)))
    assert lines[1]["outcome"] == dataclasses.asdict(direct)

    assert main(["sweep", "status", "--broker", broker_path, sweep_id,
                 "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["finished"] and status["done"] == 3

    assert main(["sweep", "list", "--broker", broker_path]) == 0
    assert sweep_id in capsys.readouterr().out


def test_cli_worker_uses_shared_cache(tmp_path, capsys):
    """A second identical submission is resolved without re-execution."""
    broker_path = str(tmp_path / "cli.db")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))

    for _ in range(2):
        assert main(["sweep", "submit", "--broker", broker_path,
                     str(spec_path), "--id-only"]) == 0
    first_id, second_id = capsys.readouterr().out.split()

    assert main(["worker", "--broker", broker_path]) == 0
    capsys.readouterr()
    # One drain resolved both sweeps: identical keys, one execution each.
    for sweep_id in (first_id, second_id):
        assert main(["sweep", "status", "--broker", broker_path, sweep_id,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["finished"]


def test_cli_submit_rejects_invalid_spec(tmp_path, capsys):
    broker_path = str(tmp_path / "cli.db")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SPEC, "models": ["nope"]}))
    assert main(["sweep", "submit", "--broker", broker_path,
                 str(bad)]) == 2
    assert "invalid sweep spec" in capsys.readouterr().err

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["sweep", "submit", "--broker", broker_path,
                 str(notjson)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_status_unknown_sweep(tmp_path, capsys):
    broker_path = str(tmp_path / "cli.db")
    assert main(["sweep", "status", "--broker", broker_path, "nope"]) == 2
    assert "unknown sweep" in capsys.readouterr().err
    assert main(["sweep", "results", "--broker", broker_path, "nope"]) == 2


def test_cli_reading_commands_create_no_broker(tmp_path, capsys):
    """``status``, ``results`` and ``list`` on a missing SQLite broker exit 2
    naming the path, and create neither the file nor its directory."""
    broker_path = str(tmp_path / "no" / "b.db")
    for command in (["status", "abc"], ["results", "abc"], ["list"]):
        assert main(["sweep", command[0], "--broker", broker_path,
                     *command[1:]]) == 2
        assert f"no broker database at {broker_path}" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


# ---------------------------------------------------------------------------
# Results store through the service boundary
# ---------------------------------------------------------------------------
def test_submit_adopts_results_store_rows(broker, tmp_path):
    """Points a past run persisted resolve at submit, without a worker."""
    from repro.exec.keys import stable_key
    from repro.store import ResultsStore

    store = ResultsStore(tmp_path / "results.db", sha="feed" * 3)
    for point in expand_spec(SPEC).points:
        store.record(stable_key(run_job, point.job), run_job(point.job),
                     experiment="past")

    ticket = submit_sweep(broker, SPEC, results=store)
    assert ticket.already_done == 3
    assert broker.status(ticket.sweep_id)["finished"]
    records = list(iter_results(broker, ticket.sweep_id))
    assert {r["worker"] for r in records} == {"store"}


def test_cli_submit_with_results_db_and_table_output(tmp_path, capsys):
    import csv as csv_mod
    import io

    broker_path = str(tmp_path / "cli.db")
    db = str(tmp_path / "results.db")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))

    assert main(["sweep", "submit", "--broker", broker_path,
                 "--results-db", db, str(spec_path), "--id-only"]) == 0
    sweep_id = capsys.readouterr().out.strip()
    assert main(["worker", "--broker", broker_path]) == 0
    capsys.readouterr()

    assert main(["sweep", "results", "--broker", broker_path, sweep_id,
                 "--follow", "--timeout", "60", "--format", "csv"]) == 0
    rows = list(csv_mod.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["tlb_entries"] for row in rows] == ["8", "16", "32"]
    assert all(row["state"] == "done" for row in rows)
    assert all(int(row["total_cycles"]) > 0 for row in rows)

    assert main(["sweep", "results", "--broker", broker_path, sweep_id,
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert f"Sweep {sweep_id}" in out and "total_cycles" in out

    # Seed the store from an in-process run (the worker loop itself does
    # not write stores), then submit to a *fresh* broker with the memo
    # cache disabled: every point adopts from the results store alone.
    from repro.exec import SweepRunner
    from repro.store import ResultsStore

    store = ResultsStore(db)
    SweepRunner(results=store).map(
        run_job, [point.job for point in expand_spec(SPEC).points],
        label="seed")
    assert main(["sweep", "submit", "--broker", str(tmp_path / "fresh.db"),
                 "--no-cache", "--results-db", db, str(spec_path)]) == 0
    assert "3 already resolved" in capsys.readouterr().out
