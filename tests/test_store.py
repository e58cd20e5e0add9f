"""Tests for the append-only results store (repro.store)."""

import pickle
import sqlite3
from contextlib import closing

import pytest

import repro
from repro.eval.harness import HarnessConfig
from repro.exec.jobs import ExperimentJob, run_job
from repro.exec.keys import stable_key
from repro.models import RECORD_FIELDS, RunOutcome
from repro.store import (ResultsStore, SCHEMA_VERSION, SchemaMismatchError,
                         open_results_store)
from repro.workloads import workload


def _outcome(total=100, fabric=80, model="svm", tier="event", **breakdown):
    return RunOutcome(model=model, total_cycles=total, fabric_cycles=fabric,
                      tlb_hit_rate=0.5, tlb_misses=4, faults=1,
                      software_overhead_cycles=10,
                      breakdown=breakdown or None, tier=tier)


def _store(tmp_path, **kwargs):
    kwargs.setdefault("clock", lambda: 1_000_000.0)
    kwargs.setdefault("sha", "abc123def456")
    return ResultsStore(tmp_path / "results.db", **kwargs)


#: A schema-1 store: the outcomes' pickles sat in ``runs.value``.
_V1_LAYOUT = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
INSERT INTO meta VALUES ('schema_version', '1');
CREATE TABLE runs (
    id INTEGER PRIMARY KEY, key TEXT NOT NULL,
    experiment TEXT NOT NULL DEFAULT '', model TEXT, kernel TEXT, tier TEXT,
    coords TEXT, total_cycles INTEGER, fabric_cycles INTEGER,
    record TEXT NOT NULL, value BLOB, wall_seconds REAL,
    package_version TEXT NOT NULL, git_sha TEXT NOT NULL,
    created REAL NOT NULL, UNIQUE (key, git_sha));
"""


def write_v1_store(path):
    """Create a results store file in the schema-1 layout at ``path``."""
    with closing(sqlite3.connect(path)) as db:
        db.executescript(_V1_LAYOUT)


# ---------------------------------------------------------------------------
# Canonical record schema
# ---------------------------------------------------------------------------
def test_record_fields_schema_is_pinned():
    """The flat record schema is an API: changing it needs SCHEMA_VERSION
    thought, golden updates and a deliberate edit here."""
    assert RECORD_FIELDS == (
        "model", "tier", "total_cycles", "fabric_cycles", "tlb_hit_rate",
        "tlb_misses", "faults", "software_overhead_cycles",
        "marshalling_cycles", "walks", "walker_levels", "walker_cycles",
        "miss_stall_cycles", "prefetches_issued", "prefetch_hits",
        "context_switches", "epochs")


def test_to_record_covers_every_pinned_field():
    record = _outcome(walks=7).to_record()
    assert set(record) == set(RECORD_FIELDS)
    assert record["model"] == "svm"
    assert record["total_cycles"] == 100
    assert record["walks"] == 7
    assert record["epochs"] == 0                 # absent breakdown -> 0


def test_to_record_merges_coords_without_clobbering_outcome_fields():
    record = _outcome().to_record({"tlb_entries": 8, "model": "WRONG"})
    assert record["tlb_entries"] == 8
    assert record["model"] == "svm"              # outcome wins on collision


# ---------------------------------------------------------------------------
# Recording and dedup
# ---------------------------------------------------------------------------
def test_record_and_query_round_trip(tmp_path):
    store = _store(tmp_path)
    assert store.record("k1" * 32, _outcome(walks=3), experiment="fig5",
                        coords={"tlb_entries": 8}, kernel="vecadd")
    rows = store.query()
    assert len(rows) == 1
    row = rows[0]
    assert row["experiment"] == "fig5"
    assert row["kernel"] == "vecadd"
    assert row["tlb_entries"] == 8
    assert row["total_cycles"] == 100
    assert row["walks"] == 3
    assert row["git_sha"] == "abc123def456"
    assert row["package_version"] == repro.__version__
    assert row["created"] == "1970-01-12T13:46:40Z"


def test_record_is_idempotent_per_key_and_sha(tmp_path):
    store = _store(tmp_path)
    key = "a" * 64
    assert store.record(key, _outcome()) is True
    assert store.record(key, _outcome()) is False      # same (key, sha): no-op
    assert len(store) == 1
    other = ResultsStore(tmp_path / "results.db", sha="fffff1111112",
                         clock=lambda: 2_000_000.0)
    assert other.record(key, _outcome(total=101)) is True   # new sha: new row
    assert len(other) == 2


def test_a_recorded_key_is_skipped_before_its_row_is_built(tmp_path,
                                                           monkeypatch):
    """A second record of the same key and sha returns False before it
    pickles the outcome (or builds anything else for the row)."""
    store = _store(tmp_path)
    key = "a" * 64
    assert store.record(key, _outcome()) is True
    pickled = []

    def dumps(*args, **kwargs):
        pickled.append(args)
        raise AssertionError("pickled an outcome that is not inserted")

    monkeypatch.setattr(pickle, "dumps", dumps)
    assert store.record(key, _outcome(total=101)) is False
    assert pickled == []
    assert len(store) == 1
    assert store.get_value(key).total_cycles == 100


def test_query_filters(tmp_path):
    store = _store(tmp_path)
    store.record("a" * 64, _outcome(model="svm"), experiment="fig5",
                 coords={"tlb_entries": 8}, kernel="vecadd")
    store.record("b" * 64, _outcome(model="copydma"), experiment="fig5",
                 coords={"tlb_entries": 16}, kernel="matmul")
    store.record("c" * 64, _outcome(model="svm"), experiment="fig8",
                 kernel="vecadd")

    assert len(store.query(experiment="fig5")) == 2
    assert len(store.query(model="copydma")) == 1
    assert len(store.query(kernel="vecadd")) == 2
    assert len(store.query(experiment="fig5", kernel="vecadd")) == 1
    # Coord values match after str(): CLI-supplied strings find stored ints.
    assert len(store.query(coords={"tlb_entries": "16"})) == 1
    assert store.query(coords={"tlb_entries": 99}) == []
    assert len(store.query(limit=2)) == 2
    assert len(store.query(sha="abc123def456")) == 3
    assert store.query(sha="nope") == []


def test_query_time_bounds(tmp_path):
    ticks = iter([100.0, 200.0, 300.0])
    store = ResultsStore(tmp_path / "r.db", clock=lambda: next(ticks),
                         sha="s1")
    for i in range(3):
        store.record(f"{i}" * 64, _outcome())
    assert len(store.query(since=150.0)) == 2
    assert len(store.query(until=250.0)) == 2
    assert len(store.query(since=150.0, until=250.0)) == 1


def test_trend_aggregates_per_sha(tmp_path):
    path = tmp_path / "r.db"
    for sha, totals in (("sha1" * 3, (100, 200)), ("sha2" * 3, (300, 500))):
        store = ResultsStore(path, sha=sha, clock=lambda: 1.0)
        for i, total in enumerate(totals):
            store.record(f"{sha}{i}", _outcome(total=total))
        store.close()
    trend = ResultsStore(path, sha="x" * 12).trend("total_cycles")
    assert [row["git_sha"] for row in trend] == ["sha1" * 3, "sha2" * 3]
    assert trend[0]["runs"] == 2
    assert trend[0]["total_cycles_min"] == 100
    assert trend[0]["total_cycles_mean"] == 150
    assert trend[1]["total_cycles_max"] == 500


def test_arbitrary_outcomes_become_records(tmp_path):
    store = _store(tmp_path)
    store.record("a" * 64, {"total_cycles": 5, "model": "m"},
                 experiment="dicts")
    store.record("b" * 64, 42, experiment="scalars")
    rows = store.query(experiment="dicts")
    assert rows[0]["total_cycles"] == 5 and rows[0]["model"] == "m"
    assert store.query(experiment="scalars")[0]["value"] == 42


# ---------------------------------------------------------------------------
# get_value: the broker/runner adoption path
# ---------------------------------------------------------------------------
def test_get_value_round_trips_the_outcome(tmp_path):
    store = _store(tmp_path)
    outcome = _outcome(walks=9)
    store.record("k" * 64, outcome)
    assert store.get_value("k" * 64) == outcome
    assert "k" * 64 in store
    assert store.get_value("missing" * 9 + "x", "fallback") == "fallback"


def test_get_value_ignores_rows_from_other_package_versions(tmp_path):
    store = _store(tmp_path)
    store.record("k" * 64, _outcome())
    # Rewrite the value's namespace as if an older release had written it.
    with sqlite3.connect(store.path) as db:
        db.execute("UPDATE memo SET namespace = 'v0.0.1'")
    assert store.get_value("k" * 64) is None
    assert ("k" * 64 in store) is False
    # Still visible to queries — history is never hidden, only not adopted.
    assert len(store.query()) == 1


def test_warm_values_bulk_fetches_current_version_rows_only(tmp_path):
    store = _store(tmp_path)
    outcomes = {f"{i}" * 64: _outcome(total=100 + i) for i in range(3)}
    for key, outcome in outcomes.items():
        store.record(key, outcome)
    # Age one value out: other-version rows are queryable but never adopted.
    with sqlite3.connect(store.path) as db:
        db.execute("UPDATE memo SET namespace = 'v0.0.1' WHERE key = ?",
                   ("2" * 64,))
    found = store.warm_values(list(outcomes) + ["missing" * 9 + "x"])
    assert found == {"0" * 64: outcomes["0" * 64],
                     "1" * 64: outcomes["1" * 64]}


def test_warm_values_newest_row_wins_across_shas(tmp_path):
    store = _store(tmp_path)
    store.record("k" * 64, _outcome(total=100))
    later = ResultsStore(tmp_path / "results.db", sha="fffff1111112",
                         clock=lambda: 2_000_000.0)
    later.record("k" * 64, _outcome(total=222))
    assert later.warm_values(["k" * 64])["k" * 64].total_cycles == 222


def test_a_value_of_another_code_version_is_never_served(tmp_path,
                                                        monkeypatch):
    store = _store(tmp_path)
    store.record("k" * 64, _outcome(total=100))
    monkeypatch.setattr("repro.__version__", "999.0.0")
    assert store.get_value("k" * 64) is None
    assert store.warm_values(["k" * 64]) == {}
    assert ("k" * 64 in store) is False
    # The row stays queryable, with the version that wrote it.
    (row,) = store.query()
    assert row["package_version"] != "999.0.0" and row["total_cycles"] == 100
    # Recorded again at another commit, the point is served to this code.
    later = _store(tmp_path, sha="fffff1111112")
    later.record("k" * 64, _outcome(total=222))
    assert store.get_value("k" * 64).total_cycles == 222


def test_the_store_keeps_one_value_per_code_version_and_key(tmp_path):
    store = _store(tmp_path)
    store.record("k" * 64, _outcome(total=100))
    _store(tmp_path, sha="fffff1111112").record("k" * 64, _outcome(total=222))
    assert len(store.query()) == 2
    with closing(sqlite3.connect(store.path)) as db:
        assert db.execute("SELECT COUNT(*) FROM memo").fetchone() == (1,)
    assert store.get_value("k" * 64).total_cycles == 222


def test_warm_values_spans_query_chunks(tmp_path):
    # One call with more keys than a single SQLite IN(...) chunk holds.
    store = _store(tmp_path)
    for i in range(450):
        store.record(f"{i:064d}", _outcome(total=i))
    found = store.warm_values([f"{i:064d}" for i in range(500)])
    assert len(found) == 450
    assert found[f"{49:064d}"].total_cycles == 49


# ---------------------------------------------------------------------------
# Schema versioning
# ---------------------------------------------------------------------------
def test_schema_mismatch_raises_clear_error(tmp_path):
    store = _store(tmp_path)
    store.close()
    with sqlite3.connect(tmp_path / "results.db") as db:
        db.execute("UPDATE meta SET value = ? WHERE key = 'schema_version'",
                   (str(SCHEMA_VERSION + 1),))
    with pytest.raises(SchemaMismatchError, match="schema version"):
        ResultsStore(tmp_path / "results.db")


def test_a_schema_1_store_is_refused_and_left_as_it_was(tmp_path):
    path = tmp_path / "v1.db"
    write_v1_store(path)
    with pytest.raises(SchemaMismatchError,
                       match="schema version 1, this build expects 2"):
        ResultsStore(path)
    with closing(sqlite3.connect(path)) as db:
        assert db.execute("SELECT name FROM sqlite_master WHERE name ="
                          " 'memo'").fetchall() == []


# ---------------------------------------------------------------------------
# Concurrent multi-process writers (the CI/fleet scenario)
# ---------------------------------------------------------------------------
def _store_stress_worker(args):
    """One process appending its own keys plus contended shared keys."""
    path, worker, rounds = args
    from repro.store import ResultsStore

    store = ResultsStore(path, sha="stress" * 2)
    try:
        for i in range(rounds):
            store.record(f"own-{worker}-{i}", {"worker": worker, "i": i},
                         experiment="own")
            # Every process races to insert the same shared key; the
            # (key, sha) unique index must let exactly one in.
            store.record(f"shared-{i}", {"i": i}, experiment="shared")
        return "ok"
    except Exception as exc:                     # pragma: no cover - failure
        return f"{type(exc).__name__}: {exc}"
    finally:
        store.close()


def test_concurrent_writers_append_without_corruption(tmp_path):
    import concurrent.futures

    path = str(tmp_path / "results.db")
    rounds = 25
    jobs = [(path, worker, rounds) for worker in range(4)]
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(_store_stress_worker, jobs))
    except OSError:
        pytest.skip("sandbox does not allow worker processes")
    assert outcomes == ["ok"] * 4
    store = ResultsStore(path, sha="stress" * 2)
    assert len(store.query(experiment="own")) == 4 * rounds
    # The contended keys deduped down to one row each.
    assert len(store.query(experiment="shared")) == rounds


# ---------------------------------------------------------------------------
# open_results_store: the strictly-opt-in env seam
# ---------------------------------------------------------------------------
def test_open_results_store_is_opt_in(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RESULTS_DB", raising=False)
    assert open_results_store() is None
    monkeypatch.setenv("REPRO_RESULTS_DB", str(tmp_path / "env.db"))
    store = open_results_store()
    assert store is not None
    # Same path -> the same process-global store instance.
    assert open_results_store(tmp_path / "env.db") is store


# ---------------------------------------------------------------------------
# End-to-end: runner -> store carries real simulation outcomes
# ---------------------------------------------------------------------------
def test_runner_recorded_rows_match_inprocess_outcomes(tmp_path):
    from repro.exec import SweepRunner

    store = _store(tmp_path)
    jobs = [ExperimentJob("svm", workload("vecadd", scale="tiny"),
                          HarnessConfig(tlb_entries=entries))
            for entries in (4, 8)]
    coords = [{"tlb_entries": 4}, {"tlb_entries": 8}]
    runner = SweepRunner(results=store)
    outcomes = runner.map(run_job, jobs, label="fig5", coords=coords)

    rows = store.query(experiment="fig5")
    assert len(rows) == 2
    for row, outcome, coord in zip(rows, outcomes, coords):
        assert row["total_cycles"] == outcome.total_cycles
        assert row["fabric_cycles"] == outcome.fabric_cycles
        assert row["tlb_entries"] == coord["tlb_entries"]
        assert row["kernel"] == "vecadd"
        assert row["key"] == stable_key(run_job, jobs[coords.index(coord)])
    # Stored pickles round-trip bit-identically for warm-start adoption.
    for job, outcome in zip(jobs, outcomes):
        assert store.get_value(stable_key(run_job, job)) == outcome
    # A warm re-run (cache hit or recompute) appends nothing new.
    runner.map(run_job, jobs, label="fig5", coords=coords)
    assert len(store.query(experiment="fig5")) == 2


def test_record_json_survives_unserializable_values(tmp_path):
    store = _store(tmp_path)
    store.record("u" * 64, {"weird": object()}, experiment="odd")
    row = store.query(experiment="odd")[0]
    assert "weird" in row                        # stringified, not dropped
    assert isinstance(row["weird"], str)
