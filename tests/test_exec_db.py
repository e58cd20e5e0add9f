"""Tests for the shared SQLite opener and value table behind the memo,
results and broker."""

import multiprocessing
import pickle
import sqlite3
from contextlib import closing

import pytest

from repro.dist import SQLiteBroker
from repro.exec import MemoCache
from repro.exec.db import (VALUE_SCHEMA, add_value, code_namespace, open_db,
                           put_value, read_values)
from repro.store import ResultsStore

_SCHEMA = "CREATE TABLE IF NOT EXISTS t (k TEXT PRIMARY KEY);"


def _open_after(barrier, path):
    barrier.wait(timeout=30)
    open_db(path, _SCHEMA).close()


def test_processes_racing_to_create_one_file_all_open_it(tmp_path):
    # Eight processes released at once onto a file none has created: each
    # must open it, although switching a new file to WAL deadlocks some of
    # them.  Twenty rounds, because a round does not always race.
    context = multiprocessing.get_context("fork")
    for round_ in range(20):
        path = tmp_path / f"race-{round_}.db"
        barrier = context.Barrier(8)
        processes = [context.Process(target=_open_after, args=(barrier, path))
                     for _ in range(8)]
        try:
            for process in processes:
                process.start()
        except OSError:
            pytest.skip("sandbox does not allow worker processes")
        for process in processes:
            process.join(timeout=60)
        assert [process.exitcode for process in processes] == [0] * 8
        with closing(sqlite3.connect(path)) as db:
            assert db.execute("PRAGMA journal_mode").fetchone() == ("wal",)


#: The memo table as a memo cache written before the results store and the
#: broker shared it left it in ``sqlite_master``.
_MEMO_DDL = """CREATE TABLE memo (
    namespace TEXT NOT NULL,
    key       TEXT NOT NULL,
    value     BLOB NOT NULL,
    used      REAL NOT NULL,
    PRIMARY KEY (namespace, key))"""


def test_every_file_keeps_its_values_in_the_memo_layout(tmp_path):
    MemoCache(path=tmp_path / "memo")
    ResultsStore(tmp_path / "results.db", sha="s").close()
    SQLiteBroker(tmp_path / "broker.db").close()
    for path in (tmp_path / "memo" / "memo.sqlite", tmp_path / "results.db",
                 tmp_path / "broker.db"):
        with closing(sqlite3.connect(path)) as db:
            assert db.execute("SELECT sql FROM sqlite_master WHERE name ="
                              " 'memo'").fetchone() == (_MEMO_DDL,), path


def test_a_memo_file_of_the_earlier_layout_reads_unchanged(tmp_path):
    with closing(sqlite3.connect(tmp_path / "memo.sqlite")) as db:
        db.execute(_MEMO_DDL)
        db.execute("INSERT INTO memo VALUES (?, ?, ?, 1.0)",
                   (code_namespace(), "k" * 64, pickle.dumps([1, 2])))
        db.commit()
    assert MemoCache(path=tmp_path).get("k" * 64) == [1, 2]


def test_read_values_spans_chunks_and_reads_one_namespace(tmp_path):
    db = open_db(tmp_path / "values.db", VALUE_SCHEMA)
    for i in range(450):
        put_value(db, "v1", f"k{i}", b"old", 0.0)
        assert add_value(db, "v2", f"k{i}", b"new", 0.0)
    assert not add_value(db, "v2", "k0", b"newer", 1.0)     # first wins
    put_value(db, "v2", "k1", b"newest", 1.0)               # replaced
    rows = dict(read_values(db, "v2", [f"k{i}" for i in range(500)]))
    assert len(rows) == 450
    assert (rows["k0"], rows["k1"], rows["k449"]) == (b"new", b"newest",
                                                      b"new")
    db.close()
