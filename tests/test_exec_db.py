"""Tests for the shared SQLite opener behind the memo, results and broker."""

import multiprocessing
import sqlite3
from contextlib import closing

import pytest

from repro.exec.db import open_db

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
