"""The one opener of the package's SQLite files (memo, results, broker)."""

from __future__ import annotations

import os
import sqlite3
import time
from pathlib import Path
from typing import Union


class DatabaseOpenError(OSError):
    """A database file cannot be opened: it names a directory, is not an
    SQLite database, or is otherwise unusable.  The message names the path.
    """

    def __init__(self, path: Union[str, os.PathLike], reason: object) -> None:
        super().__init__(f"cannot open database {os.fspath(path)}: {reason}")
        self.path = os.fspath(path)


def open_db(path: Union[str, os.PathLike], schema: str, *,
            busy_timeout: float = 30.0) -> sqlite3.Connection:
    """Open the WAL-mode database at ``path``, creating it and its parents.

    Many processes may open one file.  The connection is in autocommit mode
    and may be used from any thread; each caller guards it with a lock.  A
    path that cannot be opened raises :class:`DatabaseOpenError`.
    """
    db = None
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        db = sqlite3.connect(path, timeout=busy_timeout,
                             check_same_thread=False, isolation_level=None)
        # Processes racing to switch a new file to WAL deadlock on its lock,
        # which SQLite breaks by failing some of them at once: they retry.
        deadline = time.monotonic() + busy_timeout
        while True:
            try:
                db.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        db.execute("PRAGMA synchronous=NORMAL")
        db.executescript(schema)
    except (OSError, sqlite3.Error) as exc:
        if db is not None:
            db.close()
        raise DatabaseOpenError(path, exc) from exc
    return db
