"""The one opener of the package's SQLite files (memo, results, broker),
and the value table each keeps: the pickled value of a ``stable_key`` under
the :func:`code_namespace` of the code that computed it.  Callers hold
their own lock and transaction around the statements below."""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

if TYPE_CHECKING:
    import sqlite3

#: The value table, in the memo cache's layout, so that every
#: ``memo.sqlite`` reads unchanged.
VALUE_SCHEMA = """CREATE TABLE IF NOT EXISTS memo (
    namespace TEXT NOT NULL,
    key       TEXT NOT NULL,
    value     BLOB NOT NULL,
    used      REAL NOT NULL,
    PRIMARY KEY (namespace, key))"""

#: Keys per ``IN`` list: comfortably under SQLite's host-parameter limit.
_CHUNK = 400


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
    import sqlite3          # lazily: in-memory memo caches open no file
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


def code_namespace() -> str:
    """The running code's value namespace; none is made elsewhere."""
    from .. import __version__      # lazily: ``repro`` imports this package
    return f"v{__version__}"


def read_values(db: sqlite3.Connection, namespace: str,
                keys: Sequence[str]) -> List[Tuple[str, bytes]]:
    """The ``(key, value)`` rows ``namespace`` holds for ``keys``."""
    rows: List[Tuple[str, bytes]] = []
    for start in range(0, len(keys), _CHUNK):
        chunk = keys[start:start + _CHUNK]
        rows += db.execute(
            "SELECT key, value FROM memo WHERE namespace = ? AND key IN ("
            + ",".join("?" * len(chunk)) + ")", (namespace, *chunk))
    return rows


def put_value(db: sqlite3.Connection, namespace: str, key: str,
              value: bytes, used: float) -> None:
    """Store ``key``'s value, replacing the one ``namespace`` held."""
    db.execute("INSERT OR REPLACE INTO memo VALUES (?, ?, ?, ?)",
               (namespace, key, value, used))


def add_value(db: sqlite3.Connection, namespace: str, key: str,
              value: bytes, used: float) -> bool:
    """Store ``key``'s value unless ``namespace`` holds one; True if stored."""
    return db.execute("INSERT OR IGNORE INTO memo VALUES (?, ?, ?, ?)",
                      (namespace, key, value, used)).rowcount > 0
