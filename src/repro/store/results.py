"""Append-only SQLite results store: one row per computed outcome.

Every run today evaporates when the process exits — ad-hoc JSON files,
golden fixtures, CI artifacts.  :class:`ResultsStore` is the persistent
ledger behind ``--results-db`` / ``REPRO_RESULTS_DB``: one row per
:class:`~repro.models.base.RunOutcome` (or benchmark record), carrying

* the memo ``stable_key`` (:func:`repro.exec.keys.stable_key`) — the same
  content address the :class:`~repro.exec.cache.MemoCache` and the
  distributed broker use, so "has this exact point ever been run" is one
  indexed lookup,
* the sweep coordinates and the experiment label the point belonged to,
* the canonical flat record (``RunOutcome.to_record()``: cycles, TLB/fault/
  telemetry aggregates, tier) as queryable columns plus the full JSON,
* provenance: package version, git sha, wall time, timestamp.

The store is **append-only**: rows are deduplicated by ``(key, git_sha)``
with ``INSERT OR IGNORE``, so re-running an unchanged sweep appends nothing,
while the same point computed at a different commit lands a new row — that
is what makes cross-sha trend queries (``repro query --trend``) possible.
The outcomes themselves are pickled into the file's value table
(:mod:`repro.exec.db`): one per code version and key, the newest row's.

Like the broker and the memo cache it is one WAL-mode SQLite file, safe for
many concurrent writer processes (workers, runners, CI jobs), with an
injectable ``clock`` and ``sha`` so tests pin rows deterministically.  The
schema is versioned in a ``meta`` table; opening a store written by an
incompatible schema raises :class:`SchemaMismatchError` instead of
guessing.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import threading
import time
from contextlib import suppress
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..exec.db import (VALUE_SCHEMA, code_namespace, open_db, put_value,
                       read_values)
from ..exec.keys import stable_key

#: Bump on any incompatible change to the file's layout.  Version 2 moved
#: the pickled outcomes from ``runs.value`` into the value table.
SCHEMA_VERSION = 2

_MISSING = object()

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id              INTEGER PRIMARY KEY,
    key             TEXT NOT NULL,
    experiment      TEXT NOT NULL DEFAULT '',
    model           TEXT,
    kernel          TEXT,
    tier            TEXT,
    coords          TEXT,
    total_cycles    INTEGER,
    fabric_cycles   INTEGER,
    record          TEXT NOT NULL,
    wall_seconds    REAL,
    package_version TEXT NOT NULL,
    git_sha         TEXT NOT NULL,
    created         REAL NOT NULL,
    UNIQUE (key, git_sha)
);
CREATE INDEX IF NOT EXISTS runs_by_experiment ON runs (experiment);
CREATE INDEX IF NOT EXISTS runs_by_sha        ON runs (git_sha);
"""


class SchemaMismatchError(RuntimeError):
    """The store on disk was written by an incompatible schema version."""


def git_sha() -> str:
    """Commit identity for provenance columns and bench report filenames.

    ``GITHUB_SHA`` when CI provides it, the working tree's ``HEAD``
    otherwise, and the literal ``"local"`` outside any repository.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha[:12]
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "local"


def _iso(timestamp: float) -> str:
    """Timestamps as sortable UTC ISO strings in query output."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def _as_record(outcome: Any, coords: Optional[Mapping[str, Any]]
               ) -> Dict[str, Any]:
    """Any outcome -> the canonical flat record dict.

    :class:`~repro.models.base.RunOutcome` (and anything else providing
    ``to_record``) defines its own schema; mappings and dataclasses are
    taken field-by-field; scalars land under a ``value`` column.
    """
    to_record = getattr(outcome, "to_record", None)
    if callable(to_record):
        return to_record(coords)
    record = dict(coords) if coords else {}
    if isinstance(outcome, Mapping):
        record.update(outcome)
    elif is_dataclass(outcome) and not isinstance(outcome, type):
        record.update(asdict(outcome))
    else:
        record["value"] = outcome
    return record


class ResultsStore:
    """The append-only run ledger: one WAL-mode SQLite file, many writers.

    Parameters
    ----------
    path:
        The SQLite file (created, with parents, on first use).
    clock:
        Injectable time source for the ``created`` column, so tests pin
        rows without sleeping or stamping wall time.
    sha:
        Override the git sha recorded on every row (default:
        :func:`git_sha` resolved once at open).
    """

    def __init__(self, path: Union[str, os.PathLike], *,
                 clock: Callable[[], float] = time.time,
                 sha: Optional[str] = None,
                 busy_timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.clock = clock
        self.sha = sha if sha is not None else git_sha()
        self._lock = threading.RLock()
        self._db = open_db(self.path, _SCHEMA, busy_timeout=busy_timeout)
        self._check_schema()
        self._db.execute(VALUE_SCHEMA)

    def _check_schema(self) -> None:
        row = self._db.execute("SELECT value FROM meta WHERE key = ?",
                               ("schema_version",)).fetchone()
        if row is None:
            self._db.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))
            return
        found = row[0]
        if found != str(SCHEMA_VERSION):
            self._db.close()
            raise SchemaMismatchError(
                f"results store {self.path} has schema version {found}, "
                f"this build expects {SCHEMA_VERSION}; query it with a "
                "matching repro release or start a fresh --results-db file "
                "(the store is append-only and is never migrated in place)")

    def close(self) -> None:
        with self._lock:
            self._db.close()

    # ------------------------------------------------------------- recording
    def record(self, key: str, outcome: Any, *,
               experiment: str = "",
               coords: Optional[Mapping[str, Any]] = None,
               kernel: Optional[str] = None,
               wall_seconds: Optional[float] = None) -> bool:
        """Append one outcome row; True when this call inserted it.

        Idempotent per ``(key, git sha)``: recording the same point again at
        the same commit is a no-op, so warm-cache re-runs never duplicate
        rows.  Such a row is looked up first, before anything is built;
        ``INSERT OR IGNORE`` still settles a race with another writer.  An
        inserted row's outcome is also pickled into the value table, under
        the running code's namespace and replacing the value an older row
        left there, so the distributed broker can adopt it as a finished
        result (:meth:`get_value`).
        """
        with self._lock:
            if self._db.execute(
                    "SELECT 1 FROM runs WHERE key = ? AND git_sha = ?",
                    (key, self.sha)).fetchone() is not None:
                return False
        record = _as_record(outcome, coords)
        try:
            record_json = json.dumps(record, sort_keys=True, default=str)
        except (TypeError, ValueError):
            record_json = json.dumps({"repr": repr(record)})
        try:
            payload: Optional[bytes] = pickle.dumps(
                outcome, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            payload = None                     # row stays queryable without it
        coords_json = (json.dumps(dict(coords), sort_keys=True, default=str)
                       if coords else None)

        def _int_or_none(value: Any) -> Optional[int]:
            return int(value) if isinstance(value, (int, float)) else None

        from .. import __version__      # lazily: ``repro`` imports this
        created = self.clock()
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                inserted = self._db.execute(
                    "INSERT OR IGNORE INTO runs (key, experiment, model,"
                    " kernel, tier, coords, total_cycles, fabric_cycles,"
                    " record, wall_seconds, package_version, git_sha,"
                    " created) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
                    " ?)",
                    (key, experiment,
                     record.get("model"),
                     kernel if kernel is not None else record.get("kernel"),
                     record.get("tier"),
                     coords_json,
                     _int_or_none(record.get("total_cycles")),
                     _int_or_none(record.get("fabric_cycles")),
                     record_json, wall_seconds,
                     __version__, self.sha, created)).rowcount > 0
                if inserted and payload is not None:
                    put_value(self._db, code_namespace(), key, payload,
                              created)
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
        return inserted

    def record_bench(self, report: Any, scale: str = "tiny") -> int:
        """Append one row per benchmark suite entry; returns rows inserted.

        ``report`` is an :class:`~repro.eval.bench.BenchReport`.  Entries
        are keyed by (suite name, scale) — content-addressed like sweep
        points, so one bench run per commit lands exactly one row per entry
        and ``repro query --experiment bench --trend <metric>`` reads the
        per-sha history the CI artifacts only kept implicitly.
        """
        inserted = 0
        for name, entry in report.records.items():
            metrics = dict(entry.get("metrics", {}))
            inserted += self.record(
                stable_key("repro-bench", name, scale),
                {"entry": name, "scale": scale, **metrics},
                experiment="bench",
                coords={"entry": name, "scale": scale},
                wall_seconds=float(entry.get("wall_seconds", 0.0)))
        return inserted

    # --------------------------------------------------------------- lookups
    def get_value(self, key: str, default: Any = None) -> Any:
        """The newest stored outcome for ``key``, unpickled, or ``default``.

        Only the running code's namespace is read, as the memo cache reads
        it: numbers from a previous release must not warm-start the fleet.
        """
        return self.warm_values([key]).get(key, default)

    def warm_values(self, keys: List[str]) -> Dict[str, Any]:
        """Bulk :meth:`get_value`: the current-namespace value per key.

        The warm-start query of the adaptive explorers (:mod:`repro.dse`):
        chunked ``IN`` queries instead of one round-trip per candidate.
        Keys with no readable value are simply absent from the result.
        """
        with self._lock:
            rows = read_values(self._db, code_namespace(), keys)
        out: Dict[str, Any] = {}
        for key, blob in rows:
            with suppress(Exception):       # an unreadable value is absent
                out[key] = pickle.loads(blob)
        return out

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return bool(read_values(self._db, code_namespace(), [key]))

    def __len__(self) -> int:
        with self._lock:
            row = self._db.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(row[0])

    # --------------------------------------------------------------- queries
    def query(self, *, experiment: Optional[str] = None,
              model: Optional[str] = None,
              kernel: Optional[str] = None,
              sha: Optional[str] = None,
              tier: Optional[str] = None,
              key: Optional[str] = None,
              coords: Optional[Mapping[str, Any]] = None,
              since: Optional[float] = None,
              until: Optional[float] = None,
              limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Matching rows as flat dicts, oldest first.

        Equality filters map onto indexed columns; ``coords`` matches rows
        whose coordinates contain every given item (values compared after
        ``str()`` so CLI-supplied strings match stored numbers);
        ``since``/``until`` bound the ``created`` timestamp (inclusive).
        Each row is the canonical record plus provenance columns
        (``experiment``, ``wall_seconds``, ``package_version``, ``git_sha``,
        ``created`` as UTC ISO, and the content ``key``).
        """
        clauses, params = [], []
        for column, value in (("experiment", experiment), ("model", model),
                              ("kernel", kernel), ("git_sha", sha),
                              ("tier", tier), ("key", key)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if since is not None:
            clauses.append("created >= ?")
            params.append(since)
        if until is not None:
            clauses.append("created <= ?")
            params.append(until)
        sql = ("SELECT experiment, kernel, record, coords, wall_seconds,"
               " package_version, git_sha, created, key FROM runs")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        with self._lock:
            rows = self._db.execute(sql, params).fetchall()

        out: List[Dict[str, Any]] = []
        for (row_experiment, row_kernel, record_json, coords_json,
             wall_seconds, package_version, row_sha, created,
             row_key) in rows:
            record = json.loads(record_json)
            if coords is not None:
                row_coords = json.loads(coords_json) if coords_json else {}
                if not all(str(row_coords.get(name, _MISSING)) == str(value)
                           for name, value in coords.items()):
                    continue
            flat = {"experiment": row_experiment, **record}
            if row_kernel is not None:
                # The kernel column may come from the work item rather than
                # the record (e.g. coords without a kernel axis): surface it.
                flat.setdefault("kernel", row_kernel)
            flat.update(wall_seconds=wall_seconds,
                        package_version=package_version,
                        git_sha=row_sha, created=_iso(created), key=row_key)
            out.append(flat)
            if limit is not None and len(out) >= limit:
                break
        return out

    def trend(self, metric: str, **filters: Any) -> List[Dict[str, Any]]:
        """Per-sha aggregation of one record metric, oldest sha first.

        One row per git sha holding ``runs`` (rows carrying the metric) and
        the metric's min/mean/max across them — the cross-commit trend line
        the append-only design exists for.  ``filters`` are
        :meth:`query` keywords.
        """
        groups: Dict[str, List[float]] = {}
        first_seen: Dict[str, str] = {}
        for row in self.query(**filters):
            value = row.get(metric)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            sha = row["git_sha"]
            groups.setdefault(sha, []).append(float(value))
            first_seen.setdefault(sha, row["created"])
        return [{"git_sha": sha, "runs": len(values),
                 f"{metric}_min": min(values),
                 f"{metric}_mean": sum(values) / len(values),
                 f"{metric}_max": max(values),
                 "created": first_seen[sha]}
                for sha, values in groups.items()]


#: Process-wide stores, one per path — mirrors ``default_cache`` so the CLI
#: and library callers touching the same file share one connection.
_open_stores: Dict[str, ResultsStore] = {}


def open_results_store(path: Union[str, os.PathLike, None] = None,
                       ) -> Optional[ResultsStore]:
    """The process-global store for ``path`` (lazily created), or ``None``.

    With ``path=None`` the ``REPRO_RESULTS_DB`` environment variable
    decides: set, outcomes are appended there; unset, recording is off and
    ``None`` is returned — the store is strictly opt-in.
    """
    if path is None:
        path = os.environ.get("REPRO_RESULTS_DB") or None
    if path is None:
        return None
    key = str(Path(path))
    if key not in _open_stores:
        _open_stores[key] = ResultsStore(path)
    return _open_stores[key]


__all__ = ["ResultsStore", "SCHEMA_VERSION", "SchemaMismatchError",
           "git_sha", "open_results_store"]
