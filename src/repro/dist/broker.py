"""Work-queue brokers: the coordination point of the distributed executor.

A broker owns the fleet's job table.  Producers (the
:class:`~repro.dist.runner.DistributedRunner`, the ``repro sweep submit``
front-end) enqueue *sweeps* — ordered batches of content-addressed work
items — and workers (:mod:`repro.dist.worker`) claim jobs in small batches,
each job under its own **lease**: a claim is exclusive until its expiry,
heartbeats extend it while the job runs, and a worker that crashes or stalls
simply lets the lease lapse, after which the job is re-leased to the next
claimant (bounded by ``max_attempts``).  Transient failures re-enter the
queue with exponential backoff; permanent failures and exhausted retries
park the job as ``failed``.

A claim takes at most a **fair share** of the runnable queue:
``ceil(runnable keys / FAIR_SHARE)`` jobs, whatever the claimant asked for.
So at least ``FAIR_SHARE`` workers can start at once, and a sweep's tail is
claimed one job at a time rather than stranded in one worker's batch.

Job state machine::

    pending ──claim──▶ leased ──complete──▶ done
       ▲                 │
       │   lease expiry /│transient failure (attempts < max)
       └─────────────────┘
                         └──▶ failed      (permanent / retries exhausted)
    pending ──cancel──▶ cancelled

Jobs are keyed by the same content hash as the memo cache
(:func:`repro.exec.keys.stable_key`), which buys fleet-wide dedup twice
over: at enqueue time the broker consults its own values (and the shared
:class:`~repro.exec.cache.MemoCache`) and marks already-computed points
``done`` without ever queueing them, and at completion time one result
resolves *every* job carrying that key — so two workers finishing the same
point race idempotently (first result wins; the points are deterministic,
so both computed the same value).  Reuse at enqueue reads only the running
code's values (:func:`~repro.exec.db.code_namespace`).

:class:`SQLiteBroker` is the reference implementation: one SQLite file on a
shared filesystem, WAL-mode, safe for many concurrent worker processes.
The :class:`Broker` protocol is deliberately small so other queues can drop
in behind the same :class:`~repro.dist.runner.DistributedRunner` / service
front-end — :class:`~repro.dist.http.HTTPBroker` is the network-backed one.

Backends are addressed by **broker URL** and constructed through
:func:`connect_broker`: ``sqlite:///path/to.db`` (or a bare filesystem path,
the PR-7 back-compat form) opens a :class:`SQLiteBroker`;
``http://host:port`` connects an ``HTTPBroker``.  Third-party backends
register a scheme with :func:`register_broker_scheme`, exactly like
execution models register with the model registry.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Protocol, Sequence, Tuple, Union, runtime_checkable)

from ..exec.cache import MemoCache
from ..exec.db import (VALUE_SCHEMA, DatabaseOpenError, add_value,
                       code_namespace, open_db)

#: Terminal job states: nothing transitions out of these.
FINISHED_STATES = ("done", "failed", "cancelled")

#: A claim leases at most ``ceil(runnable keys / FAIR_SHARE)`` jobs.
FAIR_SHARE = 4

@dataclass(frozen=True)
class WorkItem:
    """One unit of enqueueable work.

    ``key`` is the content address (:func:`~repro.exec.keys.stable_key` of
    the function/item pair), ``payload`` the pickled ``(fn, item)`` tuple a
    worker executes, ``meta`` optional JSON-able annotations (the service
    front-end stores sweep coordinates here).
    """

    key: str
    payload: bytes
    meta: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class SweepTicket:
    """Receipt for an enqueued sweep."""

    sweep_id: str
    total: int
    #: Jobs resolved at enqueue time from the shared memo store or the
    #: broker's own values — never queued, already ``done``.
    already_done: int
    #: The distinct keys resolved at enqueue time (for cache accounting).
    done_keys: frozenset = field(default_factory=frozenset)


@dataclass(frozen=True)
class ClaimedJob:
    """A leased job, as handed to a worker."""

    sweep_id: str
    position: int
    key: str
    payload: bytes
    attempts: int
    lease_expiry: float


@dataclass(frozen=True)
class JobResult:
    """One finished job row, as streamed back to consumers."""

    position: int
    key: str
    state: str                       # done | failed | cancelled
    meta: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    value: Any = None                # unpickled result (done jobs only)
    worker: Optional[str] = None


@runtime_checkable
class Broker(Protocol):
    """What the distributed runner, workers and service front-end need.

    Implementations must make claims exclusive (one claimant per job per
    lease, distinct keys within a batch) and completion idempotent per key;
    everything else is plain bookkeeping.  ``claim``/``complete`` are the
    one-job case of ``claim_many``/``complete_many``.
    :class:`SQLiteBroker` is the reference implementation.
    """

    def create_sweep(self, items: Sequence[WorkItem], label: str = "sweep",
                     spec: Optional[str] = None,
                     memo: Optional[MemoCache] = None,
                     results: Optional[Any] = None) -> SweepTicket: ...

    def claim(self, worker: str,
              lease_seconds: Optional[float] = None) -> Optional[ClaimedJob]: ...

    def claim_many(self, worker: str, limit: int,
                   lease_seconds: Optional[float] = None
                   ) -> List[ClaimedJob]: ...

    def heartbeat(self, claim: ClaimedJob,
                  lease_seconds: Optional[float] = None) -> bool: ...

    def complete(self, key: str, value: Any,
                 worker: Optional[str] = None) -> bool: ...

    def complete_many(self, results: Sequence[Tuple[str, Any]],
                      worker: Optional[str] = None) -> List[bool]: ...

    def fail(self, claim: ClaimedJob, error: str,
             transient: bool = False) -> None: ...

    def cancel(self, sweep_id: str) -> int: ...

    def status(self, sweep_id: str) -> Dict[str, Any]: ...

    def sweeps(self) -> List[Dict[str, Any]]: ...

    def finished_positions(self, sweep_id: str) -> Dict[int, str]: ...

    def retries(self, sweep_id: str) -> int: ...

    def fetch_results(self, sweep_id: str,
                      positions: Optional[Iterable[int]] = None, *,
                      values: bool = True) -> List[JobResult]: ...


# ---------------------------------------------------------------------------
# Broker URLs: scheme registry + connect_broker
# ---------------------------------------------------------------------------
_BROKER_SCHEMES: Dict[str, Callable[..., Broker]] = {}


def register_broker_scheme(scheme: str,
                           factory: Callable[..., Broker]) -> None:
    """Register ``factory(url, **options) -> Broker`` for a URL scheme.

    Mirrors the execution-model registry: third-party backends plug in a
    scheme once and every front-end (``repro worker``, ``repro sweep``,
    :class:`~repro.dist.runner.DistributedRunner`) can reach them through
    the same ``--broker URL`` flag.
    """
    _BROKER_SCHEMES[scheme.lower()] = factory


def broker_schemes() -> List[str]:
    """The registered URL schemes, sorted (for error messages and docs)."""
    return sorted(_BROKER_SCHEMES)


def connect_broker(url: Union[str, os.PathLike], **options: Any) -> Broker:
    """Open the broker a URL names: the one front door for every backend.

    ``sqlite:///path/to.db`` (or ``sqlite://relative.db``) opens a
    :class:`SQLiteBroker`; a bare filesystem path — the pre-URL form every
    PR-7 script uses — does the same, so nothing breaks.  ``http://`` /
    ``https://`` connect an :class:`~repro.dist.http.HTTPBroker`.
    ``options`` pass through to the backend constructor; options a backend
    does not understand raise ``TypeError`` as usual.
    """
    text = os.fspath(url)
    head, sep, _ = text.partition("://")
    scheme = head.lower() if sep and head else ""
    if not scheme:
        return _sqlite_from_url(text, **options)
    factory = _BROKER_SCHEMES.get(scheme)
    if factory is None:
        raise ValueError(
            f"unknown broker URL scheme {scheme!r} in {text!r} — "
            f"registered schemes: {', '.join(broker_schemes())}")
    return factory(text, **options)


def sqlite_path(url: Union[str, os.PathLike]) -> Optional[str]:
    """The database file a SQLite broker URL names: a bare path, or the path
    of a ``sqlite://`` URL; ``None`` for a URL of any other scheme."""
    text = os.fspath(url)
    head, sep, path = text.partition("://")
    if not (sep and head):
        return text
    if head.lower() != "sqlite":
        return None
    # sqlite:///abs/path keeps its leading slash; sqlite://rel.db is
    # relative.  An empty path is a mistake worth naming.
    if not path:
        raise ValueError(f"broker URL {text!r} names no database path")
    return path


def _sqlite_from_url(url: str, **options: Any) -> "SQLiteBroker":
    return SQLiteBroker(sqlite_path(url), **options)


def _http_from_url(url: str, **options: Any) -> Broker:
    # Imported lazily: repro.dist.http depends on the wire module, which
    # depends on this module's dataclasses.
    from .http import HTTPBroker
    return HTTPBroker(url, **options)


register_broker_scheme("sqlite", _sqlite_from_url)
register_broker_scheme("http", _http_from_url)
register_broker_scheme("https", _http_from_url)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_id  TEXT PRIMARY KEY,
    label     TEXT NOT NULL,
    spec      TEXT,
    created   REAL NOT NULL,
    cancelled INTEGER NOT NULL DEFAULT 0,
    total     INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    sweep_id     TEXT NOT NULL,
    position     INTEGER NOT NULL,
    key          TEXT NOT NULL,
    payload      BLOB NOT NULL,
    meta         TEXT,
    state        TEXT NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    not_before   REAL NOT NULL DEFAULT 0,
    lease_expiry REAL,
    worker       TEXT,
    error        TEXT,
    PRIMARY KEY (sweep_id, position)
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, not_before);
CREATE INDEX IF NOT EXISTS jobs_by_key   ON jobs (key);
"""


class SQLiteBroker:
    """The reference :class:`Broker`: one SQLite file, many processes.

    Every worker/runner process opens its own ``SQLiteBroker`` on the same
    path; WAL journaling plus short immediate transactions make claims
    exclusive across processes, and an internal lock makes one instance safe
    to share between a worker's run loop and its heartbeat thread.

    ``clock`` is injectable so lease expiry, backoff and retry exhaustion
    are deterministically testable without sleeping.
    """

    def __init__(self, path: Union[str, os.PathLike], *,
                 lease_seconds: float = 30.0,
                 max_attempts: int = 3,
                 backoff_seconds: float = 0.25,
                 busy_timeout: float = 30.0,
                 clock: Callable[[], float] = time.time) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.path = Path(path)
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.clock = clock
        self._lock = threading.RLock()
        self._db = open_db(self.path, _SCHEMA, busy_timeout=busy_timeout)
        if self._db.execute("SELECT 1 FROM sqlite_master"
                            " WHERE name = 'results'").fetchone():
            self._db.close()
            raise DatabaseOpenError(
                self.path, "an older release wrote it (it has a results"
                " table); finish its sweeps with that release or start a"
                " new broker file")
        self._db.executescript(VALUE_SCHEMA + ";\nCREATE INDEX IF NOT EXISTS"
                               " memo_by_key ON memo (key);")

    def close(self) -> None:
        with self._lock:
            self._db.close()

    @contextmanager
    def _write(self) -> Iterator[None]:
        """One ``BEGIN IMMEDIATE`` transaction under the instance lock."""
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                yield
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
            self._db.execute("COMMIT")

    @property
    def url(self) -> str:
        """The broker URL that reopens this backend from any process."""
        return f"sqlite://{self.path.resolve()}"

    # ------------------------------------------------------------- enqueue
    def create_sweep(self, items: Sequence[WorkItem], label: str = "sweep",
                     spec: Optional[str] = None,
                     memo: Optional[MemoCache] = None,
                     results: Optional[Any] = None) -> SweepTicket:
        """Enqueue one batch; returns its ticket.

        Before queueing, each item's key is looked up, under the running
        code's namespace only, in the broker's own values, then in the
        shared ``memo`` store, then in the persistent ``results`` store
        (:class:`~repro.store.ResultsStore`): a hit records the job as
        ``done`` immediately, credited to an earlier job's worker or to
        ``"memo"`` or ``"store"`` (memo/store hits are copied into the
        broker's values, so later sweeps resolve them broker-side even from
        a worker whose cache evicted them).
        """
        sweep_id = uuid.uuid4().hex[:12]
        now = self.clock()
        namespace = code_namespace()
        done: Dict[str, Optional[str]] = {}     # resolved key -> its worker
        missing = object()
        with self._write():
            self._db.execute(
                "INSERT INTO sweeps (sweep_id, label, spec, created, total)"
                " VALUES (?, ?, ?, ?, ?)",
                (sweep_id, label, spec, now, len(items)))
            for position, item in enumerate(items):
                key = item.key
                if key not in done:
                    # A row when this code's namespace holds the key's
                    # value; it names the worker of an earlier job.
                    row = self._db.execute(
                        "SELECT (SELECT worker FROM jobs WHERE key = ?1"
                        " AND state = 'done' AND worker IS NOT NULL LIMIT 1)"
                        " FROM memo WHERE namespace = ?2 AND key = ?1",
                        (key, namespace)).fetchone()
                    value, source = missing, None
                    if row is not None:
                        done[key] = row[0]
                    elif memo is not None and key in memo:
                        value, source = memo.get(key), "memo"
                    elif results is not None:
                        value = results.get_value(key, missing)
                        source = "store"
                    if value is not missing:
                        # Memo / results-store hit: adopt the persisted
                        # value as this key's result so the broker can
                        # stream it.
                        add_value(self._db, namespace, key, pickle.dumps(
                            value, protocol=pickle.HIGHEST_PROTOCOL), now)
                        done[key] = source
                meta = (json.dumps(item.meta, sort_keys=True)
                        if item.meta is not None else None)
                self._db.execute(
                    "INSERT INTO jobs (sweep_id, position, key, payload,"
                    " meta, state, worker) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (sweep_id, position, key, item.payload, meta,
                     "done" if key in done else "pending", done.get(key)))
        already_done = sum(1 for item in items if item.key in done)
        return SweepTicket(sweep_id=sweep_id, total=len(items),
                           already_done=already_done,
                           done_keys=frozenset(done))

    # --------------------------------------------------------------- claim
    def claim(self, worker: str,
              lease_seconds: Optional[float] = None) -> Optional[ClaimedJob]:
        """Lease the oldest runnable job to ``worker``, or ``None`` if idle."""
        jobs = self.claim_many(worker, 1, lease_seconds=lease_seconds)
        return jobs[0] if jobs else None

    def claim_many(self, worker: str, limit: int,
                   lease_seconds: Optional[float] = None) -> List[ClaimedJob]:
        """Lease up to ``limit`` of the oldest runnable jobs to ``worker``.

        The batch holds distinct keys and at most a fair share of the queue,
        ``ceil(runnable keys / FAIR_SHARE)`` jobs; ``[]`` means idle.  It is
        one transaction, which first sweeps expired leases back to
        ``pending`` (or to ``failed`` once their attempts are exhausted), so
        a crashed worker's jobs become claimable again without any
        out-of-band reaper.
        """
        if limit < 1:
            raise ValueError("limit must be at least 1")
        lease = lease_seconds if lease_seconds is not None else self.lease_seconds
        now = self.clock()
        expiry = now + lease
        # A key someone is already computing is not claimable again: its
        # completion will resolve every job carrying the key, so handing a
        # duplicate to a second worker would only burn work.
        where = (" FROM jobs j JOIN sweeps s ON s.sweep_id = j.sweep_id"
                 " WHERE j.state = 'pending' AND j.not_before <= ?"
                 " AND s.cancelled = 0 AND j.key NOT IN"
                 " (SELECT key FROM jobs WHERE state = 'leased')")
        batch: List[tuple] = []
        with self._write():
            self._expire_leases(now)
            (runnable,) = self._db.execute(
                "SELECT COUNT(DISTINCT j.key)" + where, (now,)).fetchone()
            take = min(limit, -(-runnable // FAIR_SHARE))
            seen = set()
            cursor = self._db.execute(
                "SELECT j.sweep_id, j.position, j.key, j.attempts" + where
                + " ORDER BY s.created, j.sweep_id, j.position", (now,))
            for sweep_id, position, key, attempts in cursor:
                if len(batch) == take:
                    break
                if key in seen:
                    continue
                seen.add(key)
                # Payloads are read only for the chosen jobs, so the sort
                # above carries narrow rows however long the queue is.
                (payload,) = self._db.execute(
                    "SELECT payload FROM jobs WHERE sweep_id = ?"
                    " AND position = ?", (sweep_id, position)).fetchone()
                batch.append((sweep_id, position, key, payload, attempts + 1))
            cursor.close()
            self._db.executemany(
                "UPDATE jobs SET state = 'leased', attempts = ?,"
                " lease_expiry = ?, worker = ?, error = NULL"
                " WHERE sweep_id = ? AND position = ?",
                [(attempts, expiry, worker, sweep_id, position)
                 for sweep_id, position, _, _, attempts in batch])
        return [ClaimedJob(sweep_id=sweep_id, position=position, key=key,
                           payload=payload,
                           attempts=attempts, lease_expiry=expiry)
                for sweep_id, position, key, payload, attempts in batch]

    def _expire_leases(self, now: float) -> None:
        """Requeue lapsed leases; park the ones out of attempts (in-txn)."""
        self._db.execute(
            "UPDATE jobs SET state = 'failed', worker = NULL,"
            " lease_expiry = NULL,"
            " error = 'lease expired after ' || attempts || ' attempt(s)'"
            " WHERE state = 'leased' AND lease_expiry < ? AND attempts >= ?",
            (now, self.max_attempts))
        self._db.execute(
            "UPDATE jobs SET state = 'pending', worker = NULL,"
            " lease_expiry = NULL WHERE state = 'leased' AND lease_expiry < ?",
            (now,))

    def heartbeat(self, claim: ClaimedJob,
                  lease_seconds: Optional[float] = None) -> bool:
        """Extend a claim's lease; False if the lease was already lost."""
        lease = lease_seconds if lease_seconds is not None else self.lease_seconds
        with self._lock:
            cursor = self._db.execute(
                "UPDATE jobs SET lease_expiry = ? WHERE sweep_id = ?"
                " AND position = ? AND state = 'leased' AND attempts = ?",
                (self.clock() + lease, claim.sweep_id, claim.position,
                 claim.attempts))
        return cursor.rowcount > 0

    # ------------------------------------------------------------ outcomes
    def complete(self, key: str, value: Any,
                 worker: Optional[str] = None) -> bool:
        """Record a result for ``key``; resolves every job carrying the key.

        Idempotent: the first completion wins, later duplicates (a second
        worker finishing a re-leased copy of the same job) are no-ops.
        The value is stored under the running code's namespace.  Returns
        True when this call stored the result.
        """
        return self.complete_many([(key, value)], worker=worker)[0]

    def complete_many(self, results: Sequence[Tuple[str, Any]],
                      worker: Optional[str] = None) -> List[bool]:
        """:meth:`complete` for a batch of ``(key, value)`` pairs in one
        transaction: one flag per pair, True where that pair was stored."""
        return self.complete_many_bytes(
            [(key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
             for key, value in results], worker=worker)

    def complete_bytes(self, key: str, payload: bytes,
                       worker: Optional[str] = None) -> bool:
        """:meth:`complete` with a pre-pickled value."""
        return self.complete_many_bytes([(key, payload)], worker=worker)[0]

    def complete_many_bytes(self, results: Sequence[Tuple[str, bytes]],
                            worker: Optional[str] = None) -> List[bool]:
        """:meth:`complete_many` with pre-pickled values.

        This is the relay path of the broker *server*: result bytes from a
        remote worker are recorded verbatim, never unpickled, so the server
        needs none of the classes a custom job function returns.  Same
        idempotency guard as :meth:`complete` — one ``INSERT OR IGNORE`` per
        key, so a retried batch records nothing twice.
        """
        now = self.clock()
        namespace = code_namespace()
        recorded: List[bool] = []
        with self._write():
            for key, payload in results:
                recorded.append(add_value(self._db, namespace, key, payload,
                                          now))
                self._db.execute(
                    "UPDATE jobs SET state = 'done', worker = COALESCE(?,"
                    " worker), lease_expiry = NULL, error = NULL"
                    " WHERE key = ? AND state IN ('pending', 'leased')",
                    (worker, key))
        return recorded

    def fail(self, claim: ClaimedJob, error: str,
             transient: bool = False) -> None:
        """Report a failed execution.

        Transient failures requeue with exponential backoff
        (``backoff_seconds * 2**(attempts-1)``) until ``max_attempts`` is
        exhausted; permanent failures park the job as ``failed`` at once.
        """
        retry = transient and claim.attempts < self.max_attempts
        with self._lock:
            if retry:
                delay = self.backoff_seconds * (2 ** (claim.attempts - 1))
                self._db.execute(
                    "UPDATE jobs SET state = 'pending', worker = NULL,"
                    " lease_expiry = NULL, not_before = ?, error = ?"
                    " WHERE sweep_id = ? AND position = ? AND state = 'leased'"
                    " AND attempts = ?",
                    (self.clock() + delay, error, claim.sweep_id,
                     claim.position, claim.attempts))
            else:
                self._db.execute(
                    "UPDATE jobs SET state = 'failed', worker = NULL,"
                    " lease_expiry = NULL, error = ?"
                    " WHERE sweep_id = ? AND position = ? AND state = 'leased'"
                    " AND attempts = ?",
                    (error, claim.sweep_id, claim.position, claim.attempts))

    def cancel(self, sweep_id: str) -> int:
        """Stop scheduling a sweep; returns the number of jobs cancelled.

        Jobs already leased run to completion (their results are recorded
        and remain reusable); pending ones flip to ``cancelled``.
        """
        with self._write():
            self._db.execute(
                "UPDATE sweeps SET cancelled = 1 WHERE sweep_id = ?",
                (sweep_id,))
            cursor = self._db.execute(
                "UPDATE jobs SET state = 'cancelled', worker = NULL,"
                " lease_expiry = NULL WHERE sweep_id = ?"
                " AND state = 'pending'", (sweep_id,))
        return cursor.rowcount

    # ------------------------------------------------------------- queries
    def status(self, sweep_id: str) -> Dict[str, Any]:
        """State counts and progress for one sweep."""
        with self._lock:
            sweep = self._db.execute(
                "SELECT label, spec, created, cancelled, total FROM sweeps"
                " WHERE sweep_id = ?", (sweep_id,)).fetchone()
            if sweep is None:
                raise KeyError(f"unknown sweep {sweep_id!r}")
            label, spec, created, cancelled, total = sweep
            counts = dict(self._db.execute(
                "SELECT state, COUNT(*) FROM jobs WHERE sweep_id = ?"
                " GROUP BY state", (sweep_id,)).fetchall())
        for state in ("pending", "leased", "done", "failed", "cancelled"):
            counts.setdefault(state, 0)
        finished = sum(counts[state] for state in FINISHED_STATES)
        # "cancelled" is the per-job state count; the sweep-level flag gets
        # its own key so the two cannot shadow each other.
        return {"sweep_id": sweep_id, "label": label, "created": created,
                "sweep_cancelled": bool(cancelled), "total": total, **counts,
                "finished": finished >= total,
                "done_fraction": (counts["done"] / total) if total else 1.0,
                "spec": spec}

    def sweeps(self) -> List[Dict[str, Any]]:
        """Status of every known sweep, newest first."""
        with self._lock:
            ids = [row[0] for row in self._db.execute(
                "SELECT sweep_id FROM sweeps ORDER BY created DESC,"
                " sweep_id").fetchall()]
        return [self.status(sweep_id) for sweep_id in ids]

    def finished_positions(self, sweep_id: str) -> Dict[int, str]:
        """position -> terminal state, for cheap incremental polling."""
        with self._lock:
            rows = self._db.execute(
                "SELECT position, state FROM jobs WHERE sweep_id = ?"
                " AND state IN ('done', 'failed', 'cancelled')",
                (sweep_id,)).fetchall()
        return dict(rows)

    def fetch_result_rows(self, sweep_id: str,
                          positions: Optional[Iterable[int]] = None, *,
                          values: bool = True) -> List[tuple]:
        """Finished rows as ``(position, key, state, meta, error, worker,
        value_bytes_or_None)`` tuples, ordered by position.

        The byte-level sibling of :meth:`fetch_results`: value pickles are
        returned as-is and never loaded, so a relay — the HTTP broker
        server — can ship them to clients whose classes it cannot import.
        With ``values=False`` the result column is skipped entirely: no row
        bytes read, nothing to unpickle, which is what status-only consumers
        should ask for.  A done job's value is the running code's, else the
        one its key holds under any namespace, so older sweeps still read
        theirs.
        """
        params: List[Any] = [code_namespace()] if values else []
        value_column = ("COALESCE((SELECT value FROM memo WHERE namespace = ?"
                        " AND key = j.key), (SELECT value FROM memo WHERE"
                        " key = j.key LIMIT 1))" if values else "NULL")
        query = (f"SELECT j.position, j.key, j.state, j.meta, j.error,"
                 f" j.worker, {value_column} FROM jobs j WHERE j.sweep_id = ?"
                 " AND j.state IN ('done', 'failed', 'cancelled')")
        params.append(sweep_id)
        if positions is not None:
            wanted = sorted(set(positions))
            if not wanted:
                return []
            query += (" AND j.position IN ("
                      + ",".join("?" * len(wanted)) + ")")
            params.extend(wanted)
        query += " ORDER BY j.position"
        with self._lock:
            rows = self._db.execute(query, params).fetchall()
        return [(position, key, state, json.loads(meta) if meta else None,
                 error, worker, payload if state == "done" else None)
                for position, key, state, meta, error, worker, payload
                in rows]

    def fetch_results(self, sweep_id: str,
                      positions: Optional[Iterable[int]] = None, *,
                      values: bool = True) -> List[JobResult]:
        """Finished jobs of a sweep (optionally only these positions),
        ordered by position.

        ``values=True`` unpickles each done job's value; ``values=False``
        leaves every ``value`` as ``None`` and never reads the stored
        bytes — the cheap form for callers that only need states/metadata.
        """
        return [JobResult(position=position, key=key, state=state,
                          meta=meta, error=error,
                          value=(pickle.loads(blob) if blob is not None
                                 else None),
                          worker=worker)
                for position, key, state, meta, error, worker, blob
                in self.fetch_result_rows(sweep_id, positions,
                                          values=values)]

    def retries(self, sweep_id: str) -> int:
        """Total re-executions (attempts beyond the first) in one sweep."""
        with self._lock:
            row = self._db.execute(
                "SELECT COALESCE(SUM(attempts - 1), 0) FROM jobs"
                " WHERE sweep_id = ? AND attempts > 1", (sweep_id,)).fetchone()
        return int(row[0])
