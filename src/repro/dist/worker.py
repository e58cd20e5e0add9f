"""Fleet workers: claim → lease → run → report.

A :class:`Worker` drains a :class:`~repro.dist.broker.Broker` a batch at a
time: it claims up to :data:`MAX_CLAIM_BATCH` jobs (the broker grants at most
its fair share of the queue), unpickles each ``(fn, item)`` payload and
executes it (for :class:`~repro.exec.jobs.ExperimentJob` payloads that is
:func:`~repro.exec.jobs.run_job`, which picks the execution tier via the
model's ``tier="auto"`` path exactly as the in-process runner does), stores
the results in its memo store, if it has one, and reports the whole batch
with one ``complete_many``.  While the batch runs, one daemon heartbeat
thread extends every lease the batch still holds, so long jobs are not
re-leased out from under a healthy worker; a worker that dies simply stops
heartbeating and the broker re-leases its unreported jobs after expiry.

Failure classification:

* the payload cannot be unpickled → **transient** (this worker's
  environment lacks something — e.g. an execution model registered only in
  the submitting process; another worker may well succeed), retried with
  backoff,
* the job function raises, or returns a value that cannot be pickled →
  **permanent** (points are deterministic, so a retry would fail
  identically); the error string is recorded on the job.

Either way the job is failed at once; the rest of its batch still runs and
completes.

``worker_main`` is the module-level process entry point — picklable, so
:class:`~repro.dist.runner.DistributedRunner` can spawn local workers with
``multiprocessing``, and the ``repro worker`` CLI wraps the same loop.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
import traceback
from typing import Any, Callable, List, Optional, Tuple, Union

from ..exec.cache import MemoCache
from .broker import Broker, ClaimedJob, connect_broker

#: Jobs a worker asks for per claim.  The broker grants at most
#: ``ceil(runnable keys / FAIR_SHARE)`` of them, so batches shrink as a
#: sweep's queue drains.
MAX_CLAIM_BATCH = 16


class Worker:
    """One claim-lease-run-report loop against a broker."""

    def __init__(self, broker: Broker, memo: Optional[MemoCache] = None,
                 worker_id: Optional[str] = None, *,
                 lease_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.broker = broker
        self.memo = memo
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}")
        self.lease_seconds = (lease_seconds if lease_seconds is not None
                              else getattr(broker, "lease_seconds", 30.0))
        #: Heartbeat well inside the lease, so one missed beat never loses it.
        self.heartbeat_interval = max(self.lease_seconds / 3.0, 0.05)
        self.clock = clock
        self.jobs_run = 0
        self.failures = 0

    # ----------------------------------------------------------- one batch
    def run_one(self) -> bool:
        """Claim and execute one job; False when the queue is idle."""
        return self.run_batch(1) > 0

    def run_batch(self, limit: int = MAX_CLAIM_BATCH) -> int:
        """Claim up to ``limit`` jobs, run them and report them together.

        Returns the number of jobs claimed (0 when the queue is idle),
        failed ones included.
        """
        claims = self.broker.claim_many(self.worker_id, limit,
                                        lease_seconds=self.lease_seconds)
        if not claims:
            return 0
        stop = threading.Event()
        beat = threading.Thread(target=self._heartbeat_loop,
                                args=(claims, stop), daemon=True)
        beat.start()
        results: List[Tuple[str, Any]] = []
        try:
            for claim in claims:
                ok, value = self._execute(claim)
                if ok:
                    results.append((claim.key, value))
        finally:
            stop.set()
            beat.join()
        if results:
            if self.memo is not None:
                for key, value in results:      # best-effort: never raises
                    self.memo.put(key, value)
            self.broker.complete_many(results, worker=self.worker_id)
            self.jobs_run += len(results)
        return len(claims)

    def _execute(self, claim: ClaimedJob) -> Tuple[bool, Any]:
        """Run one claimed job: ``(True, value)``, or ``(False, None)`` after
        reporting its failure to the broker."""
        try:
            fn, item = pickle.loads(claim.payload)
        except Exception as exc:
            # This environment can't even decode the job (missing model
            # registration, version skew): let another worker try.
            self.failures += 1
            self.broker.fail(claim, error=_describe(exc), transient=True)
            return False, None
        try:
            value = fn(item)
            # The value travels to the broker as a pickle; checking here
            # fails this job alone instead of the batch's complete_many.
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            self.failures += 1
            self.broker.fail(claim, error=_describe(exc), transient=False)
            return False, None
        return True, value

    def _heartbeat_loop(self, claims: List[ClaimedJob],
                        stop: threading.Event) -> None:
        held = list(claims)
        while held and not stop.wait(self.heartbeat_interval):
            for claim in list(held):
                if stop.is_set():
                    return
                try:
                    alive = self.broker.heartbeat(
                        claim, lease_seconds=self.lease_seconds)
                except Exception:
                    return
                if not alive:
                    # Failed (so released), or lost: we stalled past expiry
                    # and the job was re-leased.  Finishing anyway is safe —
                    # completion is idempotent per key — so stop beating it.
                    held.remove(claim)

    # ---------------------------------------------------------------- loop
    def run_until_idle(self, idle_grace: float = 0.0,
                       poll_interval: float = 0.05,
                       max_jobs: Optional[int] = None) -> int:
        """Drain the queue; returns the number of jobs executed.

        Exits once the queue has stayed idle for ``idle_grace`` seconds
        (0 = exit on the first empty poll) or after ``max_jobs`` jobs.
        """
        executed = 0
        idle_since: Optional[float] = None
        while max_jobs is None or executed < max_jobs:
            limit = (MAX_CLAIM_BATCH if max_jobs is None
                     else min(MAX_CLAIM_BATCH, max_jobs - executed))
            claimed = self.run_batch(limit)
            if claimed:
                executed += claimed
                idle_since = None
                continue
            now = self.clock()
            if idle_since is None:
                idle_since = now
            if now - idle_since >= idle_grace:
                break
            time.sleep(poll_interval)
        return executed


def worker_main(broker_url: Union[str, os.PathLike],
                cache_dir: Optional[Union[str, os.PathLike]] = None,
                worker_id: Optional[str] = None,
                lease_seconds: Optional[float] = None,
                idle_grace: float = 0.0,
                poll_interval: float = 0.05,
                max_jobs: Optional[int] = None) -> int:
    """Process entry point: connect to the broker and drain it until idle.

    ``broker_url`` is anything :func:`~repro.dist.broker.connect_broker`
    accepts — a bare SQLite path, ``sqlite:///path``, or ``http://host:port``
    for a :class:`~repro.dist.http.BrokerServer` fleet.

    Importing :mod:`repro.models` (via the exec package) registers the
    built-in execution models, so freshly spawned workers can run any
    canonical :class:`~repro.exec.jobs.ExperimentJob`.
    """
    broker = connect_broker(broker_url, **(
        {} if lease_seconds is None else {"lease_seconds": lease_seconds}))
    memo = MemoCache(path=cache_dir) if cache_dir is not None else None
    worker = Worker(broker, memo=memo, worker_id=worker_id,
                    lease_seconds=lease_seconds)
    try:
        return worker.run_until_idle(idle_grace=idle_grace,
                                     poll_interval=poll_interval,
                                     max_jobs=max_jobs)
    finally:
        broker.close()


def _describe(exc: BaseException) -> str:
    """Compact one-job error record: type, message, innermost frame."""
    tail = traceback.extract_tb(exc.__traceback__)
    where = f" at {tail[-1].filename}:{tail[-1].lineno}" if tail else ""
    return f"{type(exc).__name__}: {exc}{where}"
