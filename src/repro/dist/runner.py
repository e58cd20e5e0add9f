"""`DistributedRunner`: the fleet executor behind the ``runner=`` seam.

A :class:`~repro.exec.runner.SweepRunner` whose misses run on a fleet of
workers coordinated through a :class:`~repro.dist.broker.Broker` instead of
an in-process pool.  ``SweepRunner.map`` does everything around an
evaluation (keys, one memo consult per point, dedup, results store, hits,
timings, progress), so everything threaded through the seam
(``explore(runner=)``, the experiments, ``compare(runner=)``) distributes
without modification, bit-identical to the serial path.  This runner only
decides where the distinct misses run; its ``_evaluate``:

1. enqueues them as one broker sweep (the broker adopts keys its own
   result table or the attached results store already holds),
2. optionally spawns local worker processes (``workers=N``); with
   ``workers=0`` it relies on externally started ``repro worker`` processes
   and/or its own **drain** loop (``drain=True``, the default), in which the
   calling process claims and runs a batch of jobs itself before each poll
   — so progress is guaranteed even with no fleet at all,
3. polls and fetches results as workers report them, and returns the
   values in input order once every job is done, and
4. propagates the first job failure eagerly: the sweep is cancelled at the
   broker, spawned workers are stopped, and a
   :class:`DistributedJobError` is raised — mirroring the pool runner's
   eager-failure semantics.

Retries are the broker's job (lease expiry for crashed workers, exponential
backoff for transient failures); the runner merely accounts for them in
``stats.retries``.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..exec.cache import MemoCache
from ..exec.runner import SweepRunner
from .broker import Broker, WorkItem, connect_broker
from .worker import Worker, worker_main


class DistributedJobError(RuntimeError):
    """A fleet job failed permanently; the sweep was cancelled."""

    def __init__(self, position: int, key: str, error: Optional[str]):
        super().__init__(f"distributed job {position} failed: "
                         f"{error or 'cancelled'} (key {key[:12]}…)")
        self.position = position
        self.key = key
        self.error = error


class DistributedRunner(SweepRunner):
    """Evaluate sweep points on a broker-coordinated worker fleet.

    Parameters
    ----------
    broker:
        A :class:`~repro.dist.broker.Broker`, or a broker URL for
        :func:`~repro.dist.broker.connect_broker` — a bare SQLite path
        (created on first use), ``sqlite:///path``, or ``http://host:port``.
    workers:
        Local worker processes to spawn per ``map`` call (0 = rely on
        external workers and/or the drain loop).
    cache:
        The shared fleet memo store.  When disk-backed, spawned workers
        open the same ``<path>/memo.sqlite``, so the single-process cache
        becomes the fleet's memo tier.
    drain:
        When True (default), the calling process claims and runs a batch of
        jobs itself before each poll — guaranteeing progress with zero
        workers and soaking up stragglers.
    timeout:
        Overall per-``map`` ceiling in seconds (None = wait forever).
    results:
        An optional :class:`~repro.store.ResultsStore` — the same seam as
        :class:`~repro.exec.runner.SweepRunner`: every resolved point is
        appended, and the broker consults the store at enqueue time so a
        point any past run ever persisted is adopted without re-execution.

    A broker opened here from a URL belongs to the runner: :meth:`close`
    (or leaving a ``with`` block) closes it.  A broker object passed in
    stays the caller's to close.
    """

    _always_keyed = True      # fleet jobs are addressed by key

    def __init__(self, broker: Union[Broker, str, os.PathLike],
                 *, workers: int = 0,
                 cache: Optional[MemoCache] = None,
                 drain: bool = True,
                 lease_seconds: Optional[float] = None,
                 poll_interval: float = 0.02,
                 timeout: Optional[float] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 results: Optional[Any] = None):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self._owns_broker = isinstance(broker, (str, os.PathLike))
        if self._owns_broker:
            broker = connect_broker(broker, **(
                {} if lease_seconds is None else
                {"lease_seconds": lease_seconds}))
        super().__init__(jobs=1, cache=cache, progress=progress,
                         results=results)
        self.broker = broker
        self.workers = workers
        self.drain = drain
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.timeout = timeout
        #: Worker processes spawned by the current ``map`` call (exposed so
        #: crash-recovery tests can kill one mid-run).
        self.worker_processes: List[Any] = []

    def close(self) -> None:
        """Close the broker if this runner opened it from a URL."""
        if self._owns_broker:
            self.broker.close()

    def __enter__(self) -> "DistributedRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ map
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            label: Optional[str] = None,
            coords: Optional[Sequence[Dict[str, Any]]] = None) -> List[Any]:
        """Apply ``fn`` to every item via the fleet; input-order results."""
        # SweepRunner.map does all the work.  The override only keeps a
        # ``map`` entry in this class's ``__dict__``, which perfbench's
        # traced mode wraps (``perfbench/spans.py``, ``PROBES``).
        return super().map(fn, items, label=label, coords=coords)

    # ------------------------------------------------------------- evaluate
    def _evaluate(self, fn: Callable[[Any], Any], items: Sequence[Any],
                  keys: Optional[Sequence[str]], label: str) -> List[Any]:
        """Run the distinct uncached items as one broker sweep, in order."""
        if not items:
            return []
        try:
            payloads = [pickle.dumps((fn, item),
                                     protocol=pickle.HIGHEST_PROTOCOL)
                        for item in items]
        except (TypeError, pickle.PicklingError, AttributeError):
            payloads = None
        if keys is None or payloads is None:
            # Unkeyable or unshippable work cannot cross the fleet boundary;
            # evaluate locally — correctness first, distribution best-effort.
            return super()._evaluate(fn, items, keys, label)

        ticket = self.broker.create_sweep(
            [WorkItem(key=key, payload=payload)
             for key, payload in zip(keys, payloads)],
            label=label, results=self.results)
        # Keys the broker resolved at enqueue (its own result table, or the
        # results store) are not executed again: they count as hits.
        self.stats.cache_hits += len(ticket.done_keys)
        self.stats.points_executed += len(items) - len(ticket.done_keys)

        self._spawn_workers(label)
        # The drain writes no memo entries: SweepRunner.map puts every value
        # returned here, which also covers jobs external workers ran with
        # private caches.
        drainer = (Worker(self.broker, worker_id=f"{label}-drain",
                          lease_seconds=self.lease_seconds)
                   if self.drain else None)
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        values: List[Any] = [None] * len(items)
        seen: set = set()
        try:
            while len(seen) < len(items):
                # Drain before polling, so one poll sees the batch just run.
                drained = drainer.run_batch() if drainer is not None else 0
                finished = self.broker.finished_positions(ticket.sweep_id)
                new = sorted(set(finished) - seen)
                if not new:
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError(
                            f"distributed sweep {ticket.sweep_id} timed out "
                            f"after {self.timeout}s "
                            f"({len(seen)}/{len(items)} jobs finished)")
                    if not drained:
                        time.sleep(self.poll_interval)
                    continue
                for job in self.broker.fetch_results(ticket.sweep_id,
                                                     positions=new):
                    seen.add(job.position)
                    if job.state != "done":
                        self.stats.failed_jobs += 1
                        self._abort(ticket.sweep_id)
                        raise DistributedJobError(job.position, job.key,
                                                  job.error)
                    if job.key not in ticket.done_keys:
                        self.stats.count_tiers([job.value])
                    values[job.position] = job.value
            self.stats.retries += self.broker.retries(ticket.sweep_id)
        finally:
            self._stop_workers()
        return values

    # -------------------------------------------------------------- workers
    def _spawn_workers(self, label: str) -> None:
        if self.workers <= 0:
            return
        broker_url = getattr(self.broker, "url", None)
        if broker_url is None:
            raise ValueError(
                "spawning local workers requires a URL-addressable broker "
                "(one exposing .url, like SQLiteBroker or HTTPBroker); "
                "pass workers=0 and start workers yourself")
        cache_dir = getattr(self.cache, "path", None)
        import multiprocessing
        context = multiprocessing.get_context()
        for index in range(self.workers):
            process = context.Process(
                target=worker_main,
                kwargs=dict(broker_url=str(broker_url),
                            cache_dir=cache_dir,
                            worker_id=f"{label}-w{index}",
                            lease_seconds=self.lease_seconds,
                            idle_grace=3600.0),   # runner stops them itself
                daemon=True)
            try:
                process.start()
            except OSError as exc:
                # Restricted sandboxes without fork: the drain loop (or
                # external workers) still make progress.
                warnings.warn(f"{label}: could not spawn worker {index} "
                              f"({exc}); continuing without it",
                              RuntimeWarning, stacklevel=2)
                break
            self.worker_processes.append(process)

    def _stop_workers(self) -> None:
        for process in self.worker_processes:
            if process.is_alive():
                process.terminate()
        for process in self.worker_processes:
            process.join(timeout=10.0)
        self.worker_processes = []

    def _abort(self, sweep_id: str) -> None:
        try:
            self.broker.cancel(sweep_id)
        except Exception:
            pass

    # -------------------------------------------------------------- summary
    def summary(self) -> str:
        lines = [super().summary()]
        lines.append(f"  distributed: workers={self.workers} "
                     f"drain={self.drain} broker="
                     f"{getattr(self.broker, 'url', type(self.broker).__name__)}")
        return "\n".join(lines)
