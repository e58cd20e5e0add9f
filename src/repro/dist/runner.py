"""`DistributedRunner`: the fleet executor behind the ``runner=`` seam.

Drop-in for :class:`~repro.exec.runner.SweepRunner` — same ``map`` contract
(results in input order, bit-identical to the serial path), same memoization
key, same stats/timings surface — but the points are executed by a fleet of
workers coordinated through a :class:`~repro.dist.broker.Broker` instead of
an in-process pool.  Everything already threaded through the seam
(``explore(runner=)``, the experiments, ``compare(runner=)``) distributes
without modification.

Per ``map`` call the runner:

1. consults the local/shared :class:`~repro.exec.cache.MemoCache` and
   resolves hits immediately (exactly like ``SweepRunner``),
2. enqueues the remaining *unique* keys as one broker sweep (the broker
   consults the fleet memo store again — a point any worker ever computed
   anywhere is served from cache, never re-simulated),
3. optionally spawns local worker processes (``workers=N``); with
   ``workers=0`` it relies on externally started ``repro worker`` processes
   and/or its own **drain** loop (``drain=True``, the default), in which the
   calling process claims and runs a batch of jobs itself before each poll
   — so progress is guaranteed even with no fleet at all,
4. streams results back incrementally as workers report them
   (:meth:`map_stream` exposes the stream; :meth:`map` collects it), and
5. propagates the first job failure eagerly: the sweep is cancelled at the
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
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..exec.cache import MemoCache
from ..exec.keys import stable_key
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
            coords: Optional[List[Dict[str, Any]]] = None) -> List[Any]:
        """Apply ``fn`` to every item via the fleet; input-order results."""
        items = list(items)
        results: List[Any] = [None] * len(items)
        for position, value in self.map_stream(fn, items, label=label,
                                               coords=coords):
            results[position] = value
        return results

    def map_stream(self, fn: Callable[[Any], Any], items: Iterable[Any],
                   label: Optional[str] = None,
                   coords: Optional[List[Dict[str, Any]]] = None
                   ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(position, result)`` pairs as points complete.

        Completion order, not input order — callers wanting partial
        consumption (e.g. a streaming service front-end) read pairs as they
        arrive; :meth:`map` reassembles input order.  ``coords`` labels each
        item for the attached results store, as in
        :meth:`SweepRunner.map`.
        """
        items = list(items)
        if coords is not None and len(coords) != len(items):
            raise ValueError("one coords mapping per item required")
        label = label or getattr(fn, "__name__", "sweep")
        started = time.perf_counter()
        self.stats.points_submitted += len(items)
        try:
            yield from self._stream(fn, items, label, coords)
        finally:
            elapsed = time.perf_counter() - started
            self.timings[label] = self.timings.get(label, 0.0) + elapsed
            if self.progress is not None:
                self.progress(
                    f"{label}: {len(items)} point(s) in {elapsed:.2f}s "
                    f"(distributed, workers={self.workers}, cumulative "
                    f"cache hits={self.stats.cache_hits})")

    # ------------------------------------------------------------- internal
    def _stream(self, fn: Callable[[Any], Any], items: List[Any],
                label: str,
                coords: Optional[List[Dict[str, Any]]] = None
                ) -> Iterator[Tuple[int, Any]]:
        try:
            keys = [stable_key(fn, item) for item in items]
            payloads = {position: pickle.dumps((fn, items[position]),
                                               protocol=pickle.HIGHEST_PROTOCOL)
                        for position in range(len(items))}
        except (TypeError, pickle.PicklingError, AttributeError):
            # Unkeyable or unshippable work cannot cross the fleet boundary;
            # evaluate locally — correctness first, distribution best-effort.
            for position, value in enumerate(self._evaluate(fn, items)):
                yield position, value
            return

        def resolve(position: int, value: Any) -> Tuple[int, Any]:
            # Every resolved point — memo hit, store hit or fleet-computed —
            # lands in the results store; (key, sha) dedup keeps it append-
            # once per commit.
            if self.results is not None:
                self.results.record(
                    keys[position], value, experiment=label,
                    coords=coords[position] if coords is not None else None,
                    kernel=getattr(getattr(items[position], "workload", None),
                                   "kernel", None))
            return position, value

        # Local memo consult first (identical to SweepRunner._map_memoized).
        pending: Dict[str, List[int]] = {}
        for position, key in enumerate(keys):
            if self.cache is not None and key in self.cache:
                self.stats.cache_hits += 1
                yield resolve(position, self.cache.get(key))
            else:
                pending.setdefault(key, []).append(position)
        if not pending:
            return

        # One broker job per unique key; in-call duplicates resolve locally.
        work = [WorkItem(key=key, payload=payloads[positions[0]],
                         meta={"position": positions[0]})
                for key, positions in pending.items()]
        # ``results=`` only when a store is attached: brokers predating the
        # results store (or overriding create_sweep without it) keep working.
        ticket = self.broker.create_sweep(
            work, label=label, memo=self.cache,
            **({} if self.results is None else {"results": self.results}))
        executed_keys = set(pending) - set(ticket.done_keys)
        # Hit accounting mirrors SweepRunner: every position of a fleet-
        # resolved key is a hit; an executed key counts its duplicates only.
        self.stats.cache_hits += sum(len(pending[key]) - 1
                                     for key in executed_keys)
        self.stats.cache_hits += sum(len(pending[key])
                                     for key in ticket.done_keys)
        self.stats.points_executed += len(executed_keys)

        self._spawn_workers(label)
        # The drain writes no memo entries: every fetched result is put below,
        # which also covers jobs external workers ran with private caches.
        drainer = (Worker(self.broker, worker_id=f"{label}-drain",
                          lease_seconds=self.lease_seconds)
                   if self.drain else None)
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        seen: set = set()
        try:
            while len(seen) < len(work):
                # Drain before polling, so one poll sees the batch just run.
                drained = drainer.run_batch() if drainer is not None else 0
                finished = self.broker.finished_positions(ticket.sweep_id)
                new = sorted(set(finished) - seen)
                if not new:
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError(
                            f"distributed sweep {ticket.sweep_id} timed out "
                            f"after {self.timeout}s "
                            f"({len(seen)}/{len(work)} jobs finished)")
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
                    if job.key in executed_keys:
                        self.stats.count_tiers([job.value])
                    if self.cache is not None:
                        self.cache.put(job.key, job.value)
                    for position in pending[job.key]:
                        yield resolve(position, job.value)
            self.stats.retries += self.broker.retries(ticket.sweep_id)
        finally:
            self._stop_workers()

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
        cache_dir = self.cache.path if self.cache is not None else None
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
            except OSError:
                # Restricted sandboxes without fork: the drain loop (or
                # external workers) still make progress.
                if self.progress is not None:
                    self.progress(f"{label}: could not spawn worker "
                                  f"{index} (continuing without it)")
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
