"""Parallel, memoized sweep execution.

:class:`SweepRunner` evaluates independent experiment points — "apply this
pure function to each of these spec/config items" — with three orthogonal
accelerations:

* **parallelism**: ``jobs > 1`` fans the uncached points out over a
  ``concurrent.futures`` process pool; anything unpicklable (or a broken
  pool, e.g. in sandboxes without ``fork``) falls back to the serial path,
* **memoization**: results are stored in a :class:`~repro.exec.cache.MemoCache`
  keyed by a stable content hash of (function, item), so repeated points
  within a sweep, across figures, or across sweeps are evaluated once,
* **timing**: per-sweep wall-clock is accumulated in an
  ``ExperimentMediator``-style ``timings`` dict for progress reporting.

:meth:`SweepRunner.map` is the one path every runner takes: it keys the
points, serves memo hits, evaluates each distinct miss once, fills the memo,
records the results store and accounts hits, timings and progress.  Only
where the misses run is a subclass's choice — the one hook
:meth:`SweepRunner._evaluate` (the pool here; a broker fleet in
:class:`~repro.dist.runner.DistributedRunner`).

Results are returned in input order and are bit-identical to the serial
path: every point builds its own seeded simulation, so evaluation order and
placement (process vs subprocess) cannot influence the outcome.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence)

from ..models import UnknownModelError
from .cache import MemoCache
from .keys import stable_key

#: Pool-infrastructure errors that degrade to the serial path instead of
#: propagating as point failures (see :meth:`SweepRunner._evaluate`).
_POOL_FALLBACK_ERRORS = (concurrent.futures.process.BrokenProcessPool,
                         OSError, pickle.PicklingError, TypeError,
                         AttributeError, UnknownModelError)


@dataclass
class RunnerStats:
    """Aggregate accounting across every ``map`` call of one runner.

    ``tier_counts`` breaks the executed points down by the execution tier
    that actually produced each result (``"event"`` vs ``"replay"``, read
    from the outcome's ``tier`` field, or a mapping's ``"tier"`` key, as a
    DSE candidate returns it); memoized points are counted as
    ``cache_hits``, not by tier — no simulation ran for them.  Results
    without a tier (scalar metrics, non-model sweeps) are not counted.
    """

    points_submitted: int = 0
    points_executed: int = 0
    cache_hits: int = 0
    parallel_batches: int = 0
    serial_batches: int = 0
    #: Points whose evaluation raised (the first failure is propagated
    #: eagerly; queued work is cancelled, so at most one failure is *counted*
    #: per batch even if more would have failed).
    failed_jobs: int = 0
    #: Re-executions of the same point after a lease expiry or transient
    #: failure (distributed runners only; the in-process pool never retries).
    retries: int = 0
    #: Budget accounting of adaptive explorations (:mod:`repro.dse`):
    #: evaluations an explorer dispatched (charged against its ``budget``)
    #: and candidates it adopted from the results store without spending
    #: any (warm starts).
    explore_evaluations: int = 0
    explore_warm_hits: int = 0
    tier_counts: Dict[str, int] = field(default_factory=dict)

    def count_tiers(self, results: Iterable[Any]) -> None:
        """Tally the tier of each freshly executed result."""
        for result in results:
            tier = (result.get("tier") if isinstance(result, Mapping)
                    else getattr(result, "tier", None))
            if isinstance(tier, str):
                self.tier_counts[tier] = self.tier_counts.get(tier, 0) + 1

    def as_dict(self) -> Dict[str, int]:
        out = {"points_submitted": self.points_submitted,
               "points_executed": self.points_executed,
               "cache_hits": self.cache_hits,
               "parallel_batches": self.parallel_batches,
               "serial_batches": self.serial_batches,
               "failed_jobs": self.failed_jobs,
               "retries": self.retries,
               "explore_evaluations": self.explore_evaluations,
               "explore_warm_hits": self.explore_warm_hits}
        for tier, count in sorted(self.tier_counts.items()):
            out[f"tier_{tier}"] = count
        return out


class SweepRunner:
    """Evaluate independent experiment points, optionally in parallel.

    Parameters
    ----------
    jobs:
        Maximum worker processes.  ``1`` (the default) evaluates serially in
        the calling process; ``None`` uses the machine's CPU count.
    cache:
        A :class:`MemoCache` for content-addressed result reuse, or ``None``
        to disable memoization entirely.
    progress:
        Optional callable invoked with one human-readable line per sweep
        (label, point count, cache hits, wall time).
    results:
        An optional :class:`~repro.store.ResultsStore`: every computed (or
        cache-served) outcome is appended to it, keyed by the same memo
        key.  The store deduplicates per (key, git sha), so re-running an
        unchanged sweep appends nothing.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[MemoCache] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 results: Optional[Any] = None):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.results = results
        #: label -> accumulated wall-clock seconds, one entry per sweep label.
        self.timings: Dict[str, float] = {}
        self.stats = RunnerStats()

    # ------------------------------------------------------------------- map
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            label: Optional[str] = None,
            coords: Optional[Sequence[Dict[str, Any]]] = None) -> List[Any]:
        """Apply ``fn`` to every item; returns results in input order.

        ``fn`` must be pure and deterministic.  Whenever the items are keyed
        (a cache or results store is attached, or the runner addresses its
        work by key), in-call duplicates are evaluated once and, with a
        cache, points remembered from earlier calls are not evaluated at
        all; the distinct misses go to :meth:`_evaluate`.  ``coords``
        optionally labels each item with its sweep coordinates (one mapping
        per item, as :meth:`Sweep.run` passes) — recorded into the attached
        results store, ignored otherwise.
        """
        items = list(items)
        if coords is not None and len(coords) != len(items):
            raise ValueError("one coords mapping per item required")
        label = label or getattr(fn, "__name__", "sweep")
        started = time.perf_counter()
        self.stats.points_submitted += len(items)

        keys = self._keys_for(fn, items)
        if keys is None:
            results = self._evaluate(fn, items, None, label)
        else:
            results = self._map_keyed(fn, items, keys, label)
        if self.results is not None and keys is not None:
            # Cache hits are recorded too: the store's (key, sha) dedup makes
            # that idempotent, and a warm-cache run fills a fresh store.
            for position, key in enumerate(keys):
                self.results.record(
                    key, results[position], experiment=label,
                    coords=coords[position] if coords is not None else None,
                    kernel=getattr(getattr(items[position], "workload", None),
                                   "kernel", None))

        elapsed = time.perf_counter() - started
        self.timings[label] = self.timings.get(label, 0.0) + elapsed
        if self.progress is not None:
            hits = self.stats.cache_hits
            self.progress(f"{label}: {len(items)} point(s) in {elapsed:.2f}s "
                          f"(jobs={self.jobs}, cumulative cache hits={hits})")
        return results

    #: Key every point even with no cache or store attached (set by runners
    #: whose work is addressed by key, like a broker fleet's jobs).
    _always_keyed = False

    def _keys_for(self, fn: Callable[[Any], Any],
                  items: Sequence[Any]) -> Optional[List[str]]:
        """Memo keys for every item, or ``None`` when unkeyed.

        Unkeyable inputs (local closures, exotic objects) evaluate directly
        and are never memoized or recorded — correctness first, both layers
        are best-effort.  Computed once per ``map`` so the cache, the
        results store and :meth:`_evaluate` agree on every point's address.
        """
        if (self.cache is None and self.results is None
                and not self._always_keyed):
            return None
        try:
            return [stable_key(fn, item) for item in items]
        except TypeError:
            return None

    def _map_keyed(self, fn: Callable[[Any], Any], items: Sequence[Any],
                   keys: Sequence[str], label: str) -> List[Any]:
        """Serve memo hits, evaluate each distinct miss once, fill the memo."""
        results: List[Any] = [None] * len(items)
        pending: Dict[str, List[int]] = {}   # key -> positions needing it
        for position, key in enumerate(keys):
            if self.cache is not None and key in self.cache:
                results[position] = self.cache.get(key)
                self.stats.cache_hits += 1
            else:
                pending.setdefault(key, []).append(position)

        fresh = self._evaluate(
            fn, [items[positions[0]] for positions in pending.values()],
            list(pending), label)
        for (key, positions), value in zip(pending.items(), fresh):
            if self.cache is not None:
                self.cache.put(key, value)
            for position in positions:
                results[position] = value
            self.stats.cache_hits += len(positions) - 1   # in-call duplicates
        return results

    # ------------------------------------------------------------- evaluate
    def _evaluate(self, fn: Callable[[Any], Any], items: Sequence[Any],
                  keys: Optional[Sequence[str]], label: str) -> List[Any]:
        """Evaluate distinct uncached items, in order: serially or on the
        pool here; subclasses use ``keys`` and ``label`` to run them elsewhere."""
        if not items:
            return []
        self.stats.points_executed += len(items)
        if self.jobs <= 1 or len(items) <= 1 or not _picklable(fn, items):
            self.stats.serial_batches += 1
            return self._evaluate_serial(fn, items)
        workers = min(self.jobs, len(items))
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(fn, item) for item in items]
                try:
                    for future in concurrent.futures.as_completed(futures):
                        error = future.exception()
                        if error is not None:
                            raise error
                except _POOL_FALLBACK_ERRORS:
                    raise
                except BaseException:
                    # First genuine point failure: cancel everything still
                    # queued and surface it now, instead of letting the rest
                    # of the pool drain first.  (Futures already running
                    # finish on pool shutdown; their results are discarded.)
                    pool.shutdown(wait=False, cancel_futures=True)
                    self.stats.failed_jobs += 1
                    raise
                results = [future.result() for future in futures]
            self.stats.parallel_batches += 1
            self.stats.count_tiers(results)
            return results
        except _POOL_FALLBACK_ERRORS:
            # Pool could not be sustained (restricted sandbox, fork failure),
            # an item/result beyond the sampled first one failed to pickle,
            # or a spawn/forkserver worker lacks an execution model that was
            # registered outside module import (the parent validated the name
            # at job construction, so the registration exists *here*).
            # Points are pure, so re-running serially is safe and identical —
            # and a genuine TypeError from ``fn`` itself will re-raise from
            # the serial pass below.
            self.stats.serial_batches += 1
            return self._evaluate_serial(fn, items)

    def _evaluate_serial(self, fn: Callable[[Any], Any],
                         items: Sequence[Any]) -> List[Any]:
        results: List[Any] = []
        for item in items:
            try:
                results.append(fn(item))
            except BaseException:
                self.stats.failed_jobs += 1
                raise
        self.stats.count_tiers(results)
        return results

    # -------------------------------------------------------------- summary
    def summary_dict(self) -> Dict[str, Any]:
        """The runner summary as plain data: per-stage wall, tier counts,
        cache/parallelism accounting — the JSON behind ``repro run --stats``."""
        out: Dict[str, Any] = {
            "jobs": self.jobs,
            "timings_s": {label: round(seconds, 6)
                          for label, seconds in sorted(self.timings.items())},
            "total_wall_s": round(sum(self.timings.values()), 6),
            "stats": self.stats.as_dict(),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out

    def summary(self) -> str:
        """Multi-line report of timings and cache/parallelism accounting."""
        lines = [f"sweep timings (jobs={self.jobs}):"]
        for label, seconds in sorted(self.timings.items()):
            lines.append(f"  {label:<28s} {seconds:8.3f}s")
        stats = self.stats.as_dict()
        if self.cache is not None:
            stats.update(cache_entries=len(self.cache))
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in stats.items()))
        return "\n".join(lines)


def _picklable(fn: Callable[[Any], Any], items: Sequence[Any]) -> bool:
    """True when ``fn`` and a sample item can cross a process boundary."""
    try:
        pickle.dumps(fn)
        if items:
            pickle.dumps(items[0])
        return True
    except Exception:
        return False
