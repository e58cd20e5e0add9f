"""Parallel, memoized experiment execution.

The evaluation surface (Tables 1-3, Figs. 4-10) is a collection of sweeps
over independent, deterministic simulation points.  This package turns those
sweeps from serial loops into schedulable work:

* :class:`SweepRunner` — evaluates points concurrently on a process pool
  (``jobs=N``) with a transparent serial fallback, preserving input order
  and bit-identical results,
* :class:`MemoCache` / :func:`default_cache` — content-addressed result
  reuse keyed by :func:`stable_key` hashes of (function, spec, config),
  optionally shared across processes through ``<path>/memo.sqlite``,
* :class:`ExperimentJob` / :func:`run_job` — the canonical picklable unit
  of work: one workload under one registered execution model
  (:mod:`repro.models`) with one harness configuration.

There is one ``map`` path, :meth:`SweepRunner.map`, and it scales past one
machine: :mod:`repro.dist` provides
:class:`~repro.dist.runner.DistributedRunner`, a :class:`SweepRunner` whose
distinct misses run on a broker fleet whose workers can share one
:class:`MemoCache` file as the fleet-wide memo store.

See the "Execution models & sweeps" section of the README for usage, and
``repro.cli`` for the ``--jobs`` / ``--no-cache`` / ``--cache-dir`` flags.
"""

from .cache import MemoCache, default_cache
from .jobs import ExperimentJob, run_job
from .keys import canonical, stable_key
from .runner import RunnerStats, SweepRunner

__all__ = [
    "ExperimentJob",
    "MemoCache",
    "RunnerStats",
    "SweepRunner",
    "canonical",
    "default_cache",
    "run_job",
    "stable_key",
]
