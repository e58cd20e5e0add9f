"""Sweep service front-end: JSON spec in, sweep id out, results streamed.

The thin layer between the CLI (``repro sweep submit/results``) and a
:class:`~repro.dist.broker.Broker`.  A *sweep spec* is a small JSON object
describing a :class:`~repro.eval.sweep.Grid` of canonical
:class:`~repro.exec.jobs.ExperimentJob` points::

    {
      "label":   "fig5-tiny",
      "models":  ["svm"],                 # registered execution models
      "kernels": ["vecadd", "matmul"],    # workload kernels
      "scale":   "tiny",                  # workload size class
      "axes":    {"tlb_entries": [8, 16, 32]},   # HarnessConfig axes
      "config":  {"shared_walker": true},        # fixed HarnessConfig knobs
      "tier":    "auto",
      "num_threads": 1
    }

``expand_spec`` turns that into the same ``Sweep`` an in-process caller
would build, so the submitted jobs carry the *same* content-addressed keys
as ``repro run`` / library sweeps — the broker and the shared memo store
dedup across the service boundary.  ``iter_results`` streams finished
points back as plain JSON-able dicts (coords + outcome fields), following
the sweep live with ``follow=True``.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import time
from typing import Any, Dict, Iterator, Optional

from ..eval.harness import HarnessConfig
from ..eval.sweep import Grid, Sweep
from ..exec.jobs import ExperimentJob, run_job
from ..exec.cache import MemoCache
from ..exec.keys import stable_key
from ..models import TIERS, registered_models
from ..workloads import available_workload_kernels, workload
from .broker import Broker, SweepTicket, WorkItem

#: HarnessConfig fields a spec may sweep or pin: the scalar knobs.  The
#: structured ``platform``/``software`` sub-configs are not addressable from
#: a JSON spec (submit a library sweep for those).
CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(HarnessConfig)
    if f.name not in ("platform", "software"))

#: Axis names with fixed meanings in every expanded sweep.
RESERVED_AXES = ("model", "kernel")


class SpecError(ValueError):
    """A sweep spec failed validation; the message says which field."""


def _require_names(spec: Dict[str, Any], field: str, known,
                   what: str) -> list:
    values = spec.get(field)
    if (not isinstance(values, (list, tuple)) or not values
            or not all(isinstance(v, str) for v in values)):
        raise SpecError(f"spec[{field!r}] must be a non-empty list of "
                        f"{what} names")
    unknown = [v for v in values if v not in known]
    if unknown:
        raise SpecError(f"unknown {what}(s) {unknown!r}; "
                        f"available: {sorted(known)}")
    return list(values)


def expand_spec(spec: Dict[str, Any]) -> Sweep:
    """Validate a sweep spec and expand it into a :class:`Sweep`.

    Raises :class:`SpecError` with a field-level message on any problem —
    the service rejects bad specs at submit time, not on a worker.
    """
    if not isinstance(spec, dict):
        raise SpecError("a sweep spec must be a JSON object")
    known = {"label", "models", "kernels", "scale", "axes", "config",
             "tier", "num_threads"}
    stray = sorted(set(spec) - known)
    if stray:
        raise SpecError(f"unknown spec field(s) {stray!r}; "
                        f"expected a subset of {sorted(known)}")
    models = _require_names(spec, "models", registered_models(),
                            "execution model")
    kernels = _require_names(spec, "kernels", available_workload_kernels(),
                             "kernel")
    scale = spec.get("scale", "tiny")
    if not isinstance(scale, str):
        raise SpecError("spec['scale'] must be a string size class")
    tier = spec.get("tier", "auto")
    if tier not in TIERS:
        raise SpecError(f"spec['tier'] must be one of {TIERS}")
    num_threads = spec.get("num_threads", 1)
    if not isinstance(num_threads, int) or num_threads < 1:
        raise SpecError("spec['num_threads'] must be a positive integer")

    fixed = spec.get("config", {})
    if not isinstance(fixed, dict):
        raise SpecError("spec['config'] must be an object of "
                        "HarnessConfig fields")
    axes = spec.get("axes", {})
    if not isinstance(axes, dict):
        raise SpecError("spec['axes'] must be an object mapping axis "
                        "names to value lists")
    for name in RESERVED_AXES:
        if name in axes or name in fixed:
            raise SpecError(f"axis name {name!r} is reserved "
                            "(use 'models'/'kernels')")
    for source, names in (("config", fixed), ("axes", axes)):
        bad = sorted(set(names) - set(CONFIG_FIELDS))
        if bad:
            raise SpecError(f"spec[{source!r}] refers to unknown "
                            f"HarnessConfig field(s) {bad!r}; "
                            f"available: {sorted(CONFIG_FIELDS)}")
    clash = sorted(set(axes) & set(fixed))
    if clash:
        raise SpecError(f"field(s) {clash!r} appear in both 'axes' and "
                        "'config'; pin or sweep, not both")
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError(f"axis {name!r} must be a non-empty list")

    # Workloads are shared across axis combos: build each (kernel, scale)
    # spec once so every point of a kernel carries an identical workload
    # value (and therefore an identical cache key component).
    try:
        specs = {kernel: workload(kernel, scale=scale) for kernel in kernels}
    except (KeyError, ValueError) as exc:
        raise SpecError(f"could not build workloads at scale {scale!r}: "
                        f"{exc}") from exc

    def build(model: str, kernel: str, **combo: Any) -> ExperimentJob:
        config = HarnessConfig(**{**fixed, **combo})
        return ExperimentJob(model, specs[kernel], config,
                             num_threads=num_threads, tier=tier)

    grid = Grid(model=models, kernel=kernels, **axes)
    label = spec.get("label") or "sweep"
    if not isinstance(label, str):
        raise SpecError("spec['label'] must be a string")
    try:
        return grid.sweep(build, label=label)
    except TypeError as exc:
        raise SpecError(f"invalid configuration value: {exc}") from exc


def canonical_spec(spec: Dict[str, Any]) -> str:
    """The stored (and displayed) form of a spec: sorted, compact JSON."""
    return json.dumps(spec, sort_keys=True, separators=(", ", ": "))


def submit_sweep(broker: Broker, spec: Dict[str, Any],
                 memo: Optional[MemoCache] = None,
                 results: Optional[Any] = None) -> SweepTicket:
    """Expand a spec and enqueue it; returns the broker's ticket.

    Keys are ``stable_key(run_job, job)`` — identical to what an in-process
    :class:`~repro.exec.runner.SweepRunner` computes for the same point, so
    the fleet memo store serves submissions and library runs alike.  With a
    ``results`` store (:class:`~repro.store.ResultsStore`), points any past
    run persisted under the current package version are adopted as done at
    enqueue time, alongside the memo consult.
    """
    sweep = expand_spec(spec)
    items = []
    for position, point in enumerate(sweep.points):
        items.append(WorkItem(
            key=stable_key(run_job, point.job),
            payload=pickle.dumps((run_job, point.job),
                                 protocol=pickle.HIGHEST_PROTOCOL),
            meta={"position": position, "coords": dict(point.coords)}))
    return broker.create_sweep(
        items, label=sweep.label or "sweep", spec=canonical_spec(spec),
        memo=memo, results=results)


def _jsonable_outcome(value: Any) -> Any:
    """Outcome -> JSON-able: dataclasses expand, exotic values stringify."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


#: Positions materialized per ``fetch_results`` call inside
#: :func:`iter_results`.  Fetching a sweep's finished rows in bounded
#: chunks keeps at most this many unpickled values alive at once, however
#: large the sweep — the streaming front-end never holds the whole sweep.
FETCH_CHUNK = 256


def iter_results(broker: Broker, sweep_id: str, *, follow: bool = False,
                 poll_interval: float = 0.2,
                 timeout: Optional[float] = None
                 ) -> Iterator[Dict[str, Any]]:
    """Yield finished points of a sweep as JSON-able dicts.

    Without ``follow``, yields whatever is finished right now and returns.
    With ``follow``, polls until every job reaches a terminal state,
    yielding each point once as it finishes (position order within each
    poll).  ``timeout`` bounds the follow in seconds (TimeoutError).

    Values are materialized lazily, :data:`FETCH_CHUNK` positions at a
    time, so following a large sweep streams in bounded memory instead of
    unpickling every result row up front.
    """
    deadline = (time.monotonic() + timeout) if timeout is not None else None
    seen: set = set()
    while True:
        status = broker.status(sweep_id)      # KeyError for unknown sweeps
        fresh = sorted(set(broker.finished_positions(sweep_id)) - seen)
        for start in range(0, len(fresh), FETCH_CHUNK):
            chunk = fresh[start:start + FETCH_CHUNK]
            for job in broker.fetch_results(sweep_id, positions=chunk):
                seen.add(job.position)
                record: Dict[str, Any] = {
                    "position": job.position,
                    "state": job.state,
                    "coords": (job.meta or {}).get("coords"),
                    "key": job.key,
                }
                if job.state == "done":
                    record["outcome"] = _jsonable_outcome(job.value)
                else:
                    record["error"] = job.error
                if job.worker is not None:
                    record["worker"] = job.worker
                yield record
        if not follow or (status["finished"] and len(seen) >= status["total"]):
            return
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(
                f"sweep {sweep_id} still running after {timeout}s "
                f"({len(seen)}/{status['total']} jobs finished)")
        if not fresh:
            time.sleep(poll_interval)
