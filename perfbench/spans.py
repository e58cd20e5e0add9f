"""Spans around the public calls into each layer, recorded from outside.

A traced unit wraps the functions in :data:`PROBES` with :class:`Recorder`
wrappers.  Each call records one span -- name, start, end, parent span,
thread, point id and a small value read off the result -- in memory; the
unit writes the list out when it ends.  A layer's time is its spans' self
time: duration minus the time of child spans.

Calls served by the in-process broker server run on its handler threads;
their spans are parented to the main thread's open span (the client call
waiting for the reply), so the client's self time is the HTTP overhead.

Per-event paths (``Simulator.schedule``, ``Component.count``) are never
wrapped: they run millions of times per workload.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


def _memif_ops(result: Any) -> int:
    stats = result.system_result.stats
    return int(sum(value for key, value in stats.items()
                   if key.endswith(".memif.ops")))


def _point_note(result: Any) -> Dict[str, Any]:
    telemetry = result.telemetry
    return {"tier": result.tier, "fallback": result.tier_reason is not None,
            "cycles": result.total_cycles, "tlb_misses": result.tlb_misses,
            "walks": result.walks, "faults": result.faults,
            "context_switches": result.context_switches,
            "epochs": telemetry.num_epochs if telemetry is not None else 0,
            "memif_ops": _memif_ops(result) if result.tier == "event" else 0}


class Probe(NamedTuple):
    """One wrapped call: ``target`` is ``func`` or ``Class.method`` in
    ``module``; ``Class.*method`` wraps every class of the module that
    defines ``method`` itself."""

    span: str
    module: str
    target: str
    #: Result -> span value (a count the layer metrics need).
    note: Optional[Callable[[Any, tuple], Any]] = None
    #: Runs on a broker-server thread: parent it to the waiting client call.
    remote: bool = False
    #: Opens a new point id (one simulated point or one fleet job).
    point: bool = False
    #: Rebind only the names these modules imported (default: everywhere).
    where: Tuple[str, ...] = ()


PROBES: Tuple[Probe, ...] = (
    Probe("fastpath.replay", "repro.fastpath.engine", "replay_fabric",
          note=lambda r, a: r.events),
    Probe("fastpath.program", "repro.fastpath.record", "program_for_workload"),
    Probe("fastpath.program", "repro.fastpath.record", "program_for_plan"),
    Probe("fastpath.capture", "repro.sim.recorder", "TraceRecorder.capture",
          note=lambda r, a: r.num_ops),
    Probe("sim.run", "repro.sim.engine", "Simulator.run"),
    Probe("core.synthesize", "repro.core.synthesis",
          "SystemSynthesizer.synthesize"),
    Probe("workloads.bind", "repro.workloads.specs", "WorkloadSpec.bind"),
    Probe("eval.point", "repro.eval.harness", "run_svm",
          note=lambda r, a: _point_note(r), point=True),
    Probe("eval.point", "repro.eval.harness", "run_multiprocess",
          note=lambda r, a: _point_note(r), point=True),
    Probe("eval.candidate", "repro.eval.experiments", "_fig14_point",
          point=True),
    Probe("os.observe", "repro.os.scheduler", "*.observe"),
    Probe("dse.space", "repro.dse.explorer", "DesignSpace.from_axes"),
    Probe("dse.explore", "repro.dse.explorer", "*.explore"),
    Probe("exec.map", "repro.exec.runner", "SweepRunner.map"),
    Probe("exec.map", "repro.dist.runner", "DistributedRunner.map"),
    Probe("exec.stable_key", "repro.exec.keys", "stable_key",
          where=("repro.exec.runner", "repro.dist.runner")),
    Probe("exec.memo_probe", "repro.exec.cache", "MemoCache.get"),
    Probe("exec.memo_contains", "repro.exec.cache", "MemoCache.__contains__",
          note=lambda r, a: bool(r)),
    Probe("exec.memo_put", "repro.exec.cache", "MemoCache.put"),
    Probe("dist.create_sweep", "repro.dist.http", "HTTPBroker.create_sweep",
          note=lambda r, a: r.already_done),
    Probe("dist.claim", "repro.dist.http", "HTTPBroker.claim",
          note=lambda r, a: r is not None),
    Probe("dist.complete", "repro.dist.http", "HTTPBroker.complete"),
    Probe("dist.poll", "repro.dist.http", "HTTPBroker.finished_positions"),
    Probe("dist.fetch", "repro.dist.http", "HTTPBroker.fetch_results"),
    Probe("dist.control", "repro.dist.http", "HTTPBroker.ping"),
    Probe("dist.control", "repro.dist.http", "HTTPBroker.retries"),
    Probe("dist.server", "repro.dist.broker", "SQLiteBroker.create_sweep",
          remote=True),
    Probe("dist.server", "repro.dist.broker", "SQLiteBroker.claim",
          remote=True),
    Probe("dist.server", "repro.dist.broker", "SQLiteBroker.complete_bytes",
          remote=True),
    Probe("dist.server", "repro.dist.broker",
          "SQLiteBroker.finished_positions", remote=True),
    Probe("dist.server", "repro.dist.broker",
          "SQLiteBroker.fetch_result_rows", remote=True),
    Probe("dist.run_one", "repro.dist.worker", "Worker.run_one", point=True),
    Probe("store.append", "repro.store.results", "ResultsStore.record",
          note=lambda r, a: bool(r)),
    Probe("store.warm", "repro.store.results", "ResultsStore.warm_values",
          note=lambda r, a: len(a[1])),
)

#: Client-side HTTP calls: one request each.
CLIENT_SPANS = ("dist.create_sweep", "dist.claim", "dist.complete",
                "dist.poll", "dist.fetch", "dist.control")

# Span record fields (a list per span, so the end can be filled in place).
NAME, START, END, PARENT, THREAD, POINT, VALUE = range(7)


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------
def patch(probe: Probe, make: Callable[[Callable], Callable]) -> None:
    """Replace ``probe``'s target(s) with ``make(original)``.

    Module-level functions are rebound in every loaded ``repro`` module that
    imported them by name; methods are replaced on their class (keeping
    ``classmethod``/``staticmethod`` wrappers).
    """
    module = importlib.import_module(probe.module)
    owner_name, _, attr = probe.target.rpartition(".")
    if not owner_name:
        original = getattr(module, attr)
        wrapped = make(original)
        names = probe.where or tuple(sorted(
            name for name in sys.modules if name.startswith("repro")))
        for name in names:
            namespace = vars(sys.modules[name])
            if namespace.get(attr) is original:
                namespace[attr] = wrapped
        return
    if owner_name == "*":
        owners = [cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and attr in cls.__dict__]
    else:
        owners = [getattr(module, owner_name)]
    for owner in owners:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))


def import_targets() -> None:
    """Import every probed module (and so everything that rebinds names)."""
    for probe in PROBES:
        importlib.import_module(probe.module)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------
class Recorder:
    """In-memory span list shared by the main thread and server threads."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._main_stack: List[int] = []
        self._local = threading.local()
        self._points = 0

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, probe: Probe) -> Tuple[List[int], int]:
        stack = self._stack()
        main = stack is self._main_stack
        if stack:
            parent = stack[-1]
        elif probe.remote and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            point = self.spans[parent][POINT] if parent >= 0 else -1
            if probe.point and point < 0:
                point = self._points
                self._points += 1
            index = len(self.spans)
            self.spans.append([probe.span, time.perf_counter(), 0.0, parent,
                               0 if main else 1, point, None])
        stack.append(index)
        return stack, index

    def wrapper(self, probe: Probe) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                stack, index = self._open(probe)
                record = self.spans[index]
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[END] = time.perf_counter()
                    stack.pop()
                if probe.note is not None:
                    record[VALUE] = probe.note(result, args)
                return result
            return traced
        return make

    def install(self, probes: Iterable[Probe] = PROBES) -> None:
        for probe in probes:
            patch(probe, self.wrapper(probe))


# ---------------------------------------------------------------------------
# Per-unit layer figures
# ---------------------------------------------------------------------------
class Summary:
    """Self time, calls and values per span name for one traced unit."""

    def __init__(self, spans: List[list]) -> None:
        child = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        self.self_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.values: Dict[str, List[Any]] = {}
        self.top_s = 0.0
        for index, record in enumerate(spans):
            name = record[NAME]
            duration = record[END] - record[START]
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + duration - child[index])
            parent = record[PARENT]
            if parent < 0 and record[THREAD] == 0:
                self.top_s += duration
            if parent >= 0 and spans[parent][NAME] == name:
                continue                    # nested same-name call
            self.durations.setdefault(name, []).append(duration)
            self.values.setdefault(name, []).append(record[VALUE])

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def mean_us(self, *names: str) -> float:
        samples = [d for name in names for d in self.durations.get(name, ())]
        return 1e6 * sum(samples) / len(samples) if samples else 0.0

    def count_values(self, name: str, predicate: Callable[[Any], bool]) -> int:
        return sum(1 for value in self.values.get(name, ()) if predicate(value))

    def sum_values(self, name: str, key: Optional[str] = None) -> int:
        values = self.values.get(name, ())
        if key is not None:
            values = [value[key] for value in values]
        return int(sum(values))


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_figures(spans: List[list], wall_s: float, counts: Dict[str, Any]
                  ) -> Tuple[Dict[str, Any], Dict[str, List[float]],
                             Dict[str, int]]:
    """One traced unit's per-layer values, its latency samples (ms) and its
    outermost-call count per span name.

    ``counts`` are the unit's exact counts read off results and public
    counters; only ``dist.jobs_executed`` is used here, as a divisor.
    """
    s = Summary(spans)
    own = s.self_s.get
    jobs = counts.get("dist.jobs_executed", 0)
    replay_s = own("fastpath.replay", 0.0)
    replay_events = s.sum_values("fastpath.replay")
    record_s = own("fastpath.program", 0.0) + own("fastpath.capture", 0.0)
    record_ops = s.sum_values("fastpath.capture")
    sim_s = own("sim.run", 0.0)
    sim_ops = s.sum_values("eval.point", "memif_ops")
    contains = s.calls("exec.memo_contains")
    hits = s.count_values("exec.memo_contains", bool)
    requests = sum(s.calls(name) for name in CLIENT_SPANS)
    client_self = sum(own(name, 0.0) for name in CLIENT_SPANS)
    warm_keys = s.sum_values("store.warm")
    attributed = min(s.top_s, wall_s)
    values: Dict[str, Any] = {
        "fastpath.replay_s": replay_s,
        "fastpath.replay_events": replay_events,
        "fastpath.replay_ns_per_event": _per(replay_s, replay_events, 1e9),
        "fastpath.record_s": record_s,
        "fastpath.record_ns_per_op": _per(record_s, record_ops, 1e9),
        "sim.run_s": sim_s,
        "sim.ops": sim_ops,
        "sim.ns_per_op": _per(sim_s, sim_ops, 1e9),
        "core.synthesize_s": own("core.synthesize", 0.0),
        "workloads.bind_s": own("workloads.bind", 0.0),
        "eval.points_replay": s.count_values(
            "eval.point", lambda v: v["tier"] == "replay"),
        "eval.points_event": s.count_values(
            "eval.point", lambda v: v["tier"] == "event"),
        "eval.tier_fallbacks": s.count_values(
            "eval.point", lambda v: v["fallback"]),
        "eval.sim_cycles": s.sum_values("eval.point", "cycles"),
        "os.observe_us": s.mean_us("os.observe"),
        "os.epochs": s.sum_values("eval.point", "epochs"),
        "os.faults": s.sum_values("eval.point", "faults"),
        "os.context_switches": s.sum_values("eval.point", "context_switches"),
        "vm.tlb_misses": s.sum_values("eval.point", "tlb_misses"),
        "vm.walks": s.sum_values("eval.point", "walks"),
        "dse.space_s": s.total("dse.space"),
        "dse.explore_self_s": own("dse.explore", 0.0),
        "exec.map_self_s": own("exec.map", 0.0),
        "exec.stable_key_us": s.mean_us("exec.stable_key"),
        "exec.stable_key_calls": s.calls("exec.stable_key"),
        "exec.memo_probe_us": s.mean_us("exec.memo_probe",
                                        "exec.memo_contains"),
        "exec.memo_put_us": s.mean_us("exec.memo_put"),
        "exec.memo_hit_ratio": _per(hits, contains),
        "dist.jobs_adopted": s.sum_values("dist.create_sweep"),
        "dist.requests_per_job": round(_per(requests, jobs), 9),
        "dist.create_sweep_ms": _per(s.total("dist.create_sweep"),
                                     s.calls("dist.create_sweep"), 1e3),
        "dist.server_ms_per_job": _per(s.total("dist.server"), jobs, 1e3),
        "dist.http_ms_per_job": _per(client_self, jobs, 1e3),
        "store.append_us": s.mean_us("store.append"),
        "store.rows_appended": s.count_values("store.append", bool),
        "store.rows_deduped": s.count_values("store.append",
                                             lambda v: not v),
        "store.warm_lookup_us": _per(s.total("store.warm"), warm_keys, 1e6),
        "trace.attributed_frac": _per(attributed, wall_s),
        "trace.unattributed_s": wall_s - attributed,
    }
    samples = {name: [1e3 * d for d in s.durations.get(span, ())]
               for name, span in (("eval.point_ms", "eval.point"),
                                  ("dist.claim_ms", "dist.claim"),
                                  ("dist.complete_ms", "dist.complete"),
                                  ("dist.poll_ms", "dist.poll"),
                                  ("dist.fetch_ms", "dist.fetch"))}
    return values, samples, {name: s.calls(name) for name in s.durations}
