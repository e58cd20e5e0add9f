"""The three benchmark workloads, their inputs and their exact-output checks.

Each workload builds its inputs from the benchmark seed in ``__init__``
(set-up), runs its timed section in ``run`` and turns the result into
per-point output digests and exact counts in ``outputs``.  ``reference``
recomputes outputs by an independent path (another tier, a serial run, a
direct re-evaluation) in its own process, outside every timed section.

* ``fig5_default`` -- the replay tier's workload: fig5's default-scale
  4 kernels x 6 TLB sizes grid, as ``repro run fig5 --scale default
  --no-cache`` runs it (``tier="auto"``, serial runner, empty program cache).
* ``fig14_dse`` -- the event engine, scheduler and telemetry: every
  evaluation is an adaptive, half-resident multi-process run on the event
  tier, driven by successive halving under a fixed budget.
* ``fleet_http`` -- the only workload that touches ``dist`` and ``store``:
  tiny points through ``DistributedRunner`` -> ``HTTPBroker`` -> an
  in-process ``BrokerServer``, drained by the calling process, then
  submitted again from a fresh runner and memo handle so the second pass
  resolves from the memo and results stores.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List

FIG5_KERNELS = ("vecadd", "matmul", "linked_list", "random_access")
FIG5_TLB_SIZES = (4, 8, 16, 32, 64, 128)
FLEET_KERNELS = ("vecadd", "saxpy", "matmul", "linked_list", "histogram",
                 "spmv")
FLEET_TLB_SIZES = {"full": range(4, 28), "small": range(4, 8)}


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def outcome_digest(outcome: Any) -> str:
    """Digest of a RunOutcome's record, minus the tier that produced it."""
    record = outcome.to_record()
    record.pop("tier")
    return digest(record)


def outcome_counts(outcomes: List[Any]) -> Dict[str, int]:
    """Exact counts of a list of executed points, named like the layer
    metrics the traced run derives from its ``eval.point`` spans."""
    def total(read) -> int:
        return int(sum(read(o) for o in outcomes))

    def extra(name: str):
        return lambda o: (o.breakdown or {}).get(name, 0)

    return {"eval.sim_cycles": total(lambda o: o.total_cycles),
            "eval.points_replay": sum(o.tier == "replay" for o in outcomes),
            "eval.points_event": sum(o.tier == "event" for o in outcomes),
            "vm.tlb_misses": total(lambda o: o.tlb_misses),
            "vm.walks": total(extra("walks")),
            "os.faults": total(lambda o: o.faults),
            "os.context_switches": total(extra("context_switches")),
            "os.epochs": total(extra("epochs"))}


class Fig5Default:
    name = "fig5_default"
    #: Outputs are per point: a mismatch fails only that point.
    per_point = True
    #: Exact counts pinned per seed (full size only).
    pins = {7: {"fabric_cycles_sum": 12_450_671}}
    #: Imported during set-up (fastpath and NumPy would otherwise load
    #: lazily inside the first replayed point).
    modules = ("repro.fastpath", "repro.eval.harness", "repro.eval.sweep",
               "repro.exec.jobs", "repro.exec.runner", "repro.workloads.suite")

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        from repro.eval.harness import HarnessConfig
        from repro.eval.sweep import Grid
        from repro.exec.jobs import ExperimentJob
        from repro.workloads.suite import workload

        scale = "default" if size == "full" else "tiny"
        specs = {kernel: workload(kernel, scale=scale, seed=seed)
                 for kernel in FIG5_KERNELS}
        self.sweep = Grid(kernel=list(FIG5_KERNELS),
                          tlb_entries=list(FIG5_TLB_SIZES)).sweep(
            lambda kernel, tlb_entries: ExperimentJob(
                "svm", specs[kernel],
                HarnessConfig(tlb_entries=tlb_entries, tlb_replacement="lru"),
                tier="auto"),
            label="fig5_tlb_sweep")

    @staticmethod
    def nominal_points(size: str) -> int:
        return len(FIG5_KERNELS) * len(FIG5_TLB_SIZES)

    def run(self) -> Any:
        from repro.exec.runner import SweepRunner
        return self.sweep.run(SweepRunner(jobs=1, cache=None))

    def outputs(self, outcomes: Any) -> Dict[str, Any]:
        items = list(outcomes.items())
        counts = outcome_counts([o for _, o in items])
        counts["fabric_cycles_sum"] = sum(o.fabric_cycles for _, o in items)
        return {"points": len(items),
                "outputs": {f"{c['kernel']}/{c['tlb_entries']}":
                            outcome_digest(o) for c, o in items},
                "counts": counts, "extra": {}}

    def close(self) -> None:
        pass

    @staticmethod
    def reference(seed: int, size: str, workdir: str,
                  unit: Dict[str, Any]) -> Dict[str, str]:
        """One point per kernel on the event tier, TLB size chosen by seed."""
        from repro.eval.harness import HarnessConfig
        from repro.exec.jobs import ExperimentJob, run_job
        from repro.workloads.suite import workload

        scale = "default" if size == "full" else "tiny"
        out = {}
        for index, kernel in enumerate(FIG5_KERNELS):
            tlb = FIG5_TLB_SIZES[(seed + index) % len(FIG5_TLB_SIZES)]
            job = ExperimentJob("svm", workload(kernel, scale=scale, seed=seed),
                                HarnessConfig(tlb_entries=tlb,
                                              tlb_replacement="lru"),
                                tier="event")
            out[f"{kernel}/{tlb}"] = outcome_digest(run_job(job))
        return out


class Fig14Dse:
    name = "fig14_dse"
    #: One exploration: a mismatch anywhere fails all its evaluations.
    per_point = False
    pins = {7: {"dse.evaluations": 24, "dse.front_points": 6,
                "front_cycles": [260356, 290548, 323436, 329229, 343785,
                                 370087]}}
    modules = ("repro.eval.experiments", "repro.exec.runner", "repro.dse")

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        from repro.eval.experiments import fig14_adaptive_dse
        self.explore = fig14_adaptive_dse
        self.seed = seed
        self.budget = self.nominal_points(size)

    @staticmethod
    def nominal_points(size: str) -> int:
        return 24 if size == "full" else 6

    def run(self) -> Any:
        from repro.exec.runner import SweepRunner
        return self.explore(scale="tiny", explorer="successive-halving",
                            budget=self.budget, seed=self.seed,
                            runner=SweepRunner(jobs=1, cache=None))

    def outputs(self, exploration: Dict[str, Any]) -> Dict[str, Any]:
        axes = exploration["objectives"]
        front = exploration["front"]
        outputs = {"exploration": digest(exploration)}
        for index, row in enumerate(front):
            outputs[f"front/{index}"] = digest(
                [row["params"], [row[axis] for axis in axes]])
        return {"points": exploration["evaluations"], "outputs": outputs,
                "counts": {"dse.evaluations": exploration["evaluations"],
                           "dse.front_points": len(front),
                           "front_cycles": [row["cycles"] for row in front]},
                "extra": {"front": [row["params"] for row in front],
                          "axes": axes}}

    def close(self) -> None:
        pass

    @staticmethod
    def reference(seed: int, size: str, workdir: str,
                  unit: Dict[str, Any]) -> Dict[str, str]:
        """Every front point re-evaluated directly at full fidelity."""
        from repro.eval.experiments import _fig14_point
        axes = unit["extra"]["axes"]
        out = {}
        for index, params in enumerate(unit["extra"]["front"]):
            value = _fig14_point(params, scale="tiny", fraction=1.0)
            out[f"front/{index}"] = digest([params,
                                            [value[axis] for axis in axes]])
        return out


class FleetHttp:
    name = "fleet_http"
    per_point = True
    pins: Dict[int, Dict[str, Any]] = {}
    modules = ("repro.fastpath", "repro.dist.broker", "repro.dist.http",
               "repro.dist.runner", "repro.exec.cache", "repro.exec.jobs",
               "repro.exec.keys", "repro.store.results", "repro.eval.harness",
               "repro.workloads.suite")

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        from repro.dist.broker import SQLiteBroker
        from repro.dist.http import BrokerServer
        from repro.exec.jobs import run_job
        from repro.exec.keys import stable_key
        from repro.store.results import ResultsStore

        self.items = self.jobs(seed, size)
        self.keys = [stable_key(run_job, item) for item in self.items]
        self.memo_dir = os.path.join(workdir, "memo")
        self.broker = SQLiteBroker(os.path.join(workdir, "broker.db"))
        self.server = BrokerServer(self.broker).start()
        self.store = ResultsStore(os.path.join(workdir, "results.db"),
                                  sha="perfbench")

    @staticmethod
    def jobs(seed: int, size: str) -> List[Any]:
        from repro.eval.harness import HarnessConfig
        from repro.exec.jobs import ExperimentJob
        from repro.workloads.suite import workload

        return [ExperimentJob("svm", workload(kernel, scale="tiny", seed=seed),
                              HarnessConfig(tlb_entries=tlb), tier="auto")
                for kernel in FLEET_KERNELS for tlb in FLEET_TLB_SIZES[size]]

    @staticmethod
    def nominal_points(size: str) -> int:
        return 2 * len(FLEET_KERNELS) * len(FLEET_TLB_SIZES[size])

    def _pass(self) -> Any:
        from repro.dist.http import HTTPBroker
        from repro.dist.runner import DistributedRunner
        from repro.exec.cache import MemoCache
        from repro.exec.jobs import run_job
        runner = DistributedRunner(HTTPBroker(self.server.url),
                                   cache=MemoCache(self.memo_dir),
                                   results=self.store)
        return runner.map(run_job, self.items, label="fleet_http"), runner

    def run(self) -> Any:
        first = self._pass()
        second = self._pass()
        stored = self.store.warm_values(self.keys)
        return first, second, stored

    def outputs(self, raw: Any) -> Dict[str, Any]:
        (first, r1), (second, r2), stored = raw
        outputs = {}
        for index, value in enumerate(first):
            outputs[f"p1/{index}"] = outcome_digest(value)
        for index, (key, value) in enumerate(zip(self.keys, second)):
            text = outcome_digest(value)
            if key not in stored or outcome_digest(stored[key]) != text:
                text = "store-mismatch:" + text
            outputs[f"p2/{index}"] = text
        counts = outcome_counts(first)
        counts.update({
            "dist.jobs_executed": (r1.stats.points_executed
                                   + r2.stats.points_executed),
            "dist.retries": r1.stats.retries + r2.stats.retries,
            "dist.failed_jobs": r1.stats.failed_jobs + r2.stats.failed_jobs,
            "exec.cache_hits": r1.stats.cache_hits + r2.stats.cache_hits})
        return {"points": len(first) + len(second), "outputs": outputs,
                "counts": counts, "extra": {}}

    def close(self) -> None:
        self.server.close()
        self.broker.close()
        self.store.close()

    @classmethod
    def reference(cls, seed: int, size: str, workdir: str,
                  unit: Dict[str, Any]) -> Dict[str, str]:
        """The same items through a serial ``run_job``."""
        from repro.exec.jobs import run_job
        out = {}
        for index, item in enumerate(cls.jobs(seed, size)):
            out[f"p1/{index}"] = out[f"p2/{index}"] = outcome_digest(
                run_job(item))
        return out


WORKLOADS = {cls.name: cls for cls in (Fig5Default, Fig14Dse, FleetHttp)}
