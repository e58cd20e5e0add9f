"""Experiment definitions: one function per table / figure of the evaluation.

Every function returns plain Python data (lists of row dictionaries or
(x, series) structures) so it can be consumed by the benchmark harness, the
examples, tests, and EXPERIMENTS.md generation alike.  The experiment ids
follow the index in DESIGN.md.

Every simulating experiment declares its grid through the sweep API
(:mod:`repro.eval.sweep`): named axes expand into labeled
:class:`~repro.eval.sweep.Point` values, the whole grid dispatches in one
batch (parallel workers and the memo cache see every point at once when a
:class:`repro.exec.SweepRunner` is passed), and results come back keyed by
coordinates — results are identical with and without a runner.

Experiments register themselves in :data:`EXPERIMENTS` via the
:func:`experiment` decorator, which records self-describing metadata (title,
accepted knobs, default parameters) that the CLI and docs are built on.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.dse import DesignSpaceExplorer, SweepAxes
from ..core.platform import Platform, PlatformConfig
from ..core.resources import ResourceModel
from ..core.spec import SystemSpec, ThreadSpec
from ..core.synthesis import SystemSynthesizer
from ..exec.jobs import ExperimentJob
from ..exec.runner import SweepRunner
from ..models import ALL_MODELS, CANONICAL_MODELS
from ..workloads.characterize import characterise
from ..workloads.specs import WorkloadSpec
from ..workloads.suite import pattern_classes, standard_suite, workload
from .harness import ComparisonResult, HarnessConfig, run_svm
from .sweep import Grid, Sweep


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """A registered experiment plus the metadata the CLI is built on."""

    name: str
    title: str
    func: Callable[..., object]
    description: str = ""
    #: Knob names the function accepts (e.g. ``scale``, ``runner``).
    knobs: Tuple[str, ...] = ()
    #: Default value per knob, for self-description (docs, ``list`` output).
    defaults: Mapping[str, object] = field(default_factory=dict)

    @property
    def scales(self) -> bool:
        return "scale" in self.knobs

    @property
    def sweepable(self) -> bool:
        return "runner" in self.knobs

    def run(self, scale: Optional[str] = None,
            runner: Optional[SweepRunner] = None, **overrides: object):
        """Invoke the experiment, passing only the knobs it declares."""
        kwargs = dict(overrides)
        unknown = set(kwargs) - set(self.knobs)
        if unknown:
            raise TypeError(f"experiment {self.name!r} does not accept "
                            f"{sorted(unknown)}; knobs: {list(self.knobs)}")
        if self.scales and scale is not None:
            kwargs["scale"] = scale
        if self.sweepable and runner is not None:
            kwargs["runner"] = runner
        return self.func(**kwargs)


#: Experiment registry used by the CLI, EXPERIMENTS.md generation and the
#: benchmarks.  Maps experiment id -> :class:`Experiment`.
EXPERIMENTS: Dict[str, Experiment] = {}


def experiment(name: str, title: str) -> Callable:
    """Decorator registering an experiment with self-describing metadata.

    The function's signature is inspected **once, at registration**, to
    record its knobs and defaults; callers (the CLI in particular) then rely
    purely on that metadata.
    """

    def decorate(func: Callable[..., object]) -> Callable[..., object]:
        if name in EXPERIMENTS:
            raise ValueError(f"experiment {name!r} is already registered")
        parameters = inspect.signature(func).parameters
        doc = (func.__doc__ or "").strip().splitlines()
        EXPERIMENTS[name] = Experiment(
            name=name, title=title, func=func,
            description=doc[0] if doc else "",
            knobs=tuple(parameters),
            defaults={p.name: p.default for p in parameters.values()
                      if p.default is not inspect.Parameter.empty})
        return func

    return decorate


# ---------------------------------------------------------------------------
# Table 1 — synthesized system configurations and resource estimates
# ---------------------------------------------------------------------------
@experiment("table1", "Table 1 — synthesized systems and resource estimates")
def table1_resources(scale: str = "tiny",
                     thread_counts: Sequence[int] = (1, 2, 4),
                     tlb_entries: Sequence[int] = (16, 32)) -> List[Dict[str, object]]:
    """Resource estimates of synthesized systems per kernel and configuration."""
    rows: List[Dict[str, object]] = []
    synthesizer = SystemSynthesizer()
    model = ResourceModel()
    for spec in standard_suite(scale):
        for num_threads in thread_counts:
            for entries in tlb_entries:
                threads = [ThreadSpec(name=f"hwt{i}", kernel=spec.kernel,
                                      tlb_entries=entries)
                           for i in range(num_threads)]
                system_spec = SystemSpec(name=f"{spec.kernel}-{num_threads}t-{entries}e",
                                         threads=threads)
                system = synthesizer.synthesize(system_spec)
                estimate = system.resource_estimate()
                utilisation = model.device.utilisation(estimate)
                rows.append({
                    "kernel": spec.kernel,
                    "threads": num_threads,
                    "tlb_entries": entries,
                    "luts": estimate.luts,
                    "ffs": estimate.ffs,
                    "bram_kb": round(estimate.bram_kb, 1),
                    "dsps": estimate.dsps,
                    "lut_util_pct": round(100 * utilisation["luts"], 1),
                    "fits": system.fits(),
                })
    return rows


# ---------------------------------------------------------------------------
# Table 2 — workload characterisation
# ---------------------------------------------------------------------------
@experiment("table2", "Table 2 — workload characterisation")
def table2_workloads(scale: str = "default",
                     page_size: int = 4096) -> List[Dict[str, object]]:
    """Footprint, traffic and locality of every workload in the suite."""
    platform = Platform(PlatformConfig(page_size=page_size))
    patterns = {k: cls for cls, kernels in pattern_classes().items() for k in kernels}
    rows = []
    for spec in standard_suite(scale):
        bound = spec.bind(platform.space)
        result = characterise(bound, page_size=page_size,
                              pattern=patterns.get(spec.kernel, "?"))
        rows.append(result.as_row())
    return rows


# ---------------------------------------------------------------------------
# Table 3 / Fig. 4 — end-to-end comparison and speedups
# ---------------------------------------------------------------------------
@experiment("table3", "Table 3 — end-to-end comparison and speedups")
def table3_speedups(scale: str = "default",
                    kernels: Optional[Sequence[str]] = None,
                    config: Optional[HarnessConfig] = None,
                    runner: Optional[SweepRunner] = None,
                    models: Sequence[str] = CANONICAL_MODELS
                    ) -> List[Dict[str, object]]:
    """Software vs copy-DMA vs SVM thread vs ideal, for every workload."""
    config = config or HarnessConfig(auto_size_tlb=True)
    models = tuple(dict.fromkeys(models))
    specs = [spec for spec in standard_suite(scale)
             if not kernels or spec.kernel in kernels]
    by_name = {spec.name: spec for spec in specs}

    grid = Grid(workload=[spec.name for spec in specs], model=list(models))
    sweep = grid.sweep(
        lambda workload, model: ExperimentJob(model, by_name[workload], config),
        label="table3")
    outcomes = sweep.run(runner)
    return [ComparisonResult(
                workload=spec.name,
                outcomes={m: outcomes.get(workload=spec.name, model=m)
                          for m in models}).as_row()
            for spec in specs]


@experiment("fig4", "Fig. 4 — speedup bars (SVM vs software and copy-DMA)")
def fig4_speedup_bars(scale: str = "default",
                      kernels: Optional[Sequence[str]] = None,
                      config: Optional[HarnessConfig] = None,
                      runner: Optional[SweepRunner] = None) -> Dict[str, List]:
    """Bar-chart series: speedup of the SVM thread over software and copy-DMA."""
    rows = table3_speedups(scale, kernels, config, runner=runner)
    return {
        "workloads": [r["workload"] for r in rows],
        "speedup_vs_software": [r["speedup_sw"] for r in rows],
        "speedup_vs_copydma": [r["speedup_dma"] for r in rows],
    }


# ---------------------------------------------------------------------------
# Fig. 5 — TLB size sweep
# ---------------------------------------------------------------------------
@experiment("fig5", "Fig. 5 — TLB hit rate and runtime vs TLB size")
def fig5_tlb_sweep(kernels: Sequence[str] = ("vecadd", "matmul", "linked_list",
                                             "random_access"),
                   tlb_sizes: Sequence[int] = (4, 8, 16, 32, 64, 128),
                   scale: str = "tiny",
                   replacement: str = "lru",
                   tier: str = "auto",
                   runner: Optional[SweepRunner] = None) -> Dict[str, Dict[str, List]]:
    """TLB hit rate and fabric runtime vs TLB entries, per kernel.

    ``tier`` selects the execution tier per point (``"auto"`` replays
    recorded op streams through the fastpath where eligible; the results are
    identical either way, only wall-clock differs).
    """
    specs = {kernel: workload(kernel, scale=scale) for kernel in kernels}
    grid = Grid(kernel=list(kernels), tlb_entries=list(tlb_sizes))
    sweep = grid.sweep(
        lambda kernel, tlb_entries: ExperimentJob(
            "svm", specs[kernel],
            HarnessConfig(tlb_entries=tlb_entries,
                          tlb_replacement=replacement),
            tier=tier),
        label="fig5_tlb_sweep")
    outcomes = sweep.run(runner)
    return {kernel: {"tlb_entries": list(tlb_sizes),
                     "hit_rate": outcomes.series("tlb_entries", "tlb_hit_rate",
                                                 kernel=kernel),
                     "fabric_cycles": outcomes.series("tlb_entries",
                                                      "fabric_cycles",
                                                      kernel=kernel)}
            for kernel in kernels}


@experiment("fig5_replacement", "Fig. 5b — TLB replacement-policy ablation")
def fig5_replacement_ablation(kernel: str = "random_access",
                              tlb_sizes: Sequence[int] = (8, 16, 32, 64),
                              scale: str = "tiny",
                              runner: Optional[SweepRunner] = None
                              ) -> Dict[str, List[float]]:
    """Ablation: TLB hit rate for LRU vs FIFO vs random replacement."""
    policies = ("lru", "fifo", "random")
    spec = workload(kernel, scale=scale)
    grid = Grid(policy=policies, tlb_entries=list(tlb_sizes))
    sweep = grid.sweep(
        lambda policy, tlb_entries: ExperimentJob(
            "svm", spec, HarnessConfig(tlb_entries=tlb_entries,
                                       tlb_replacement=policy)),
        label="fig5_replacement")
    outcomes = sweep.run(runner)
    out: Dict[str, List[float]] = {"tlb_entries": list(tlb_sizes)}
    for policy in policies:
        out[policy] = outcomes.series("tlb_entries", "tlb_hit_rate",
                                      policy=policy)
    return out


# ---------------------------------------------------------------------------
# Fig. 6 — virtual memory overhead vs page size
# ---------------------------------------------------------------------------
@experiment("fig6", "Fig. 6 — virtual memory overhead vs page size")
def fig6_vm_overhead(kernels: Sequence[str] = ("vecadd", "matmul", "linked_list"),
                     page_sizes: Sequence[int] = (4096, 16384, 65536),
                     scale: str = "tiny",
                     tlb_entries: int = 16,
                     runner: Optional[SweepRunner] = None
                     ) -> Dict[str, Dict[str, List]]:
    """SVM runtime normalised to the ideal accelerator, per page size."""
    specs = {kernel: workload(kernel, scale=scale) for kernel in kernels}
    grid = Grid(kernel=list(kernels), page_size=list(page_sizes),
                model=("svm", "ideal"))
    sweep = grid.sweep(
        lambda kernel, page_size, model: ExperimentJob(
            model, specs[kernel],
            HarnessConfig(platform=PlatformConfig(page_size=page_size),
                          tlb_entries=tlb_entries)),
        label="fig6_vm_overhead")
    outcomes = sweep.run(runner)

    out: Dict[str, Dict[str, List]] = {}
    for kernel in kernels:
        overheads: List[float] = []
        hit_rates: List[float] = []
        for page_size in page_sizes:
            svm = outcomes.get(kernel=kernel, page_size=page_size, model="svm")
            ideal = outcomes.get(kernel=kernel, page_size=page_size,
                                 model="ideal")
            overheads.append(svm.fabric_cycles / ideal.fabric_cycles
                             if ideal.fabric_cycles else 0.0)
            hit_rates.append(svm.tlb_hit_rate)
        out[kernel] = {"page_size": list(page_sizes),
                       "vm_overhead": overheads,
                       "hit_rate": hit_rates}
    return out


# ---------------------------------------------------------------------------
# Fig. 7 — multi-thread scaling
# ---------------------------------------------------------------------------
@experiment("fig7", "Fig. 7 — multi-thread throughput scaling")
def fig7_scaling(kernels: Sequence[str] = ("vecadd", "matmul", "histogram"),
                 thread_counts: Sequence[int] = (1, 2, 4, 8),
                 scale: str = "tiny",
                 shared_walker: bool = False,
                 runner: Optional[SweepRunner] = None) -> Dict[str, Dict[str, List]]:
    """Aggregate throughput (items per kilocycle) vs number of HW threads."""
    config = HarnessConfig(shared_walker=shared_walker)
    specs = {kernel: workload(kernel, scale=scale) for kernel in kernels}
    grid = Grid(kernel=list(kernels), threads=list(thread_counts))
    sweep = grid.sweep(
        lambda kernel, threads: ExperimentJob("svm", specs[kernel], config,
                                              num_threads=threads),
        label="fig7_scaling")
    outcomes = sweep.run(runner)

    out: Dict[str, Dict[str, List]] = {}
    for kernel in kernels:
        spec = specs[kernel]
        throughput: List[float] = []
        runtimes: List[int] = []
        for count in thread_counts:
            result = outcomes.get(kernel=kernel, threads=count)
            total_items = spec.work_items * count
            cycles = result.total_cycles or 1
            throughput.append(1000.0 * total_items / cycles)
            runtimes.append(result.total_cycles)
        out[kernel] = {"threads": list(thread_counts),
                       "items_per_kcycle": throughput,
                       "total_cycles": runtimes}
    return out


@experiment("fig7_walker", "Fig. 7b — shared vs private page-table walkers")
def fig7_walker_ablation(kernel: str = "random_access",
                         thread_counts: Sequence[int] = (1, 2, 4),
                         scale: str = "tiny",
                         runner: Optional[SweepRunner] = None) -> Dict[str, List]:
    """Ablation: shared vs private page-table walkers under thread scaling."""
    spec = workload(kernel, scale=scale)
    grid = Grid(shared=(False, True), threads=list(thread_counts))
    sweep = grid.sweep(
        lambda shared, threads: ExperimentJob(
            "svm", spec, HarnessConfig(shared_walker=shared),
            num_threads=threads),
        label="fig7_walker")
    outcomes = sweep.run(runner)
    out: Dict[str, List] = {"threads": list(thread_counts)}
    for shared in (False, True):
        out["shared_walker" if shared else "private_walker"] = (
            outcomes.series("threads", "total_cycles", shared=shared))
    return out


# ---------------------------------------------------------------------------
# Fig. 8 — demand paging / residency sweep
# ---------------------------------------------------------------------------
@experiment("fig8", "Fig. 8 — demand paging: runtime and faults vs residency")
def fig8_fault_sweep(kernels: Sequence[str] = ("linked_list", "vecadd"),
                     residencies: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
                     scale: str = "tiny",
                     runner: Optional[SweepRunner] = None
                     ) -> Dict[str, Dict[str, List]]:
    """Runtime and fault counts vs fraction of pages resident at start."""
    grid = Grid(kernel=list(kernels), residency=list(residencies))
    sweep = grid.sweep(
        lambda kernel, residency: ExperimentJob(
            "svm", workload(kernel, scale=scale, residency=residency),
            HarnessConfig()),
        label="fig8_faults")
    outcomes = sweep.run(runner)
    return {kernel: {"residency": list(residencies),
                     "total_cycles": outcomes.series("residency",
                                                     "total_cycles",
                                                     kernel=kernel),
                     "faults": outcomes.series("residency", "faults",
                                               kernel=kernel)}
            for kernel in kernels}


@experiment("fig8_pinning", "Fig. 8b — demand paging vs up-front pinning")
def fig8_pinning_ablation(kernel: str = "vecadd", scale: str = "tiny",
                          residency: float = 0.25,
                          runner: Optional[SweepRunner] = None) -> Dict[str, int]:
    """Ablation: demand paging vs pinning everything up front."""
    spec = workload(kernel, scale=scale, residency=residency)
    sweep = Sweep(label="fig8_pinning")
    sweep.add(ExperimentJob("svm", spec, HarnessConfig(pin_all=False)),
              mode="demand")
    sweep.add(ExperimentJob("svm", spec, HarnessConfig(pin_all=True)),
              mode="pinned")
    sweep.add(ExperimentJob("svm", workload(kernel, scale=scale, residency=1.0),
                            HarnessConfig()),
              mode="resident")
    outcomes = sweep.run(runner)
    demand = outcomes.get(mode="demand")
    pinned = outcomes.get(mode="pinned")
    resident = outcomes.get(mode="resident")
    return {
        "demand_paging_cycles": demand.total_cycles,
        "demand_paging_faults": demand.faults,
        "pinned_cycles": pinned.total_cycles,
        "pinned_faults": pinned.faults,
        "fully_resident_cycles": resident.total_cycles,
    }


# ---------------------------------------------------------------------------
# Fig. 9 — crossover vs the copy-based accelerator
# ---------------------------------------------------------------------------
@experiment("fig9", "Fig. 9 — SVM vs copy-DMA crossover across problem sizes")
def fig9_crossover(kernel: str = "saxpy",
                   sizes: Sequence[int] = (1024, 4096, 16384, 65536, 262144),
                   scale: str = "tiny",
                   runner: Optional[SweepRunner] = None) -> Dict[str, List]:
    """Total time of SVM thread vs copy-DMA accelerator across problem sizes."""
    config = HarnessConfig(auto_size_tlb=True)
    specs = {n: workload(kernel, scale=scale, n=n) for n in sizes}
    grid = Grid(size=list(sizes), model=("svm", "copydma"))
    sweep = grid.sweep(
        lambda size, model: ExperimentJob(model, specs[size], config),
        label="fig9_crossover")
    outcomes = sweep.run(runner)
    return {"sizes": list(sizes),
            "svm_total_cycles": outcomes.series("size", "total_cycles",
                                                model="svm"),
            "copydma_total_cycles": outcomes.series("size", "total_cycles",
                                                    model="copydma"),
            "copydma_marshalling_cycles": outcomes.series(
                "size", "marshalling_cycles", model="copydma")}


@experiment("fig9_sparse", "Fig. 9b — crossover under sparse access")
def fig9_sparse_crossover(table_bytes: Sequence[int] = (262144, 1048576, 4194304),
                          accesses: int = 4096,
                          runner: Optional[SweepRunner] = None) -> Dict[str, List]:
    """Crossover when only a sparse subset of a large table is touched."""
    config = HarnessConfig(auto_size_tlb=True)
    specs = {size: workload("random_access", scale="tiny",
                            table_bytes=size, accesses=accesses)
             for size in table_bytes}
    grid = Grid(table=list(table_bytes), model=("svm", "copydma"))
    sweep = grid.sweep(
        lambda table, model: ExperimentJob(model, specs[table], config),
        label="fig9_sparse")
    outcomes = sweep.run(runner)
    return {"table_bytes": list(table_bytes),
            "svm_total_cycles": outcomes.series("table", "total_cycles",
                                                model="svm"),
            "copydma_total_cycles": outcomes.series("table", "total_cycles",
                                                    model="copydma")}


# ---------------------------------------------------------------------------
# Fig. 11 — execution-model ablation (beyond the paper: the variant family)
# ---------------------------------------------------------------------------
@experiment("fig11", "Fig. 11 — execution-model ablation across the suite")
def fig11_model_ablation(scale: str = "tiny",
                         kernels: Sequence[str] = ("vecadd", "matmul",
                                                   "linked_list",
                                                   "random_access"),
                         models: Sequence[str] = ALL_MODELS,
                         config: Optional[HarnessConfig] = None,
                         tier: str = "auto",
                         runner: Optional[SweepRunner] = None
                         ) -> List[Dict[str, object]]:
    """Every registered execution model on every workload, one row per workload.

    The first experiment to sweep the full seven-model registry: the paper's
    four plus the SVM variant family (prefetching, shared-TLB, hugepage).
    Each row carries one total-cycles column per model plus the translation
    metrics the variants exist to move: demand TLB misses (prefetching should
    shrink them) and walker level fetches (hugepages should shrink them).
    """
    config = config or HarnessConfig(tlb_entries=16)
    models = tuple(dict.fromkeys(models))
    specs = [spec for spec in standard_suite(scale)
             if not kernels or spec.kernel in kernels]
    by_name = {spec.name: spec for spec in specs}

    grid = Grid(workload=[spec.name for spec in specs], model=list(models))
    sweep = grid.sweep(
        lambda workload, model: ExperimentJob(model, by_name[workload], config,
                                              tier=tier),
        label="fig11_model_ablation")
    outcomes = sweep.run(runner)

    rows: List[Dict[str, object]] = []
    for spec in specs:
        row: Dict[str, object] = {"workload": spec.name}
        for model in models:
            outcome = outcomes.get(workload=spec.name, model=model)
            row[model] = outcome.total_cycles
        for model in models:
            outcome = outcomes.get(workload=spec.name, model=model)
            if outcome.tlb_misses or model.startswith("svm"):
                row[f"tlb_misses[{model}]"] = outcome.tlb_misses
            if outcome.breakdown and "walker_levels" in outcome.breakdown:
                row[f"walker_levels[{model}]"] = outcome.breakdown["walker_levels"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 12 — N-process contention (beyond the paper: OS pressure at scale)
# ---------------------------------------------------------------------------
@experiment("fig12", "Fig. 12 — N-process contention: schedulers × host-shared TLB")
def fig12_contention(scale: str = "tiny",
                     kernel: str = "vecadd",
                     process_counts: Sequence[int] = (1, 2, 4, 8),
                     policies: Sequence[str] = ("round-robin",
                                                "weighted-fair"),
                     host_shared: Sequence[bool] = (False, True),
                     quantum: int = 2_000,
                     models: Sequence[str] = ("svm", "svm-shared-tlb"),
                     config: Optional[HarnessConfig] = None,
                     runner: Optional[SweepRunner] = None
                     ) -> List[Dict[str, object]]:
    """N contending processes × scheduling policy × host-shared fabric TLB.

    Each point time-slices N copies of ``kernel`` (distinct address spaces
    with *identical* virtual layouts — the adversarial ASID case) onto one
    accelerator under the given scheduling policy, with demand weights
    1..N so weight-sensitive policies actually reorder the plan.  The
    ``svm`` model flushes the fabric TLB at every context switch (no
    cross-process survival); ``svm-shared-tlb`` keeps the ASID-tagged
    entries resident across slices.  With ``host_shared_tlb`` the host CPU's
    pinning and fault-service page touches probe and refill the same TLB.
    One row per (process count, policy, host sharing); per-model
    total-cycle, demand-miss and context-switch columns.
    """
    from ..workloads.multiprocess import contention

    config = config or HarnessConfig(tlb_entries=64, pin_all=True)
    models = tuple(dict.fromkeys(models))
    for model in models:
        if not model.startswith("svm"):
            raise ValueError(
                f"fig12 sweeps SVM-family models only (got {model!r}): "
                "translation-free models have no multi-process TLB story")

    specs = {(count, policy): contention(
                 [kernel] * count, scale=scale, quantum=quantum,
                 policy=policy, weights=tuple(float(i + 1) for i in range(count)))
             for count in process_counts for policy in policies}

    grid = Grid(procs=list(process_counts), policy=list(policies),
                host=list(host_shared), model=list(models))
    sweep = grid.sweep(
        lambda procs, policy, host, model: ExperimentJob(
            model, specs[(procs, policy)],
            replace(config, host_shares_tlb=host)),
        label="fig12_contention")
    outcomes = sweep.run(runner)

    rows: List[Dict[str, object]] = []
    for count in process_counts:
        for policy in policies:
            for host in host_shared:
                row: Dict[str, object] = {"processes": count,
                                          "policy": policy,
                                          "host_shared_tlb": host}
                for model in models:
                    outcome = outcomes.get(procs=count, policy=policy,
                                           host=host, model=model)
                    row[model] = outcome.total_cycles
                    row[f"tlb_misses[{model}]"] = outcome.tlb_misses
                    if outcome.breakdown:
                        row[f"context_switches[{model}]"] = (
                            outcome.breakdown.get("context_switches", 0))
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — online feedback-driven scheduling (beyond the paper)
# ---------------------------------------------------------------------------
@experiment("fig13", "Fig. 13 — online adaptive scheduling vs static policies")
def fig13_adaptive_scheduling(scale: str = "tiny",
                              kernel: str = "vecadd",
                              thrasher: str = "random_access",
                              process_counts: Sequence[int] = (2, 4),
                              policies: Sequence[str] = ("round-robin",
                                                         "fault-aware",
                                                         "adaptive-fault",
                                                         "miss-fair",
                                                         "host-aware"),
                              models: Sequence[str] = ("svm",
                                                       "svm-shared-tlb"),
                              quantum: int = 2_000,
                              residency: float = 0.5,
                              config: Optional[HarnessConfig] = None,
                              runner: Optional[SweepRunner] = None
                              ) -> List[Dict[str, object]]:
    """Static vs telemetry-driven scheduling under a one-thrasher mix.

    Each point time-slices one ``thrasher`` process (a TLB-hostile sparse
    sweeper) against N-1 well-behaved ``kernel`` processes, at partial
    residency so demand paging (and, with the host sharing the fabric TLB,
    host refill traffic) happens *during* the run — the signals the adaptive
    policies feed on.  Static policies plan once from estimates; adaptive
    ones (``adaptive-fault``, ``miss-fair``, ``host-aware``) replan every
    epoch from the measured TelemetryBus counters.  One row per
    (process count, policy) with per-model total-cycle / demand-miss /
    fault / epoch-count columns; ``epochs`` is 0 for static policies (no
    epoch-wise execution) and the number of feedback rounds for adaptive
    ones.
    """
    from ..os.scheduler import get_policy
    from ..workloads.multiprocess import contention

    config = config or HarnessConfig(tlb_entries=32, host_shares_tlb=True)
    models = tuple(dict.fromkeys(models))
    for model in models:
        if not model.startswith("svm"):
            raise ValueError(
                f"fig13 sweeps SVM-family models only (got {model!r}): "
                "translation-free models have no scheduling-feedback story")

    specs = {(count, policy): contention(
                 [thrasher] + [kernel] * (count - 1), scale=scale,
                 quantum=quantum, policy=policy, residency=residency)
             for count in process_counts for policy in policies}

    grid = Grid(procs=list(process_counts), policy=list(policies),
                model=list(models))
    sweep = grid.sweep(
        lambda procs, policy, model: ExperimentJob(
            model, specs[(procs, policy)], config),
        label="fig13_adaptive")
    outcomes = sweep.run(runner)

    rows: List[Dict[str, object]] = []
    for count in process_counts:
        for policy in policies:
            row: Dict[str, object] = {"processes": count, "policy": policy,
                                      "adaptive": get_policy(policy).adaptive}
            for model in models:
                outcome = outcomes.get(procs=count, policy=policy,
                                       model=model)
                row[model] = outcome.total_cycles
                row[f"tlb_misses[{model}]"] = outcome.tlb_misses
                row[f"faults[{model}]"] = outcome.faults
                row[f"epochs[{model}]"] = (
                    (outcome.breakdown or {}).get("epochs", 0))
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 10 — design-space exploration
# ---------------------------------------------------------------------------
def _dse_point(candidate: SystemSpec, workload_spec: WorkloadSpec):
    """Synthesize + simulate one DSE candidate (module-level: picklable).

    Single-process: a scheduling policy has nothing to schedule here, so
    this evaluator ignores ``candidate.scheduling_policy`` — sweep
    :attr:`SweepAxes.policy` through :func:`_policy_dse_point` (fig13b)
    instead, where candidates time-slice a contention workload.
    """
    thread = candidate.threads[0]
    config = HarnessConfig(tlb_entries=thread.tlb_entries,
                           max_burst_bytes=thread.max_burst_bytes,
                           max_outstanding=thread.max_outstanding,
                           shared_walker=candidate.shared_walker,
                           tlb_prefetch=thread.tlb_prefetch)
    result = run_svm(workload_spec, config, tier="auto")
    system = SystemSynthesizer().synthesize(candidate)
    return result.total_cycles, system.resource_estimate()


def _policy_dse_point(candidate: SystemSpec, mp):
    """Evaluate one DSE candidate against a contention workload.

    The policy-aware counterpart of :func:`_dse_point` (module-level:
    picklable): the candidate's TLB/burst/prefetch knobs dimension the
    hardware and ``candidate.scheduling_policy`` — the
    :attr:`~repro.core.dse.SweepAxes.policy` axis — selects how the OS
    time-slices the processes onto it, so hardware and policy trade off on
    one grid.
    """
    from .harness import run_multiprocess

    thread = candidate.threads[0]
    config = HarnessConfig(tlb_entries=thread.tlb_entries,
                           max_burst_bytes=thread.max_burst_bytes,
                           max_outstanding=thread.max_outstanding,
                           shared_walker=candidate.shared_walker,
                           tlb_prefetch=thread.tlb_prefetch)
    spec = mp if candidate.scheduling_policy is None else replace(
        mp, policy=candidate.scheduling_policy)
    result = run_multiprocess(spec, config, flush_on_switch=False,
                              tier="auto")
    system = SystemSynthesizer().synthesize(candidate)
    return result.total_cycles, system.resource_estimate()


@experiment("fig13_policy_dse",
            "Fig. 13b — scheduling policy as a design-space axis")
def fig13_policy_dse(kernel: str = "random_access",
                     neighbour: str = "vecadd",
                     scale: str = "tiny",
                     quantum: int = 2_000,
                     residency: float = 0.5,
                     axes: Optional[SweepAxes] = None,
                     runner: Optional[SweepRunner] = None) -> Dict[str, object]:
    """Runtime/area design points over TLB size × scheduling policy.

    The proof that :attr:`SweepAxes.policy` is a real axis: each candidate
    runs a two-process contention mix (one thrasher, one streamer) under its
    own scheduling policy — static and adaptive alike — so the Pareto front
    can trade translation hardware against scheduling smarts (a bigger TLB
    tolerates longer thrasher quanta; a better policy earns back a smaller
    TLB).
    """
    from ..workloads.multiprocess import contention

    axes = axes or SweepAxes(tlb_entries=(16, 64),
                             max_burst_bytes=(256,),
                             max_outstanding=(4,),
                             shared_walker=(False,),
                             policy=("round-robin", "fault-aware",
                                     "adaptive-fault", "miss-fair"))
    mp = contention([kernel, neighbour], scale=scale, quantum=quantum,
                    residency=residency)
    base_spec = SystemSpec(name=f"policy-dse-{kernel}",
                           threads=[ThreadSpec(name="hwt0", kernel=kernel)])
    evaluate = functools.partial(_policy_dse_point, mp=mp)
    explorer = DesignSpaceExplorer(evaluate)
    points, front = explorer.explore_pareto(base_spec, axes, runner=runner)
    return {
        "points": [{"params": p.params, "runtime_cycles": p.runtime_cycles,
                    "luts": p.luts} for p in points],
        "pareto": [{"params": p.params, "runtime_cycles": p.runtime_cycles,
                    "luts": p.luts} for p in front],
    }


@experiment("fig10", "Fig. 10 — design-space exploration and Pareto front")
def fig10_dse(kernel: str = "matmul", scale: str = "tiny",
              axes: Optional[SweepAxes] = None,
              runner: Optional[SweepRunner] = None) -> Dict[str, object]:
    """Runtime/area design points and the Pareto front for one kernel."""
    axes = axes or SweepAxes(tlb_entries=(8, 16, 32, 64),
                             max_burst_bytes=(128, 256),
                             max_outstanding=(2, 4),
                             shared_walker=(False,))
    base_spec = SystemSpec(name=f"dse-{kernel}",
                           threads=[ThreadSpec(name="hwt0", kernel=kernel)])
    workload_spec = workload(kernel, scale=scale)

    evaluate = functools.partial(_dse_point, workload_spec=workload_spec)
    explorer = DesignSpaceExplorer(evaluate)
    points, front = explorer.explore_pareto(base_spec, axes, runner=runner)
    return {
        "points": [{"params": p.params, "runtime_cycles": p.runtime_cycles,
                    "luts": p.luts, "bram_kb": p.bram_kb} for p in points],
        "pareto": [{"params": p.params, "runtime_cycles": p.runtime_cycles,
                    "luts": p.luts, "bram_kb": p.bram_kb} for p in front],
    }


# ---------------------------------------------------------------------------
# Fig. 14 — adaptive telemetry-driven design-space exploration
# ---------------------------------------------------------------------------
#: The fig14 search space: translation hardware × prefetch depth × adaptive
#: scheduling policy × process count × quantum — 103,680 candidates, two
#: orders of magnitude beyond the exhaustive fig10/fig13 grids.  Every
#: policy on the axis is adaptive, so each run carries scheduling telemetry
#: and the telemetry-derived objectives are always defined.
FIG14_AXES: Dict[str, Tuple[object, ...]] = {
    "tlb_entries": (4, 8, 16, 32, 64, 128),
    "tlb_associativity": (1, 2, 4),
    "max_outstanding": (2, 4, 8),
    "max_burst_bytes": (64, 128, 256, 512),
    "shared_walker": (False, True),
    "tlb_prefetch": (0, 1, 2, 3, 4),
    "policy": ("adaptive-fault", "miss-fair", "host-aware"),
    "processes": (2, 3, 4, 6),
    "quantum": (5_000, 10_000, 20_000, 40_000),
}

#: Default Pareto axes: runtime and area joined by the three telemetry
#: objectives (fairness is maximized; the rest are minimized).
FIG14_OBJECTIVES: Tuple[str, ...] = ("cycles", "luts", "miss_stall_cycles",
                                     "host_refill_rate", "fairness")


def _fig14_point(candidate: Mapping[str, object], scale: str = "tiny",
                 fraction: float = 1.0) -> Dict[str, object]:
    """Evaluate one fig14 candidate (module-level: picklable).

    The candidate is a knob assignment over :data:`FIG14_AXES`.  It runs a
    contention mix — one ``random_access`` thrasher plus streaming
    ``vecadd`` neighbours at half residency, the fig13 recipe generalized
    to N processes — under the candidate's scheduling policy and hardware,
    with the host CPU sharing the fabric TLB.  ``fraction`` shrinks the
    workload sizes: it is the successive-halving fidelity ladder, with
    ``fraction=1.0`` the trusted full-scale evaluation.
    """
    from ..os.telemetry import epoch_fairness
    from ..workloads.multiprocess import MultiProcessSpec
    from .harness import run_multiprocess

    knobs = dict(candidate)
    count = int(knobs["processes"])

    def sized(kernel: str, size_key: str, seed: int) -> WorkloadSpec:
        base = workload(kernel, scale=scale).params[size_key]
        return workload(kernel, scale=scale, residency=0.5, seed=seed,
                        **{size_key: max(64, int(base * fraction))})

    specs = [sized("random_access", "accesses", seed=7)]
    specs += [sized("vecadd", "n", seed=11 + i) for i in range(count - 1)]
    mp = MultiProcessSpec(name=f"fig14-{count}p",
                          specs=tuple(specs),
                          quantum=int(knobs["quantum"]),
                          policy=str(knobs["policy"]))
    config = HarnessConfig(tlb_entries=int(knobs["tlb_entries"]),
                           tlb_associativity=int(knobs["tlb_associativity"]),
                           max_outstanding=int(knobs["max_outstanding"]),
                           max_burst_bytes=int(knobs["max_burst_bytes"]),
                           shared_walker=bool(knobs["shared_walker"]),
                           tlb_prefetch=int(knobs["tlb_prefetch"]),
                           host_shares_tlb=True)
    result = run_multiprocess(mp, config, flush_on_switch=False, tier="auto")

    thread = ThreadSpec(name="hwt0", kernel="random_access",
                        tlb_entries=int(knobs["tlb_entries"]),
                        tlb_associativity=int(knobs["tlb_associativity"]),
                        max_outstanding=int(knobs["max_outstanding"]),
                        max_burst_bytes=int(knobs["max_burst_bytes"]),
                        tlb_prefetch=int(knobs["tlb_prefetch"]))
    spec = SystemSpec(name="fig14", threads=[thread],
                      shared_walker=bool(knobs["shared_walker"]))
    resources = SystemSynthesizer().synthesize(spec).resource_estimate()

    telemetry = result.telemetry
    refills = telemetry.totals()["host_tlb_refills"] if telemetry else 0
    return {
        "cycles": result.total_cycles,
        "luts": resources.luts,
        "bram_kb": resources.bram_kb,
        "miss_stall_cycles": result.miss_stall_cycles,
        "host_refill_rate": (1000.0 * refills / result.total_cycles
                             if result.total_cycles else 0.0),
        "fairness": epoch_fairness(telemetry) if telemetry else 1.0,
        "epochs": telemetry.num_epochs if telemetry else 0,
        "tlb_misses": result.tlb_misses,
        "faults": result.faults,
        # Not an objective: lets the runner count points by tier.
        "tier": result.tier,
    }


#: The fig14 fidelity ladder: workload-size fractions, cheapest first.
FIG14_LADDER: Tuple[Tuple[str, float], ...] = (("quarter", 0.25),
                                               ("half", 0.5), ("full", 1.0))


@experiment("fig14", "Fig. 14 — adaptive telemetry-driven DSE at scale")
def fig14_adaptive_dse(scale: str = "tiny",
                       explorer: str = "successive-halving",
                       budget: Optional[int] = 256,
                       seed: int = 0,
                       axes: Optional[Mapping[str, Sequence[object]]] = None,
                       objectives: Sequence[str] = FIG14_OBJECTIVES,
                       results: Optional[object] = None,
                       runner: Optional[SweepRunner] = None
                       ) -> Dict[str, object]:
    """Explore the ~10⁵-point fig14 space under a hard evaluation budget.

    The default successive-halving backend promotes non-dominated-plus-
    margin survivors up the :data:`FIG14_LADDER` workload-size rungs, so
    the whole exploration costs on the order of the exhaustive ~10³-point
    fig10/fig13 grids while searching a space two orders of magnitude
    larger.  Rows already in the results store (``--results-db`` /
    ``REPRO_RESULTS_DB``, current package version only) are adopted as
    warm starts before any budget is spent.
    """
    from ..dse import DesignSpace, DseObjectives, FidelityRung, get_explorer

    axes_map = dict(axes) if axes is not None else dict(FIG14_AXES)
    ladder = tuple(
        FidelityRung(name, functools.partial(_fig14_point, scale=scale,
                                             fraction=fraction))
        for name, fraction in FIG14_LADDER)
    space = DesignSpace.from_axes(axes_map, ladder)
    if results is None and runner is not None:
        results = runner.results
    exploration = get_explorer(explorer).explore(
        space, objectives=DseObjectives(tuple(objectives)), runner=runner,
        budget=budget, results=results, seed=seed)
    return exploration.as_dict()
