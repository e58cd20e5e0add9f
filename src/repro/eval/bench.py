"""Benchmark suite + regression gate (``repro bench``).

A small, serial, deterministic slice of the benchmark surface: each entry
runs one experiment at tiny scale and reports

* ``wall_seconds`` — how long producing it took on this machine, and
* ``metrics`` — cycle counts extracted from the result.  These are exact
  simulator outputs: any drift at all is a code change.

``repro bench`` writes the records to ``BENCH_<sha>.json`` (the CI bench job
uploads it as an artifact) and, given ``--baseline benchmarks/baseline.json``,
runs one gate (:func:`compare`): it fails when any cycle metric differs from
the baseline, when an entry or metric is missing on either side, or when a
wall time exceeds its committed budget by more than 20% — the same check,
locally and in CI.  ``--write-baseline`` refreshes the committed baseline; CI
wall baselines should be refreshed from a downloaded CI artifact, not a
laptop (see README, "Benchmark CI").
"""

from __future__ import annotations

import json
import platform as platform_mod
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..store.results import git_sha
from .harness import HarnessConfig

#: Relative growth of a measured wall time over its committed budget
#: tolerated before the gate fails.
WALL_TOLERANCE = 0.20

#: Baseline wall entries are *budgets*, not machine-exact timings: measured
#: wall seconds are padded by this factor (with a floor) when a baseline is
#: written, so routine cross-machine variance cannot trip the gate while
#: order-of-magnitude slowdowns still do.  Cycle metrics stay exact.
WALL_BUDGET_FACTOR = 5.0
WALL_BUDGET_MIN_SECONDS = 2.0

#: Stands in for an entry or metric one side of a comparison lacks.
_MISSING = "—"


# ---------------------------------------------------------------------------
# Suite definition
# ---------------------------------------------------------------------------
def _bench_table3(scale: str = "tiny") -> Dict[str, int]:
    from .experiments import table3_speedups
    rows = table3_speedups(scale=scale,
                           kernels=("vecadd", "matmul", "linked_list"))
    return {"svm_cycles": sum(r["svm_thread"] for r in rows),
            "software_cycles": sum(r["software"] for r in rows),
            "copydma_cycles": sum(r["copy_dma"] for r in rows)}


def _bench_fig5(scale: str, tier: str) -> Dict[str, int]:
    from ..fastpath.record import clear_program_cache
    from .experiments import fig5_tlb_sweep
    # One sweep, run once per tier (``fig5_tlb_sweep`` on the event tier,
    # ``fig5_replay`` on the replay tier): the two entries' wall clocks
    # measure the two-tier speedup and their metrics must be identical.  The
    # program cache is cleared first so the replay entry times a cold record
    # plus the replays (streams are shared across TLB sizes within the
    # sweep); the event tier records nothing.
    clear_program_cache()
    series = fig5_tlb_sweep(kernels=("vecadd", "random_access"),
                            tlb_sizes=(8, 32), scale=scale, tier=tier)
    return {"fabric_cycles": sum(sum(s["fabric_cycles"])
                                 for s in series.values())}


def _bench_fig7(scale: str = "tiny") -> Dict[str, int]:
    from .experiments import fig7_scaling
    series = fig7_scaling(kernels=("vecadd",), thread_counts=(1, 2),
                          scale=scale)
    return {"total_cycles": sum(sum(s["total_cycles"])
                                for s in series.values())}


def _bench_fig11(scale: str, tier: str) -> Dict[str, int]:
    from ..fastpath.record import clear_program_cache
    from ..models import ALL_MODELS
    from .experiments import fig11_model_ablation
    # One ablation per tier, as in ``_bench_fig5``.  The single-tier models
    # (ideal/copydma/software) run the event simulator under either tier;
    # only the SVM family replays recorded streams.
    clear_program_cache()
    rows = fig11_model_ablation(scale=scale, kernels=("vecadd",), tier=tier)
    return {f"{model}_cycles".replace("-", "_"): rows[0][model]
            for model in ALL_MODELS}


def _bench_multiprocess(scale: str = "tiny") -> Dict[str, int]:
    from ..workloads import duet
    from .harness import run_multiprocess
    result = run_multiprocess(duet("vecadd", "linked_list", scale=scale,
                                   quantum=5000),
                              HarnessConfig(tlb_entries=16))
    return {"total_cycles": result.total_cycles,
            "tlb_misses": result.tlb_misses,
            "context_switches": result.context_switches}


def _bench_fig12(scale: str = "tiny") -> Dict[str, int]:
    from .experiments import fig12_contention
    rows = fig12_contention(scale=scale, process_counts=(4,),
                            policies=("round-robin", "weighted-fair"),
                            host_shared=(False, True),
                            models=("svm", "svm-shared-tlb"))
    return {
        "svm_cycles": sum(r["svm"] for r in rows),
        "svm_shared_tlb_cycles": sum(r["svm-shared-tlb"] for r in rows),
        "tlb_misses": sum(r["tlb_misses[svm]"]
                          + r["tlb_misses[svm-shared-tlb]"] for r in rows),
        "context_switches": sum(r["context_switches[svm]"] for r in rows),
    }


def _bench_fig13(scale: str = "tiny") -> Dict[str, int]:
    from .experiments import fig13_adaptive_scheduling
    rows = fig13_adaptive_scheduling(scale=scale, process_counts=(4,),
                                     policies=("round-robin",
                                               "adaptive-fault",
                                               "miss-fair", "host-aware"),
                                     models=("svm-shared-tlb",))
    return {
        "shared_tlb_cycles": sum(r["svm-shared-tlb"] for r in rows),
        "tlb_misses": sum(r["tlb_misses[svm-shared-tlb]"] for r in rows),
        "adaptive_epochs": sum(r["epochs[svm-shared-tlb]"] for r in rows),
    }


def _bench_fig14(scale: str = "tiny") -> Dict[str, int]:
    # A budgeted sample of the full 10^5-point fig14 space: the seeded
    # sampler makes the cohort — and therefore every metric — exactly
    # reproducible, so the gate pins the recovered front.
    from .experiments import fig14_adaptive_dse
    out = fig14_adaptive_dse(scale=scale, budget=24, seed=0)
    return {
        "evaluations": out["evaluations"],
        "front_points": len(out["front"]),
        "front_cycles": sum(p["cycles"] for p in out["front"]),
        "front_miss_stall": sum(p["miss_stall_cycles"] for p in out["front"]),
    }


#: name -> metric producer (each takes the workload scale).  Serial and tiny
#: on purpose for the per-push gate: cheap enough to run on every commit.
#: The scheduled default-scale job reruns the contention entries with
#: ``scale="default"`` (no baseline gate — artifacts only).
BENCH_SUITE: Dict[str, Callable[[str], Dict[str, int]]] = {
    "table3_tiny": _bench_table3,
    "fig5_tlb_sweep": partial(_bench_fig5, tier="event"),
    "fig5_replay": partial(_bench_fig5, tier="replay"),
    "fig7_scaling": _bench_fig7,
    "fig11_models": partial(_bench_fig11, tier="event"),
    "fig11_replay": partial(_bench_fig11, tier="replay"),
    "multiprocess_shared_tlb": _bench_multiprocess,
    "fig12_contention": _bench_fig12,
    "fig13_adaptive": _bench_fig13,
    "fig14_dse": _bench_fig14,
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------
@dataclass
class BenchReport:
    """One ``repro bench`` invocation's records plus provenance."""

    sha: str
    records: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"sha": self.sha,
                "python": platform_mod.python_version(),
                "machine": platform_mod.machine(),
                "records": self.records}


def run_suite(progress: Optional[Callable[[str], None]] = None,
              scale: str = "tiny",
              only: Optional[List[str]] = None) -> BenchReport:
    """Run suite entries serially; returns the report.

    ``only`` restricts the run to the named entries (unknown names raise);
    ``scale`` selects the workload size class — the committed baseline is
    tiny-scale, so gate comparisons only make sense at ``tiny``, while the
    scheduled CI job runs the contention entries at ``default`` scale purely
    for artifact tracking.
    """
    if only is not None:
        unknown = set(only) - set(BENCH_SUITE)
        if unknown:
            raise KeyError(f"unknown benchmark entries {sorted(unknown)}; "
                           f"suite: {', '.join(BENCH_SUITE)}")
    report = BenchReport(sha=git_sha())
    for name, func in BENCH_SUITE.items():
        if only is not None and name not in only:
            continue
        started = time.perf_counter()
        metrics = func(scale)
        elapsed = time.perf_counter() - started
        report.records[name] = {"wall_seconds": round(elapsed, 4),
                                "metrics": metrics}
        if progress is not None:
            progress(f"  {name:<26s} {elapsed:7.2f}s  "
                     + "  ".join(f"{k}={v}" for k, v in metrics.items()))
    return report


# ---------------------------------------------------------------------------
# Comparing
# ---------------------------------------------------------------------------
def _drift(current: Dict[str, object], baseline: Dict[str, object]
           ) -> List[Tuple[str, str, object, object]]:
    """Every cycle metric on which ``current`` and ``baseline`` disagree.

    Rows are ``(entry, metric, baseline value, current value)`` in sorted
    order; a side that lacks the entry or the metric reads :data:`_MISSING`.
    Wall seconds are machine budgets, not code outputs, and never appear.
    """
    current_records = current.get("records", {})
    baseline_records = baseline.get("records", {})
    rows: List[Tuple[str, str, object, object]] = []
    for name in sorted(set(current_records) | set(baseline_records)):
        metrics = current_records.get(name, {}).get("metrics", {})
        base_metrics = baseline_records.get(name, {}).get("metrics", {})
        for metric in sorted(set(metrics) | set(base_metrics)):
            value = metrics.get(metric, _MISSING)
            base = base_metrics.get(metric, _MISSING)
            if value != base:
                rows.append((name, metric, base, value))
    return rows


def compare(current: Dict[str, object],
            baseline: Dict[str, object]) -> List[str]:
    """The gate: findings that keep ``current`` from passing ``baseline``.

    Every :func:`_drift` row fails — a cycle metric that differs at all
    (improvements included: a stale baseline would hide the next change's
    drift), or an entry or metric missing on either side (a silently skipped
    benchmark must not pass).  So does a wall time more than
    :data:`WALL_TOLERANCE` over its committed budget.  Returns human-readable
    findings; empty means the gate passes.
    """
    problems: List[str] = []
    for name, metric, base, value in _drift(current, baseline):
        if base == _MISSING:
            problems.append(f"{name}: {metric} missing from baseline "
                            "(refresh with --write-baseline)")
        elif value == _MISSING:
            problems.append(f"{name}: {metric} in baseline but missing "
                            "from current run")
        else:
            problems.append(f"{name}: {metric} drifted "
                            f"({base:g} -> {value:g})")
    current_records = current.get("records", {})
    for name, base_record in sorted(baseline.get("records", {}).items()):
        if name not in current_records:
            continue                        # reported by _drift() above
        wall = float(current_records[name]["wall_seconds"])
        budget = float(base_record["wall_seconds"])
        if wall > budget * (1.0 + WALL_TOLERANCE):
            problems.append(
                f"{name}: wall_seconds {wall:g} exceeds its {budget:g} s "
                f"budget by more than +{WALL_TOLERANCE:.0%}")
    return problems


def summarize_drift(current: Dict[str, object],
                    baseline: Optional[Dict[str, object]]) -> str:
    """Markdown drift table for a CI step summary.

    One row per :func:`_drift` row — the cycle findings of the gate, rendered
    for ``$GITHUB_STEP_SUMMARY`` by the ``bench-refresh`` job so a
    maintainer can see at a glance what the ready-to-commit baseline artifact
    would change.  With no baseline (or no drift) it says so instead.
    """
    lines = ["## Benchmark baseline drift", ""]
    if baseline is None:
        lines.append("No committed baseline to compare against; the "
                     "refreshed baseline artifact seeds one.")
        return "\n".join(lines) + "\n"
    rows = _drift(current, baseline)
    if not rows:
        lines.append("Committed baseline is **fresh**: every cycle metric "
                     "matches this run exactly.")
        return "\n".join(lines) + "\n"
    lines += [f"{len(rows)} metric(s) drifted — the `baseline-refresh` "
              "artifact contains the ready-to-commit refresh.", "",
              "| benchmark | metric | committed | this run | drift |",
              "|---|---|---:|---:|---:|"]
    for name, metric, base, value in rows:
        if _MISSING not in (base, value) and base:
            change = f"{value / base - 1.0:+.2%}"
        else:
            change = "n/a"
        lines.append(f"| {name} | {metric} | {base} | {value} | {change} |")
    return "\n".join(lines) + "\n"


def load_report(path: str) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def write_report(report: BenchReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_baseline(report: BenchReport, path: str) -> None:
    """Write ``report`` as a regression baseline: exact cycles, wall budgets."""
    data = report.as_dict()
    data["sha"] = "baseline"
    data["records"] = {                      # copy: never mutate the report
        name: {"metrics": dict(record["metrics"]),
               "wall_seconds": round(
                   max(float(record["wall_seconds"]) * WALL_BUDGET_FACTOR,
                       WALL_BUDGET_MIN_SECONDS), 2)}
        for name, record in data["records"].items()}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


__all__ = ["BENCH_SUITE", "BenchReport", "WALL_TOLERANCE",
           "compare", "git_sha", "load_report", "run_suite",
           "summarize_drift", "write_baseline", "write_report"]
