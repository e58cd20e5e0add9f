"""Design-space exploration over synthesized-system parameters.

The synthesis flow exposes a handful of dimensioning knobs per hardware
thread (TLB entries, burst length, outstanding window, unroll factor) and
system-wide choices (shared walker, number of threads).  The explorer sweeps
a configurable grid of these knobs, evaluates each candidate with a
user-supplied evaluation function (normally "synthesize + simulate the
workload"), and reports every point plus the runtime-vs-area Pareto front
(Fig. 10).

Every exploration, the classic grid included, runs a :mod:`repro.dse`
explorer backend over a :class:`~repro.dse.DesignSpace` of specs built on
demand.  Candidate evaluation goes through the ``runner=`` seam
(:class:`~repro.exec.runner.SweepRunner`), so an exploration parallelizes,
memoizes, or distributes (pass a
:class:`~repro.dist.runner.DistributedRunner`) without this module knowing
which executor is behind it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..dse import DesignSpace, DseObjectives, FidelityRung, get_explorer
from ..dse.explorer import pareto_positions
from ..exec.runner import SweepRunner
from .resources import ResourceEstimate
from .spec import SystemSpec


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration."""

    parameters: Tuple[Tuple[str, object], ...]
    runtime_cycles: int
    resources: ResourceEstimate

    @property
    def params(self) -> Dict[str, object]:
        return dict(self.parameters)

    @property
    def luts(self) -> int:
        return self.resources.luts

    @property
    def bram_kb(self) -> float:
        return self.resources.bram_kb

    def dominates(self, other: "DesignPoint") -> bool:
        """True if this point is no worse in both objectives and better in one."""
        no_worse = (self.runtime_cycles <= other.runtime_cycles
                    and self.luts <= other.luts)
        better = (self.runtime_cycles < other.runtime_cycles
                  or self.luts < other.luts)
        return no_worse and better


def pareto_front(points: Iterable[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset, sorted by runtime.

    One :func:`~repro.dse.explorer.pareto_positions` scan over (runtime,
    LUTs) with ``repr(parameters)`` as the tie token: at equal runtime the
    higher-LUT points are dominated, exact duplicates are all kept (neither
    dominates the other), and the returned list — order included — is a
    pure function of the point *set* (front-equality comparisons rely on it).
    """
    points = list(points)
    front = pareto_positions([(p.runtime_cycles, p.luts) for p in points],
                             [repr(p.parameters) for p in points])
    return [points[i] for i in front]


#: Evaluation callback: given a candidate spec, return (runtime, resources).
Evaluator = Callable[[SystemSpec], Tuple[int, ResourceEstimate]]


@dataclass(frozen=True)
class SweepAxes:
    """The knob grid to explore (None keeps the base spec's value)."""

    tlb_entries: Sequence[int] = (8, 16, 32, 64)
    max_burst_bytes: Sequence[int] = (128, 256)
    max_outstanding: Sequence[int] = (4,)
    shared_walker: Sequence[bool] = (False,)
    #: Per-thread translation-prefetch depth (0 = no prefetcher).  Deeper
    #: prefetch trades walker traffic (and prefetcher area) for fewer demand
    #: TLB misses on strided kernels.
    tlb_prefetch: Sequence[int] = (0,)
    #: OS scheduling policy for multi-process workloads (``None`` = leave to
    #: the workload spec).  Policy choice interacts with the translation
    #: hardware — a larger TLB tolerates longer thrasher quanta, prefetch
    #: changes what "miss pressure" even means — so it is explorable on the
    #: same grid as the hardware knobs; adaptive (telemetry-driven) policies
    #: sweep exactly like static ones.
    policy: Sequence[Optional[str]] = (None,)

    def size(self) -> int:
        return (len(self.tlb_entries) * len(self.max_burst_bytes)
                * len(self.max_outstanding) * len(self.shared_walker)
                * len(self.tlb_prefetch) * len(self.policy))


def _spec_for(base: SystemSpec, knobs: Dict[str, Any]) -> SystemSpec:
    """One candidate: ``base`` with the knobs applied to every thread."""
    threads = [replace(t, tlb_entries=knobs["tlb_entries"],
                       max_burst_bytes=knobs["max_burst_bytes"],
                       max_outstanding=knobs["max_outstanding"],
                       tlb_prefetch=knobs["tlb_prefetch"])
               for t in base.threads]
    return replace(base, threads=threads, shared_walker=knobs["shared_walker"],
                   scheduling_policy=knobs["policy"])


class _Unscored(DseObjectives):
    """No objectives: the classic call takes any pair an evaluator returns."""

    def extract(self, evaluation: Any) -> Tuple[Any, ...]:
        return ()


class DesignSpaceExplorer:
    """Grid sweep over system parameters with Pareto extraction."""

    def __init__(self, evaluator: Evaluator):
        self.evaluator = evaluator

    def _space(self, base: SystemSpec, axes: SweepAxes) -> DesignSpace:
        """The grid as a space of specs, its axes in reported order: the
        one-value ``num_threads`` axis reports the base's thread count, and
        a ``None`` policy keeps the base spec's (named only when set)."""
        policies = tuple(base.scheduling_policy if policy is None else policy
                         for policy in axes.policy)
        return DesignSpace.from_axes(
            {"tlb_entries": axes.tlb_entries,
             "max_burst_bytes": axes.max_burst_bytes,
             "max_outstanding": axes.max_outstanding,
             "shared_walker": axes.shared_walker,
             "tlb_prefetch": axes.tlb_prefetch,
             "num_threads": (base.num_threads,),
             "policy": policies},
            (FidelityRung("full", self.evaluator),),
            build=functools.partial(_spec_for, base))

    def candidates(self, base: SystemSpec, axes: SweepAxes) -> List[SystemSpec]:
        """Enumerate candidate specs over the axis grid.

        The per-thread knobs are applied uniformly to every thread of the
        base spec (per-thread heterogeneous sweeps explode combinatorially
        and are not what the paper's flow explores).
        """
        space = self._space(base, axes)
        return [space.candidate(i) for i in range(space.size())]

    def explore(self, base: SystemSpec, axes: Optional[SweepAxes] = None,
                runner: Optional[SweepRunner] = None, *,
                explorer: Optional[object] = None,
                objectives: Optional[object] = None,
                budget: Optional[int] = None,
                results: Optional[object] = None,
                seed: int = 0):
        """Evaluate the grid through a :mod:`repro.dse` explorer backend.

        With only the classic arguments this is the ``exhaustive`` backend
        without warm start, its points returned as a ``List[DesignPoint]``
        in candidate order.  ``runner`` (a :class:`repro.exec.SweepRunner`)
        evaluates in parallel and/or memoized, in serial point order.

        Passing any of the adaptive keywords returns the
        :class:`~repro.dse.Exploration` itself: ``explorer`` names a
        backend (``"exhaustive"``/``"successive-halving"`` or an instance),
        ``objectives`` a :class:`~repro.dse.DseObjectives`, ``budget`` a
        hard evaluation cap, ``results`` a
        :class:`~repro.store.results.ResultsStore` for warm-starting (else
        the runner's attached store, if any), and ``seed`` drives the
        subsampling of budget-constrained backends.
        """
        adaptive = (explorer is not None or objectives is not None
                    or budget is not None or results is not None)
        space = self._space(base, axes or SweepAxes())
        if adaptive and results is None and runner is not None:
            results = runner.results
        backend = get_explorer("exhaustive" if explorer is None else explorer)
        exploration = backend.explore(
            space, objectives=objectives if adaptive else _Unscored(),
            runner=runner, budget=budget, results=results, seed=seed)
        if adaptive:
            return exploration
        rank = {name: k for k, (name, _) in enumerate(space.axes)}
        return [DesignPoint(tuple(sorted(p.coords, key=lambda c: rank[c[0]])),
                            *p.payload)    # (runtime, resources)
                for p in exploration.points]

    def explore_pareto(self, base: SystemSpec,
                       axes: Optional[SweepAxes] = None,
                       runner: Optional[SweepRunner] = None
                       ) -> Tuple[List[DesignPoint], List[DesignPoint]]:
        """Evaluate the grid; returns (all points, Pareto-optimal points)."""
        points = self.explore(base, axes, runner=runner)
        return points, pareto_front(points)
