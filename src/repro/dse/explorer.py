"""Explorer backends: exhaustive grids and budgeted successive halving.

An :class:`Explorer` turns a :class:`DesignSpace` — index-addressed
candidates and a fidelity ladder of evaluators from cheapest to full — into
an :class:`Exploration`: the full-fidelity points it trusts and their Pareto
front.  Two backends ship:

* ``exhaustive`` — every candidate through the full-fidelity evaluator, in
  candidate order; the classic grid sweep of :mod:`repro.core.dse` runs here;
* ``successive-halving`` — rounds of evaluate-at-the-cheap-rung → keep the
  non-dominated-plus-margin survivors → promote to the next rung, under a
  deterministic seeded sampler and a hard evaluation budget.

Both adopt current-version rows from a
:class:`~repro.store.results.ResultsStore` (warm start) before spending any
evaluations, and both dispatch through the ``runner=`` seam so explorations
parallelize/memoize/distribute like any sweep.  Budget accounting mirrors
into ``runner.stats`` (``explore_evaluations`` / ``explore_warm_hits``).
"""

from __future__ import annotations

import heapq
import inspect
import math
import random
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..exec.keys import stable_key
from .objectives import DseObjectives

#: Canonical sweep-coordinate form (mirrors ``repro.eval.sweep.Coords``).
Coords = Tuple[Tuple[str, Any], ...]


class BudgetExhaustedError(RuntimeError):
    """The evaluation budget cannot cover the requested exploration."""


@dataclass(frozen=True)
class FidelityRung:
    """One rung of the fidelity ladder: a named evaluator."""

    name: str
    evaluator: Callable[[Any], Any]


@dataclass(frozen=True)
class DesignSpace:
    """Index-addressed candidates and the fidelity ladder: candidate ``i`` is
    the ``i``-th assignment in ``itertools.product`` order, decoded in mixed
    radix when an explorer asks for it, so nothing is built up front."""

    #: Ordered ``(name, values)`` pairs; the last axis varies fastest.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    #: Cheapest rung first; the last rung is the trusted full fidelity.
    ladder: Tuple[FidelityRung, ...]
    #: Turns one ``{axis: value}`` assignment into the candidate the
    #: evaluators receive; by default the candidate is the assignment dict.
    build: Callable[[Dict[str, Any]], Any] = dict

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a design space needs at least one axis")
        if not self.ladder:
            raise ValueError("the fidelity ladder needs at least one rung")

    def size(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    @property
    def full(self) -> FidelityRung:
        """The trusted full-fidelity rung (last on the ladder)."""
        return self.ladder[-1]

    def _assignment(self, i: int) -> Dict[str, Any]:
        """Candidate ``i``'s ``{axis: value}`` assignment, in axis order."""
        stride = self.size()
        if not 0 <= i < stride:
            raise IndexError(f"no candidate {i} in a space of {stride}")
        assignment = {}
        for name, values in self.axes:
            stride //= len(values)
            digit, i = divmod(i, stride)
            assignment[name] = values[digit]
        return assignment

    def candidate(self, i: int) -> Any:
        """The evaluator input of candidate ``i``."""
        return self.build(self._assignment(i))

    def coords(self, i: int) -> Coords:
        """Candidate ``i``'s sorted ``(axis, value)`` pairs; a ``None`` value
        means "not set" (``build`` decides) and is left out."""
        return tuple(sorted(pair for pair in self._assignment(i).items()
                            if pair[1] is not None))

    @classmethod
    def from_axes(cls, axes: Mapping[str, Sequence[Any]],
                  ladder: Sequence[FidelityRung],
                  build: Callable[[Dict[str, Any]], Any] = dict
                  ) -> "DesignSpace":
        """Cartesian-product space over ``axes``, in their mapping order."""
        return cls(tuple((name, tuple(vs)) for name, vs in axes.items()),
                   tuple(ladder), build)


@dataclass(frozen=True)
class ExplorationPoint:
    """One trusted design point: coordinates plus objective values."""

    coords: Coords
    #: Natural-sense objective values, in ``objectives.axes`` order.
    values: Tuple[Any, ...]
    #: Ladder rung that produced the values (full fidelity for trusted
    #: points; intermediate rungs only appear in survivor bookkeeping).
    fidelity: str
    #: ``"evaluated"`` or ``"warm-start"`` (adopted from the results store).
    source: str = "evaluated"
    #: The evaluator payload the values came from (a warm start keeps its
    #: row's value); not part of equality, repr or ``Exploration.as_dict``.
    payload: Any = field(default=None, compare=False, repr=False)

    @property
    def params(self) -> Dict[str, Any]:
        return dict(self.coords)


@dataclass
class Exploration:
    """What an explorer found and what it spent finding it."""

    objectives: DseObjectives
    space_size: int
    budget: Optional[int]
    evaluations: int = 0
    warm_hits: int = 0
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    #: Dispatch order, ``(rung name, coords)`` per evaluation — the seeded
    #: sampler makes this reproducible: same space/seed/budget, same log.
    log: List[Tuple[str, Coords]] = field(default_factory=list)
    #: Full-fidelity pool (evaluated survivors + warm-start adoptions).
    points: List[ExplorationPoint] = field(default_factory=list)
    front: List[ExplorationPoint] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (front and points as param/value rows)."""
        def rows(points: List[ExplorationPoint]) -> List[Dict[str, Any]]:
            return [{"params": p.params, "source": p.source,
                     **dict(zip(self.objectives.axes, p.values))}
                    for p in points]
        return {
            "objectives": list(self.objectives.axes),
            "space_size": self.space_size,
            "budget": self.budget,
            "evaluations": self.evaluations,
            "warm_hits": self.warm_hits,
            "explored_fraction": (round(self.evaluations / self.space_size, 6)
                                  if self.space_size else 0.0),
            "rounds": list(self.rounds),
            "points": rows(self.points),
            "front": rows(self.front),
        }


def pareto_positions(vectors: Sequence[Tuple[Any, ...]],
                     tokens: Sequence[str]) -> List[int]:
    """Positions of the non-dominated minimized vectors.

    ``tokens`` break ties between equal vectors deterministically, whatever
    the input order (callers pass the ``repr`` of each point's parameters).
    Sorting by (vector, token) makes the scan linear in the front size: a
    lexicographically later vector can never dominate an earlier one, so a
    single forward pass against the accepted set suffices.  Equal vectors
    never dominate each other, hence all duplicates survive.  The returned
    positions follow the sorted order — deterministic regardless of input
    order.
    """
    order = sorted(range(len(vectors)), key=lambda i: (vectors[i], tokens[i]))
    accepted: List[int] = []
    for i in order:
        v = vectors[i]
        if any(all(x <= y for x, y in zip(vectors[j], v)) and vectors[j] != v
               for j in accepted):
            continue
        accepted.append(i)
    return accepted


def pareto_points(points: Sequence[ExplorationPoint],
                  objectives: DseObjectives) -> List[ExplorationPoint]:
    """The non-dominated subset, in canonical (minimized, coords) order."""
    vectors = [objectives.minimized(p.values) for p in points]
    tokens = [repr(p.coords) for p in points]
    return [points[i] for i in pareto_positions(vectors, tokens)]


# --------------------------------------------------------------------------
# Explorer registry
# --------------------------------------------------------------------------
_EXPLORERS: Dict[str, Callable[[], "Explorer"]] = {}


def register_explorer(name: str):
    """Class decorator: register an explorer backend under ``name``."""
    def decorate(cls):
        cls.name = name
        _EXPLORERS[name] = cls
        return cls
    return decorate


def explorer_names() -> List[str]:
    return sorted(_EXPLORERS)


def get_explorer(which: Any) -> "Explorer":
    """Resolve a backend by registry name, or pass an instance through."""
    if isinstance(which, str):
        try:
            return _EXPLORERS[which]()
        except KeyError:
            raise KeyError(f"unknown explorer {which!r}; "
                           f"registered: {explorer_names()}") from None
    if hasattr(which, "explore"):
        return which
    raise TypeError(f"explorer must be a registry name or provide .explore(); "
                    f"got {type(which).__name__}")


class Explorer:
    """Protocol + shared machinery for exploration backends.

    Subclasses implement :meth:`explore`; the base class owns warm start,
    runner dispatch, budget charging and the evaluation log, so every
    backend accounts spending identically.
    """

    name = "abstract"

    def explore(self, space: DesignSpace, *,
                objectives: Optional[DseObjectives] = None,
                runner: Optional[Any] = None,
                budget: Optional[int] = None,
                results: Optional[Any] = None,
                seed: int = 0) -> Exploration:
        raise NotImplementedError

    # ------------------------------------------------------------ shared
    @staticmethod
    def _warm_start(space: DesignSpace, results: Optional[Any],
                    objectives: DseObjectives, runner: Optional[Any],
                    exploration: Exploration
                    ) -> Tuple[Dict[int, ExplorationPoint], Sequence[int]]:
        """Adopt current-version store rows before spending any budget.

        Keys match what :meth:`SweepRunner.map` records for the same
        evaluator + candidate, so any prior sweep/exploration that went
        through ``--results-db`` seeds this one.  Adoptions cost zero
        evaluations and are never re-dispatched.
        """
        pool = range(space.size())
        if results is None:
            return {}, pool
        try:
            keys = [stable_key(space.full.evaluator, space.candidate(i))
                    for i in pool]
        except TypeError:          # evaluator not content-addressable
            return {}, pool
        found = results.warm_values(keys)
        warm: Dict[int, ExplorationPoint] = {}
        rest: List[int] = []
        for i, key in enumerate(keys):
            if key in found:
                try:
                    values = objectives.extract(found[key])
                except (KeyError, TypeError, ValueError):
                    rest.append(i)     # stale/foreign payload: re-evaluate
                    continue
                warm[i] = ExplorationPoint(space.coords(i), values,
                                           space.full.name, "warm-start",
                                           found[key])
            else:
                rest.append(i)
        exploration.warm_hits = len(warm)
        stats = getattr(runner, "stats", None)
        if stats is not None:
            stats.explore_warm_hits += len(warm)
        return warm, rest

    @staticmethod
    def _evaluate(space: DesignSpace, rung: FidelityRung, cohort: Sequence[int],
                  objectives: DseObjectives, runner: Optional[Any],
                  exploration: Exploration) -> Dict[int, ExplorationPoint]:
        """Dispatch one cohort through a rung, charging the budget."""
        items = [space.candidate(i) for i in cohort]
        coords = [space.coords(i) for i in cohort]
        if runner is not None:
            kwargs: Dict[str, Any] = {}
            try:
                params = inspect.signature(runner.map).parameters
            except (TypeError, ValueError):
                params = {}
            if "label" in params:
                kwargs["label"] = f"dse:{rung.name}"
            if "coords" in params:
                kwargs["coords"] = coords
            values = runner.map(rung.evaluator, items, **kwargs)
            stats = getattr(runner, "stats", None)
            if stats is not None:
                stats.explore_evaluations += len(items)
        else:
            values = [rung.evaluator(item) for item in items]
        exploration.evaluations += len(items)
        exploration.log.extend((rung.name, c) for c in coords)
        return {i: ExplorationPoint(c, objectives.extract(v), rung.name,
                                    payload=v)
                for i, c, v in zip(cohort, coords, values)}

    @staticmethod
    def _finish(exploration: Exploration, warm: Dict[int, ExplorationPoint],
                scored: Dict[int, ExplorationPoint]) -> Exploration:
        """Merge warm + evaluated points in candidate order; take the front."""
        merged = {**warm, **scored}
        exploration.points = [merged[i] for i in sorted(merged)]
        exploration.front = pareto_points(exploration.points,
                                          exploration.objectives)
        return exploration


@register_explorer("exhaustive")
class ExhaustiveExplorer(Explorer):
    """Every candidate through the full-fidelity rung, in candidate order."""

    def explore(self, space, *, objectives=None, runner=None, budget=None,
                results=None, seed=0):
        objectives = objectives or DseObjectives()
        exploration = Exploration(objectives=objectives,
                                  space_size=space.size(), budget=budget)
        warm, pool = self._warm_start(space, results, objectives, runner,
                                      exploration)
        if budget is not None and len(pool) > budget:
            raise BudgetExhaustedError(
                f"exhaustive exploration needs {len(pool)} evaluations but "
                f"the budget is {budget}; use the successive-halving "
                f"explorer to search under a budget")
        scored = self._evaluate(space, space.full, pool, objectives, runner,
                                exploration)
        exploration.rounds.append({"fidelity": space.full.name,
                                   "cohort": len(pool),
                                   "adopted": len(warm)})
        return self._finish(exploration, warm, scored)


@register_explorer("successive-halving")
class SuccessiveHalvingExplorer(Explorer):
    """Budgeted multi-fidelity search: front-plus-margin survivors promote.

    Each round evaluates the cohort at the next-cheapest rung and keeps its
    Pareto front plus a margin of near-front points (ranked by how many
    cohort members dominate them); only final-rung evaluations and
    warm-start adoptions enter the trusted pool.  When the cheap rungs rank
    candidates consistently with full fidelity — in particular whenever
    cheap objectives are monotone transforms of the full ones — every
    true-front candidate is on every round's front, survives regardless of
    the margin, and the recovered front equals the exhaustive one exactly
    (the oracle suite pins this).

    The sampler is a seeded :class:`random.Random`: with the same space,
    seed and budget the evaluation sequence is identical run to run, and
    the budget is a hard cap — each rung's share is an even split of the
    remaining budget over the remaining rungs, and any cohort beyond its
    share is subsampled down to it (``budget >= K * |space|`` on a
    ``K``-rung ladder therefore never subsamples at all).
    """

    def __init__(self, margin: float = 1.0):
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.margin = margin

    def explore(self, space, *, objectives=None, runner=None, budget=None,
                results=None, seed=0):
        objectives = objectives or DseObjectives()
        exploration = Exploration(objectives=objectives,
                                  space_size=space.size(), budget=budget)
        warm, cohort = self._warm_start(space, results, objectives, runner,
                                        exploration)
        rungs = space.ladder
        if budget is not None and cohort and budget < len(rungs):
            raise BudgetExhaustedError(
                f"budget {budget} cannot push any candidate through the "
                f"{len(rungs)}-rung fidelity ladder")
        rng = random.Random(seed)
        remaining = budget
        scored: Dict[int, ExplorationPoint] = {}
        for r, rung in enumerate(rungs):
            if not cohort:
                break
            later = len(rungs) - 1 - r
            sampled_out = 0
            if remaining is not None:
                # Even split of what's left across the remaining rungs; a
                # cohort below its share leaves the surplus to later rungs.
                # budget >= #rungs keeps every share positive (inductively
                # remaining >= rungs left at each rung start).
                afford = max(1, remaining // (later + 1))
                if len(cohort) > afford:
                    # One rng.random() draw per member, in order, keep the
                    # smallest: random() is the only generator method with a
                    # cross-version reproducibility guarantee, and golden
                    # pins depend on the sampled subset.  Streamed, so a
                    # 100k-candidate cohort never exists as a list of draws.
                    keep = sorted(k for _, k in heapq.nsmallest(
                        afford, ((rng.random(), k)
                                 for k in range(len(cohort)))))
                    sampled_out = len(cohort) - afford
                    cohort = [cohort[k] for k in keep]
            points = self._evaluate(space, rung, cohort, objectives, runner,
                                    exploration)
            if remaining is not None:
                remaining -= len(cohort)
            round_info = {"fidelity": rung.name, "cohort": len(cohort),
                          "sampled_out": sampled_out}
            if later == 0:
                scored = points
                exploration.rounds.append(round_info)
                break
            cohort = self._survivors(points, objectives)
            round_info["survivors"] = len(cohort)
            exploration.rounds.append(round_info)
        return self._finish(exploration, warm, scored)

    def _survivors(self, points: Dict[int, ExplorationPoint],
                   objectives: DseObjectives) -> List[int]:
        """Front plus ``ceil(margin * |front|)`` nearest-to-front extras."""
        indices = sorted(points)
        vectors = [objectives.minimized(points[i].values) for i in indices]
        tokens = [repr(points[i].coords) for i in indices]
        front = set(pareto_positions(vectors, tokens))
        survivors = {indices[p] for p in front}
        extra = math.ceil(self.margin * len(front))
        if extra:
            dominated = [p for p in range(len(indices)) if p not in front]
            # Rank by how contested the point is: fewer dominators first.
            def rank(p: int) -> Tuple[Any, ...]:
                dominators = sum(
                    1 for q in range(len(indices))
                    if all(x <= y for x, y in zip(vectors[q], vectors[p]))
                    and vectors[q] != vectors[p])
                return (dominators, vectors[p], tokens[p])
            for p in sorted(dominated, key=rank)[:extra]:
                survivors.add(indices[p])
        return sorted(survivors)
