"""Declarative sweeps: named axes in, coordinate-keyed outcomes out.

The evaluation is a grid of (execution model × workload × configuration)
points.  Historically every figure flattened its grid into a positional job
list and reassembled the results with an order-coupled ``iter``/``next``
dance; this module replaces that with three small pieces:

* :class:`Point` — one labeled experiment point: ``coords`` (a mapping of
  axis name to value, e.g. ``kernel="vecadd", tlb_entries=16``) plus the
  :class:`~repro.exec.jobs.ExperimentJob` that evaluates it,
* :class:`Sweep` — an ordered collection of points.  ``run()`` dispatches
  every job, with its coordinates, through one runner's ``map`` — the
  caller's :class:`~repro.exec.runner.SweepRunner` (parallel, memoized, or
  a fleet's :class:`~repro.dist.runner.DistributedRunner`) or a serial
  ``SweepRunner(jobs=1)`` — and returns the outcomes keyed by coordinates,
* :class:`Grid` — a cartesian-product builder: declare the axes once and a
  factory turning one coordinate assignment into a job.

Results come back as a :class:`SweepOutcomes`, addressed by coordinates
(``outcomes.get(kernel="vecadd", tlb_entries=16)``) or extracted as ordered
series along one axis (``outcomes.series("tlb_entries", "tlb_hit_rate",
kernel="vecadd")``) — no positional regrouping anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple, Union)

from ..exec.jobs import ExperimentJob, run_job
from ..exec.runner import SweepRunner

#: Canonical coordinate form: axis items sorted by axis name, hashable.
Coords = Tuple[Tuple[str, Hashable], ...]


def make_coords(axes: Union[Mapping[str, Hashable],
                            Iterable[Tuple[str, Hashable]]]) -> Coords:
    """Normalise axis->value pairs into the canonical tuple form.

    Accepts a mapping or any iterable of ``(axis, value)`` pairs (e.g. the
    coordinate tuples :mod:`repro.dse` candidates carry), so callers can
    re-canonicalise coordinates without caring how they were built.
    """
    items = axes.items() if isinstance(axes, Mapping) else list(axes)
    if not items:
        raise ValueError("a sweep point needs at least one coordinate")
    return tuple(sorted(items))


@dataclass(frozen=True)
class Point:
    """One labeled experiment point of a sweep."""

    coords: Coords
    job: ExperimentJob

    def coord(self, name: str) -> Hashable:
        for axis, value in self.coords:
            if axis == name:
                return value
        raise KeyError(f"point has no axis {name!r}; "
                       f"axes: {[axis for axis, _ in self.coords]}")


class Sweep:
    """An ordered, duplicate-free collection of labeled points."""

    def __init__(self, label: Optional[str] = None):
        self.label = label
        self._points: List[Point] = []
        self._seen: Dict[Coords, int] = {}

    def add(self, job: ExperimentJob, **coords: Hashable) -> Point:
        """Append one point; coordinates must be unique within the sweep."""
        key = make_coords(coords)
        if key in self._seen:
            raise ValueError(f"duplicate sweep point {dict(key)!r}")
        point = Point(coords=key, job=job)
        self._seen[key] = len(self._points)
        self._points.append(point)
        return point

    @property
    def points(self) -> Tuple[Point, ...]:
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def run(self, runner: Optional[SweepRunner] = None) -> "SweepOutcomes":
        """Evaluate every point; serial and runner-backed results are identical."""
        runner = runner if runner is not None else SweepRunner(jobs=1, cache=None)
        results = runner.map(run_job, [p.job for p in self._points],
                             label=self.label or "sweep",
                             coords=[dict(p.coords) for p in self._points])
        return SweepOutcomes(self._points, results)


class Grid:
    """Cartesian axes plus a job factory — the declarative sweep builder.

    >>> grid = Grid(kernel=("vecadd", "matmul"), tlb_entries=(8, 16))
    >>> sweep = grid.sweep(lambda kernel, tlb_entries: ExperimentJob(
    ...     "svm", specs[kernel], HarnessConfig(tlb_entries=tlb_entries)))

    The factory receives one keyword argument per axis and returns the job
    for that point, or ``None`` to skip it (sparse grids).
    """

    def __init__(self, **axes: Sequence[Hashable]):
        if not axes:
            raise ValueError("a grid needs at least one axis")
        # Materialise exactly once: one-shot iterables must not be consumed
        # by validation and then re-listed into an empty axis.
        self._axes: Dict[str, List[Hashable]] = {name: list(values)
                                                 for name, values in axes.items()}
        for name, values in self._axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")

    def size(self) -> int:
        total = 1
        for values in self._axes.values():
            total *= len(values)
        return total

    def sweep(self, build: Callable[..., Optional[ExperimentJob]],
              label: Optional[str] = None) -> Sweep:
        """Expand the grid into a :class:`Sweep` via the job factory."""
        sweep = Sweep(label=label)
        names = list(self._axes)
        for combo in itertools.product(*self._axes.values()):
            coords = dict(zip(names, combo))
            job = build(**coords)
            if job is not None:
                sweep.add(job, **coords)
        return sweep


class SweepOutcomes:
    """Outcomes of a sweep, addressed by coordinates instead of position."""

    def __init__(self, points: Sequence[Point], results: Sequence[Any]):
        if len(points) != len(results):
            raise ValueError("one result per point required")
        self._points = list(points)
        self._data: Dict[Coords, Any] = {p.coords: r
                                         for p, r in zip(points, results)}
        # Axis values in first-seen order, so series() preserves the order
        # the sweep was declared with.
        self._axes: Dict[str, List[Hashable]] = {}
        for point in self._points:
            for axis, value in point.coords:
                values = self._axes.setdefault(axis, [])
                if value not in values:
                    values.append(value)

    # -------------------------------------------------------------- lookup
    def get(self, **coords: Hashable) -> Any:
        """The outcome at exactly these coordinates."""
        key = make_coords(coords)
        try:
            return self._data[key]
        except KeyError:
            raise KeyError(f"no sweep point at {dict(key)!r}; "
                           f"axes: {self.axes()}") from None

    def __contains__(self, coords: Coords) -> bool:
        return coords in self._data

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Coords]:
        return (p.coords for p in self._points)

    def items(self) -> Iterator[Tuple[Dict[str, Hashable], Any]]:
        """(coords dict, outcome) pairs in sweep order."""
        return ((dict(p.coords), self._data[p.coords]) for p in self._points)

    def outcomes(self) -> List[Any]:
        """All outcomes in sweep order."""
        return [self._data[p.coords] for p in self._points]

    # -------------------------------------------------------------- records
    def to_records(self) -> List[Dict[str, Any]]:
        """One tidy row dict per point: coordinate columns + outcome record.

        Outcomes providing ``to_record`` (every
        :class:`~repro.models.RunOutcome`) expand into the canonical flat
        schema; anything else (scalar metrics, custom objects) lands under
        a ``value`` column.  This is the same per-point row the results
        store persists, so in-process tables and ``repro query`` output
        line up column-for-column.
        """
        rows: List[Dict[str, Any]] = []
        for point in self._points:
            outcome = self._data[point.coords]
            coords = dict(point.coords)
            to_record = getattr(outcome, "to_record", None)
            if callable(to_record):
                rows.append(to_record(coords))
            else:
                rows.append({**coords, "value": outcome})
        return rows

    def to_table(self, title: str = "", fmt: str = "table",
                 columns: Optional[Sequence[str]] = None) -> str:
        """The per-point rows rendered via :func:`~repro.eval.report.format_output`."""
        from .report import format_output
        return format_output(self.to_records(), columns=columns, fmt=fmt,
                             title=title)

    # --------------------------------------------------------------- slices
    def axes(self) -> Dict[str, List[Hashable]]:
        """Axis name -> values in first-seen order."""
        return {name: list(values) for name, values in self._axes.items()}

    def axis(self, name: str) -> List[Hashable]:
        if name not in self._axes:
            raise KeyError(f"unknown axis {name!r}; axes: {list(self._axes)}")
        return list(self._axes[name])

    def select(self, **fixed: Hashable) -> "SweepOutcomes":
        """The sub-sweep matching the fixed coordinates."""
        fixed_items = set(fixed.items())
        points = [p for p in self._points if fixed_items <= set(p.coords)]
        return SweepOutcomes(points, [self._data[p.coords] for p in points])

    def series(self, over: str, value: Any = None,
               **fixed: Hashable) -> List[Any]:
        """Outcomes (or one extracted metric) along axis ``over``.

        All other axes must be pinned by ``fixed``.  ``value`` selects what
        to extract: ``None`` returns the outcomes themselves, a string reads
        that attribute, a callable is applied to each outcome.
        """
        out = []
        for axis_value in self.axis(over):
            outcome = self.get(**{over: axis_value, **fixed})
            if value is None:
                out.append(outcome)
            elif callable(value):
                out.append(value(outcome))
            else:
                out.append(getattr(outcome, value))
        return out
