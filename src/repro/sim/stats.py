"""Statistics collection for simulation components.

Every component owns a set of named statistics (counters, scalars,
histograms, latency accumulators) registered in a global
:class:`StatsRegistry` so the evaluation harness can collect a flat snapshot
after a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Scalar:
    """A single overwritable numeric value (e.g. a final cycle count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Accumulator:
    """Running sum / count / min / max, used for latencies and occupancies."""

    __slots__ = ("name", "total", "count", "minimum", "maximum")

    def __init__(self, name: str):
        self.name = name
        self.total = 0.0
        self.count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, sample: float) -> None:
        self.total += sample
        self.count += 1
        if self.minimum is None or sample < self.minimum:
            self.minimum = sample
        if self.maximum is None or sample > self.maximum:
            self.maximum = sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self.minimum = None
        self.maximum = None

    def __repr__(self) -> str:
        return f"Accumulator({self.name}: n={self.count}, mean={self.mean:.2f})"


class Histogram:
    """Bucketed histogram over integer samples (power-of-two buckets)."""

    def __init__(self, name: str, num_buckets: int = 24):
        self.name = name
        self.num_buckets = num_buckets
        self.buckets = [0] * num_buckets
        self.count = 0

    def add(self, sample: int) -> None:
        if sample < 0:
            raise ValueError("histogram samples must be non-negative")
        bucket = sample.bit_length()
        if bucket >= self.num_buckets:
            bucket = self.num_buckets - 1
        self.buckets[bucket] += 1
        self.count += 1

    def reset(self) -> None:
        self.buckets = [0] * self.num_buckets
        self.count = 0

    def as_dict(self) -> Dict[str, int]:
        out = {}
        for i, value in enumerate(self.buckets):
            if value:
                low = 0 if i == 0 else 1 << (i - 1)
                high = (1 << i) - 1
                out[f"[{low},{high}]"] = value
        return out


@dataclass
class StatGroup:
    """Statistics belonging to one component."""

    owner: str
    counters: Dict[str, Counter] = field(default_factory=dict)
    scalars: Dict[str, Scalar] = field(default_factory=dict)
    accumulators: Dict[str, Accumulator] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """The counter ``name``, created (at 0) if it does not exist yet."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def counter_value(self, name: str) -> int:
        """Counter ``name``'s value, 0 if absent: readers must not create a
        counter, which would add a key to every later snapshot."""
        counter = self.counters.get(name)
        return 0 if counter is None else counter.value

    def scalar(self, name: str) -> Scalar:
        if name not in self.scalars:
            self.scalars[name] = Scalar(name)
        return self.scalars[name]

    def accumulator(self, name: str) -> Accumulator:
        if name not in self.accumulators:
            self.accumulators[name] = Accumulator(name)
        return self.accumulators[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def snapshot(self) -> Dict[str, float]:
        """Flatten all statistics of this group into ``{name: value}``."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[name] = counter.value
        for name, scalar in self.scalars.items():
            out[name] = scalar.value
        for name, acc in self.accumulators.items():
            out[f"{name}.mean"] = acc.mean
            out[f"{name}.count"] = acc.count
            out[f"{name}.total"] = acc.total
            if acc.maximum is not None:
                out[f"{name}.max"] = acc.maximum
        for name, hist in self.histograms.items():
            out[f"{name}.count"] = hist.count
        return out

    def reset(self) -> None:
        for collection in (self.counters, self.scalars,
                           self.accumulators, self.histograms):
            for stat in collection.values():
                stat.reset()


class StatsRegistry:
    """All statistic groups of a simulation, keyed by component name."""

    def __init__(self):
        self._groups: Dict[str, StatGroup] = {}

    def group(self, owner: str) -> StatGroup:
        if owner not in self._groups:
            self._groups[owner] = StatGroup(owner)
        return self._groups[owner]

    def snapshot(self) -> Dict[str, float]:
        """Flatten every statistic into ``{"component.stat": value}``."""
        out: Dict[str, float] = {}
        for owner, group in self._groups.items():
            for name, value in group.snapshot().items():
                out[f"{owner}.{name}"] = value
        return out

    def reset(self) -> None:
        for group in self._groups.values():
            group.reset()

    def query(self, prefix: str) -> Dict[str, float]:
        """Return the snapshot entries whose key starts with ``prefix``."""
        return {k: v for k, v in self.snapshot().items() if k.startswith(prefix)}


def merge_snapshots(snapshots: Iterable[Mapping[str, float]]) -> Dict[str, List[float]]:
    """Collect per-run snapshots into ``{key: [values...]}`` for reporting."""
    merged: Dict[str, List[float]] = {}
    for snap in snapshots:
        for key, value in snap.items():
            merged.setdefault(key, []).append(value)
    return merged


def sum_matching(snapshot: Mapping[str, float], prefix: str,
                 suffix: str) -> int:
    """Sum every ``<prefix>*.<suffix>`` entry of a flat stats snapshot.

    The canonical way to aggregate one statistic over a family of components
    (``sum_matching(snap, "mmu.", "tlb_misses")`` totals the TLB misses of
    every MMU): used by the evaluation harness's result aggregation and by
    the scheduling telemetry bus, so the two can never disagree on what a
    counter means.
    """
    dotted = "." + suffix
    return int(sum(value for key, value in snapshot.items()
                   if key.startswith(prefix) and key.endswith(dotted)))


def diff_snapshots(new: Mapping[str, float],
                   old: Mapping[str, float]) -> Dict[str, float]:
    """Per-key delta ``new - old`` of two snapshots of the same registry.

    Keys absent from ``old`` (components created between the snapshots) count
    from zero; keys absent from ``new`` are dropped.  For monotonic counters
    this is exactly "what happened between the two sample points", which is
    what epoch-based telemetry consumes.
    """
    return {key: value - old.get(key, 0.0) for key, value in new.items()}
