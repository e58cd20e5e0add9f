"""Bus arbitration policies.

Arbiters select which requesting master is granted the shared interconnect
next.  They are deliberately stateless with respect to the bus itself: the
bus hands them the list of master indices that currently have queued
requests, in ascending order, and the arbiter returns the chosen index.
"""

from __future__ import annotations

from typing import List, Sequence


class Arbiter:
    """Base class: choose one master index from a non-empty candidate list."""

    name = "base"

    def choose(self, candidates: Sequence[int]) -> int:
        raise NotImplementedError


class RoundRobinArbiter(Arbiter):
    """Classic rotating-priority round-robin (the paper's interconnect default)."""

    name = "round_robin"

    def __init__(self):
        self._last_granted = -1

    def choose(self, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ValueError("no candidates to arbitrate")
        for idx in candidates:
            if idx > self._last_granted:
                self._last_granted = idx
                return idx
        # Wrap around.
        self._last_granted = candidates[0]
        return candidates[0]


class FixedPriorityArbiter(Arbiter):
    """Lowest master index always wins (models a priority port for the host)."""

    name = "fixed_priority"

    def choose(self, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ValueError("no candidates to arbitrate")
        return min(candidates)


class WeightedArbiter(Arbiter):
    """Weighted round-robin: master ``i`` receives up to ``weights[i]``
    consecutive grants before the token rotates."""

    name = "weighted"

    def __init__(self, weights: List[int]):
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = list(weights)
        self._current = 0
        self._credit = self.weights[0]

    def choose(self, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ValueError("no candidates to arbitrate")
        candidate_set = set(candidates)
        for _ in range(2 * len(self.weights) + 1):
            if self._current in candidate_set and self._credit > 0:
                self._credit -= 1
                return self._current
            self._current = (self._current + 1) % len(self.weights)
            self._credit = self.weights[self._current]
        # All credits exhausted without a match (candidate beyond weight list):
        return min(candidates)


def make_arbiter(kind: str, num_masters: int) -> Arbiter:
    """Factory used by the system synthesiser."""
    if kind == "round_robin":
        return RoundRobinArbiter()
    if kind == "fixed_priority":
        return FixedPriorityArbiter()
    if kind == "weighted":
        return WeightedArbiter([1] * num_masters)
    raise ValueError(f"unknown arbiter kind {kind!r}")
