"""Execution-model protocol and the unified run outcome.

Every execution model — the paper's SVM hardware thread, the ideal
physically-addressed accelerator, the copy-DMA baseline, the software CPU,
and any model registered later — answers the same question: *how long does
this workload take under this configuration?*  :class:`RunOutcome` is the
uniform, picklable answer, so sweeps, comparisons and the memo cache never
need to know which model produced a result.  Model-specific detail (the
copy-DMA marshalling split, for instance) goes in the optional ``breakdown``
mapping instead of a per-model result type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Protocol, Tuple, runtime_checkable

#: Breakdown counters surfaced as flat record fields (0 when a model does
#: not report them).  Keep in sync with ``SVMResult.translation_breakdown``.
_RECORD_BREAKDOWN_FIELDS: Tuple[str, ...] = (
    "walks", "walker_levels", "walker_cycles", "miss_stall_cycles",
    "prefetches_issued", "prefetch_hits", "context_switches", "epochs")

#: The canonical record schema: every ``RunOutcome.to_record()`` emits
#: exactly these fields (plus the caller's coordinate columns).  Pinned —
#: the results store, ``repro query`` and CSV consumers parse it; removing
#: or renaming a field is a schema break and needs a store
#: ``SCHEMA_VERSION`` bump to go with it.
RECORD_FIELDS: Tuple[str, ...] = (
    "model", "tier", "total_cycles", "fabric_cycles", "tlb_hit_rate",
    "tlb_misses", "faults", "software_overhead_cycles",
    "marshalling_cycles") + _RECORD_BREAKDOWN_FIELDS


#: Execution tiers a run may request: ``"auto"`` replays when the point is
#: eligible and falls back to the event simulator otherwise, ``"event"`` pins
#: the event simulator, ``"replay"`` demands the fastpath replay engine.
TIERS: Tuple[str, ...] = ("auto", "event", "replay")


@dataclass(frozen=True)
class RunOutcome:
    """Uniform result of running one workload under one execution model.

    ``total_cycles`` is the end-to-end time in fabric cycles (including any
    software/marshalling overhead the model pays); ``fabric_cycles`` is the
    compute portion only.  Translation statistics are zero for models that
    do not translate (ideal, copydma, software).
    """

    model: str
    total_cycles: int
    fabric_cycles: int
    tlb_hit_rate: float = 0.0
    tlb_misses: int = 0
    faults: int = 0
    software_overhead_cycles: int = 0
    #: Execution tier that produced the result: ``"event"`` for the
    #: event-driven simulator, ``"replay"`` for the fastpath replay engine.
    tier: str = "event"
    #: Model-specific extras (e.g. the copy-DMA alloc/copy-in/copy-out split).
    breakdown: Optional[Dict[str, Any]] = field(default=None)

    def __post_init__(self) -> None:
        if self.total_cycles < 0 or self.fabric_cycles < 0:
            raise ValueError("cycle counts must be non-negative")

    @property
    def marshalling_cycles(self) -> int:
        """Host-side data-movement cycles (alloc + copy-in + copy-out).

        Zero for models that do not marshal; copy-based models report the
        split through ``breakdown``.
        """
        if not self.breakdown:
            return 0
        return int(self.breakdown.get("alloc_cycles", 0)
                   + self.breakdown.get("copy_in_cycles", 0)
                   + self.breakdown.get("copy_out_cycles", 0))

    def to_record(self, coords: Optional[Mapping[str, Any]] = None
                  ) -> Dict[str, Any]:
        """The canonical flat record: one dict, every output surface.

        ``coords`` (sweep coordinates) become leading columns; then exactly
        :data:`RECORD_FIELDS` — cycles, translation statistics, the
        marshalling aggregate and the breakdown counters (0 where a model
        does not report one).  The results store, ``repro query``, CSV/JSON
        row output and :meth:`SweepOutcomes.to_records` all serialize
        through this method, so the field set is pinned by test.  A
        coordinate sharing a record field's name (e.g. a ``model`` axis) is
        overwritten by the outcome's own value — they agree by
        construction.
        """
        record: Dict[str, Any] = dict(coords) if coords else {}
        breakdown = self.breakdown or {}
        record.update(
            model=self.model,
            tier=self.tier,
            total_cycles=self.total_cycles,
            fabric_cycles=self.fabric_cycles,
            tlb_hit_rate=self.tlb_hit_rate,
            tlb_misses=self.tlb_misses,
            faults=self.faults,
            software_overhead_cycles=self.software_overhead_cycles,
            marshalling_cycles=self.marshalling_cycles,
        )
        for name in _RECORD_BREAKDOWN_FIELDS:
            record[name] = int(breakdown.get(name, 0))
        return record


@runtime_checkable
class ExecutionModel(Protocol):
    """What a registered execution model must provide.

    ``run`` executes one workload spec under one harness configuration and
    returns a :class:`RunOutcome`.  Models that have no notion of multiple
    hardware threads accept and ignore ``num_threads``.

    ``tiers`` declares which execution tiers the model supports.  The
    registry defaults it to ``("event",)``; models built on the SVM harness
    additionally declare ``"replay"`` and accept a ``tier`` keyword in
    ``run`` (one of :data:`TIERS`).  Jobs only forward a tier request to
    models that declare it, so single-tier models never see the keyword.
    """

    name: str
    tiers: tuple

    def run(self, spec: Any, config: Any = None,
            num_threads: int = 1) -> RunOutcome:
        ...
