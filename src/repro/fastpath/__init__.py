"""Record/replay fast path: the second tier of two-tier execution.

The event tier (:mod:`repro.sim` + :mod:`repro.core.synthesis`) simulates
every memory operation through the full component graph.  This package
replays a *recorded* operation stream (:mod:`repro.sim.recorder`) through a
flattened micro-simulator (:mod:`repro.fastpath.engine`) that models the
set-associative ASID-tagged TLB, the radix page-table walker with per-level
cycle accounting, the stride prefetcher, flush/context-switch semantics,
demand-fault service through the real OS fault handlers, and adaptive
scheduling through the real scheduler and telemetry bus, with event-graph
fidelity — same schedule calls, same order, identical counters — at a
fraction of the event tier's Python overhead.  The engine reads its timing
from the synthesized components' own configs, and one table sends its
counters into those components' real stat groups.

Tier selection lives in the harness (``run_svm(..., tier=...)``) and the
experiment/CLI layers; this package only answers "can this run replay?"
(:func:`svm_replay_blockers` / :func:`mp_replay_blockers`) and "replay it"
(:func:`replay_svm` / :func:`replay_multiprocess`).
"""

from .engine import (ReplayContext, ReplayFault, ReplayOutput, ReplaySpace,
                     replay_fabric)
from .record import (build_program, clear_program_cache, program_for_plan,
                     program_for_workload, record_stats, split_chunks,
                     stream_for_ops)
from .replay import (TierUnavailable, mp_replay_blockers, replay_multiprocess,
                     replay_svm, svm_replay_blockers)

__all__ = [
    "ReplayContext", "ReplayFault", "ReplayOutput", "ReplaySpace",
    "replay_fabric",
    "build_program", "clear_program_cache", "program_for_plan",
    "program_for_workload", "record_stats", "split_chunks", "stream_for_ops",
    "TierUnavailable", "mp_replay_blockers", "replay_multiprocess",
    "replay_svm", "svm_replay_blockers",
]
