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

Tier selection lives in one place, the harness (``run_svm(...,
tier=...)``), and both tiers run a point through the same lifecycle,
:meth:`~repro.core.synthesis.SynthesizedSystem.launch`.  This package
answers "can this run replay?" (:func:`svm_replay_blockers` /
:func:`mp_replay_blockers`) and supplies the replayed fabric side:
:func:`replay_start` over a :class:`ReplayContext` and a program from
:func:`program_for_workload` / :func:`program_for_plan`, with
:func:`replay_space` for each address space and :class:`SliceFeed` to feed
an adaptive scheduler's slices.  A single-process replay is kept for its
capacity class with the trace of its TLB's operations and their outcomes,
and serves every later point of the class whose TLB would give each of
those outcomes (:func:`repro.fastpath.record.served_result`).
"""

from .engine import (ReplayContext, ReplayFault, ReplayOutput, ReplaySpace,
                     replay_fabric)
from .record import (build_program, clear_program_cache, program_for_plan,
                     program_for_workload, record_stats, split_chunks)
from .replay import (SliceFeed, TierUnavailable, mp_replay_blockers,
                     replay_space, replay_start, svm_replay_blockers)

__all__ = [
    "ReplayContext", "ReplayFault", "ReplayOutput", "ReplaySpace",
    "replay_fabric",
    "build_program", "clear_program_cache", "program_for_plan",
    "program_for_workload", "record_stats", "split_chunks",
    "SliceFeed", "TierUnavailable", "mp_replay_blockers", "replay_space",
    "replay_start", "svm_replay_blockers",
]
