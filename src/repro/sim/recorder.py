"""Op-stream recording: the *record* half of the two-tier execution seam.

A :class:`TraceRecorder` captures the operation stream a kernel generator
produces — op kind, virtual address, byte count, write flag, issue-gap
(compute) cycles — as one ``(kind, addr, size, is_write, cycles)`` row per
operation.  A recorded stream is the whole timing-free content of a kernel:
the hardware thread model consumes the operations in program order, so one
recording replays deterministically through any timing model (the
event-driven simulator or the :mod:`repro.fastpath` replay engine).

Two capture modes exist:

* **functional** (:meth:`TraceRecorder.capture`): drain a kernel generator
  directly, without building a simulation.  This is how the replay tier
  records a workload's stream once per shape.
* **live** (:meth:`MemoryInterface.attach_recorder
  <repro.hwthread.memif.MemoryInterface>`): the memory interface feeds every
  submitted operation to an attached recorder during an event-tier run, so a
  stream can be captured from a real simulation and compared against the
  functional recording (the memory interface sees exactly the memory
  operations, in program order, so the live recording must equal the
  functional recording's ``KIND_MEM`` rows — a test pins this).

Rows are plain tuples of Python ints and bools: the replay tier lowers them
straight into engine ops (:func:`repro.fastpath.record.build_program`), and
two recordings of the same stream compare equal with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .process import Access, Burst, Compute, Fence, Operation, Yield

#: Recorded op kinds (the first field of a :attr:`RecordedStream.rows` row).
KIND_COMPUTE = 0
KIND_MEM = 1
KIND_FENCE = 2
KIND_YIELD = 3
#: Process-boundary marker used by multi-process slice programs (never
#: produced by :meth:`TraceRecorder.capture`; the fastpath planner emits it).
KIND_SWITCH = 4

#: One recorded operation: ``(kind, addr, size, is_write, cycles)``.
Row = Tuple[int, int, int, bool, int]


class UnrecordableOperation(TypeError):
    """A kernel yielded an operation the recorder cannot represent."""


@dataclass(frozen=True)
class RecordedStream:
    """One kernel's operation stream as ``(kind, addr, size, is_write,
    cycles)`` rows.

    The kind selects the row's meaning: a ``KIND_MEM`` row's ``addr``/
    ``size``/``is_write`` describe the virtual byte range touched (a
    ``Burst`` is recorded by its total footprint — the memory interface
    re-derives the page/burst chunking, so the two encodings are
    equivalent); a ``KIND_COMPUTE`` row's ``cycles`` holds the issue gap.
    Fence/yield rows carry no payload, and a ``KIND_SWITCH`` row's ``addr``
    holds the process index.
    """

    rows: Tuple[Row, ...]

    @property
    def num_ops(self) -> int:
        return len(self.rows)


class TraceRecorder:
    """Accumulates one thread's operation stream as rows."""

    def __init__(self) -> None:
        self.rows: List[Row] = []

    def on_op(self, op: Operation) -> None:
        """Record one operation (the live memif hook and capture both land here)."""
        if isinstance(op, Burst):
            self.rows.append((KIND_MEM, op.addr, op.total_bytes, op.is_write, 0))
        elif isinstance(op, Access):
            self.rows.append((KIND_MEM, op.addr, op.size, op.is_write, 0))
        elif isinstance(op, Compute):
            self.rows.append((KIND_COMPUTE, 0, 0, False, op.cycles))
        elif isinstance(op, Fence):
            self.rows.append((KIND_FENCE, 0, 0, False, 0))
        elif isinstance(op, Yield):
            self.rows.append((KIND_YIELD, 0, 0, False, 0))
        else:
            raise UnrecordableOperation(
                f"cannot record operation {op!r}; recordable kinds are "
                "Compute/Access/Burst/Fence/Yield")

    def finish(self) -> RecordedStream:
        """Freeze the accumulated rows into a :class:`RecordedStream`."""
        return RecordedStream(tuple(self.rows))

    @classmethod
    def capture(cls, ops: Iterable[Operation]) -> RecordedStream:
        """Functionally record an operation iterable (kernel generator or list)."""
        recorder = cls()
        for op in ops:
            recorder.on_op(op)
        return recorder.finish()
