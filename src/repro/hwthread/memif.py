"""Hardware-thread memory interface (the fabric side of the SVM path).

Each hardware thread owns a memory interface that accepts *virtual* address
operations from the kernel datapath, translates them through the thread's
MMU, splits bursts that cross page boundaries, and issues the resulting
physical transactions to the thread's bus port.

Two translation modes exist:

* ``mmu`` — the paper's design: every page touched goes through the TLB /
  walker / fault-delegation path, with the corresponding latencies.
* ``functional translator`` — a zero-latency callable (used by the *ideal*
  physically-addressed baseline and by the copy-DMA baseline, whose buffers
  are physically contiguous and pinned).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Union

from ..mem.port import MemoryRequest, MemoryTarget
from ..sim.component import Component
from ..sim.engine import Simulator
from ..sim.process import Access, Burst
from ..vm.mmu import MMU
from ..vm.types import AccessType, Translation


#: Completion callback: True when the operation retired normally, False when
#: it was aborted by an unresolvable translation fault.
OpCallback = Callable[[bool], None]

#: Zero-latency functional translator signature (vaddr -> paddr).
FunctionalTranslator = Callable[[int, AccessType], int]


def split_chunks(addr: int, size: int, is_write: bool, page_size: int,
                 limit: int) -> List[tuple[int, int, bool]]:
    """Split ``[addr, addr+size)`` at page and ``limit``-byte boundaries.

    ``limit`` is the pre-clamped ``min(max_burst_bytes, page_size)``.  The
    one chunking rule of both tiers: the memory interface splits each
    operation with it per run, the replay tier once per recorded stream.
    """
    chunks: List[tuple[int, int, bool]] = []
    remaining = size
    cursor = addr
    while remaining > 0:
        page_left = page_size - (cursor % page_size)
        chunk = min(remaining, page_left, limit)
        chunks.append((cursor, chunk, is_write))
        cursor += chunk
        remaining -= chunk
    return chunks


@dataclass(frozen=True)
class MemoryInterfaceConfig:
    """Fabric-side interface parameters."""

    max_burst_bytes: int = 256      # AXI-style burst split size
    issue_latency: int = 1          # cycles to issue a beat from the datapath

    def __post_init__(self) -> None:
        if self.max_burst_bytes <= 0:
            raise ValueError("max_burst_bytes must be positive")
        if self.issue_latency < 0:
            raise ValueError("issue_latency must be non-negative")


class MemoryInterface(Component):
    """Translates and issues one hardware thread's memory operations."""

    def __init__(self, sim: Simulator, bus_port: MemoryTarget,
                 mmu: Optional[MMU] = None,
                 translator: Optional[FunctionalTranslator] = None,
                 config: MemoryInterfaceConfig | None = None,
                 name: str = "memif"):
        super().__init__(sim, name)
        if mmu is None and translator is None:
            raise ValueError("memory interface needs an MMU or a functional translator")
        self.config = config or MemoryInterfaceConfig()
        self.bus_port = bus_port
        self.mmu = mmu
        self.translator = translator
        self.thread_name = name
        #: Optional live :class:`repro.sim.recorder.TraceRecorder`: when
        #: attached, every submitted operation is recorded as it retires
        #: through the event tier (used to cross-check functional captures).
        self.recorder = None

    def attach_recorder(self, recorder) -> None:
        """Record every operation submitted through this interface."""
        self.recorder = recorder

    # ------------------------------------------------------------ public API
    def submit(self, op: Union[Access, Burst], on_done: OpCallback) -> None:
        """Issue a virtual-address operation; ``on_done`` fires at retirement."""
        if self.recorder is not None:
            self.recorder.on_op(op)
        if isinstance(op, Access):
            size = op.size
        elif isinstance(op, Burst):
            size = op.total_bytes
        else:  # pragma: no cover - guarded by the thread model
            raise TypeError(f"unsupported memory operation {op!r}")
        chunks = self._split(op.addr, size, op.is_write)
        self.count("ops")
        # The chunks cover all ``size`` bytes (none if ``size <= 0``).
        self.count("bytes", max(size, 0))
        self._run_chunks(chunks, 0, on_done)

    # ----------------------------------------------------------- chunk logic
    def _split(self, vaddr: int, size: int, is_write: bool) -> List[tuple[int, int, bool]]:
        """Split [vaddr, vaddr+size) at page and max-burst boundaries."""
        page_size = self.mmu.page_size if self.mmu is not None else 4096
        return split_chunks(vaddr, size, is_write, page_size,
                            min(self.config.max_burst_bytes, page_size))

    def _run_chunks(self, chunks: List[tuple[int, int, bool]], index: int,
                    on_done: OpCallback) -> None:
        """Translate and issue chunks sequentially (one transaction at a time
        per datapath operation; pipelining across *operations* is handled by
        the hardware thread's outstanding-op window)."""
        if index >= len(chunks):
            on_done(True)
            return
        vaddr, _, is_write = chunks[index]
        access = AccessType.WRITE if is_write else AccessType.READ
        if self.mmu is not None:
            self.mmu.translate(
                vaddr, access,
                partial(self._on_translate, chunks, index, on_done),
                thread=self.thread_name)
        else:
            assert self.translator is not None
            self._issue(chunks, index, on_done, self.translator(vaddr, access))

    def _on_translate(self, chunks: List[tuple[int, int, bool]], index: int,
                      on_done: OpCallback,
                      translation: Optional[Translation]) -> None:
        if translation is None:
            self.count("aborted_ops")
            on_done(False)
            return
        self._issue(chunks, index, on_done, translation.paddr)

    def _issue(self, chunks: List[tuple[int, int, bool]], index: int,
               on_done: OpCallback, paddr: int) -> None:
        _, size, is_write = chunks[index]
        request = MemoryRequest(addr=paddr, size=size, is_write=is_write,
                                master=self.name, tag=(chunks, index, on_done),
                                callback=self._on_retired)
        self.count("transactions")
        self.schedule(self.config.issue_latency,
                      partial(self.bus_port.access, request))

    def _on_retired(self, request: MemoryRequest) -> None:
        chunks, index, on_done = request.tag
        self._run_chunks(chunks, index + 1, on_done)
