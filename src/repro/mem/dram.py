"""Banked DRAM timing model.

The model captures the first-order effects that matter for the paper's
evaluation: row-buffer locality, per-bank serialisation, data-bus occupancy
proportional to the transfer size, and a fixed controller overhead.  It is a
closed-page/open-page hybrid: each bank keeps its last-open row; hits pay
``row_hit_latency``, conflicts pay ``row_miss_latency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..sim.component import Component
from ..sim.engine import Simulator
from .port import MemoryRequest


@dataclass(frozen=True)
class DRAMConfig:
    """Timing and geometry of the external DDR memory.

    Defaults approximate a DDR3-1066 part behind a lightweight FPGA memory
    controller, expressed in fabric clock cycles (100 MHz).
    """

    num_banks: int = 8
    row_bytes: int = 2048
    row_hit_latency: int = 18
    row_miss_latency: int = 38
    controller_latency: int = 6
    data_bus_bytes_per_cycle: int = 8
    write_latency_penalty: int = 2

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if self.row_bytes <= 0 or self.row_bytes & (self.row_bytes - 1):
            raise ValueError("row_bytes must be a positive power of two")
        if self.data_bus_bytes_per_cycle <= 0:
            raise ValueError("data_bus_bytes_per_cycle must be positive")


class DRAMModel(Component):
    """Event-driven banked DRAM with row-buffer state."""

    def __init__(self, sim: Simulator, config: DRAMConfig | None = None,
                 name: str = "dram"):
        super().__init__(sim, name)
        self.config = config or DRAMConfig()
        self._open_rows: list[int | None] = [None] * self.config.num_banks
        self._bank_free: list[int] = [0] * self.config.num_banks
        self._data_bus_free = 0

    # ------------------------------------------------------------ addressing
    def _bank_row(self, addr: int) -> tuple[int, int]:
        """``(bank, row)`` of an address: consecutive rows go to
        consecutive banks."""
        row, bank = divmod(addr // self.config.row_bytes, self.config.num_banks)
        return bank, row

    # ---------------------------------------------------------------- access
    def access(self, request: MemoryRequest) -> None:
        """Accept a request and schedule its completion."""
        cfg = self.config
        now = self.sim.now
        request.issue_cycle = now

        bank, row = self._bank_row(request.addr)

        start = max(now + cfg.controller_latency, self._bank_free[bank])

        if self._open_rows[bank] == row:
            access_latency = cfg.row_hit_latency
            self.count("row_hits")
        else:
            access_latency = cfg.row_miss_latency
            self._open_rows[bank] = row
            self.count("row_misses")

        # One transfer cycle at least: request sizes are positive.
        transfer_cycles = ((request.size + cfg.data_bus_bytes_per_cycle - 1)
                           // cfg.data_bus_bytes_per_cycle)

        data_start = max(start + access_latency, self._data_bus_free)
        finish = data_start + transfer_cycles
        if request.is_write:
            finish += cfg.write_latency_penalty
            self.count("writes")
            self.count("bytes_written", request.size)
        else:
            self.count("reads")
            self.count("bytes_read", request.size)

        self._bank_free[bank] = finish
        self._data_bus_free = data_start + transfer_cycles

        self.sample("latency", finish - now)
        self.count("requests")

        self.schedule(finish - now, partial(request.complete, finish))

    # ------------------------------------------------------------------ info
    @property
    def total_bytes_transferred(self) -> int:
        return (self.stats.counter_value("bytes_read")
                + self.stats.counter_value("bytes_written"))

    def utilisation(self, elapsed_cycles: int) -> float:
        """Fraction of peak bandwidth used over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        peak = elapsed_cycles * self.config.data_bus_bytes_per_cycle
        return min(1.0, self.total_bytes_transferred / peak)
