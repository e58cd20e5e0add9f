"""Unit tests for the banked DRAM model."""

import pytest

from repro.mem.dram import DRAMConfig, DRAMModel
from repro.mem.port import MemoryRequest
from repro.sim.engine import Simulator


def make_dram(**overrides):
    sim = Simulator()
    config = DRAMConfig(**overrides) if overrides else DRAMConfig()
    return sim, DRAMModel(sim, config)


def issue(sim, dram, addr, size=4, is_write=False):
    done = []
    request = MemoryRequest(addr=addr, size=size, is_write=is_write,
                            callback=lambda r: done.append(r))
    dram.access(request)
    sim.run()
    assert len(done) == 1
    return done[0]


def test_single_read_latency_components():
    sim, dram = make_dram()
    request = issue(sim, dram, 0x1000, size=8)
    cfg = dram.config
    expected = cfg.controller_latency + cfg.row_miss_latency + 1
    assert request.latency == expected


def test_row_hit_is_faster_than_row_miss():
    sim, dram = make_dram()
    first = issue(sim, dram, 0x0)
    second = issue(sim, dram, 0x8)          # same row
    third = issue(sim, dram, 0x100000)      # different row, same bank eventually
    assert second.latency < first.latency
    assert dram.stats.counter("row_hits").value >= 1
    assert dram.stats.counter("row_misses").value >= 2


def test_write_has_extra_penalty():
    sim, dram = make_dram()
    read = issue(sim, dram, 0x0)
    sim2, dram2 = make_dram()
    write = issue(sim2, dram2, 0x0, is_write=True)
    assert write.latency == read.latency + dram2.config.write_latency_penalty


def test_large_transfer_occupies_data_bus_longer():
    sim, dram = make_dram()
    small = issue(sim, dram, 0x0, size=8)
    sim2, dram2 = make_dram()
    big = issue(sim2, dram2, 0x0, size=256)
    assert big.latency > small.latency
    extra_beats = 256 // dram2.config.data_bus_bytes_per_cycle - 1
    assert big.latency == small.latency + extra_beats


def test_same_bank_requests_serialise():
    sim, dram = make_dram()
    done = []
    for i in range(4):
        request = MemoryRequest(addr=0x0 + i * 8, size=8,
                                callback=lambda r: done.append(sim.now))
        dram.access(request)
    sim.run()
    assert len(done) == 4
    assert done == sorted(done)
    assert len(set(done)) == 4  # strictly increasing completion times


def test_different_banks_overlap():
    cfg = DRAMConfig()
    sim, dram = make_dram()
    row_bytes = cfg.row_bytes
    done = []
    # Two requests mapping to different banks can overlap their access phases.
    for addr in (0, row_bytes):
        assert dram._bank_row(0)[0] != dram._bank_row(row_bytes)[0]
        request = MemoryRequest(addr=addr, size=8,
                                callback=lambda r: done.append(sim.now))
        dram.access(request)
    sim.run()
    serial_time = 2 * (cfg.controller_latency + cfg.row_miss_latency + 1)
    assert max(done) < serial_time


def test_counters_track_bytes():
    sim, dram = make_dram()
    issue(sim, dram, 0x0, size=64)
    issue(sim, dram, 0x1000, size=32, is_write=True)
    assert dram.stats.counter("bytes_read").value == 64
    assert dram.stats.counter("bytes_written").value == 32
    assert dram.total_bytes_transferred == 96


def test_utilisation_bounded():
    sim, dram = make_dram()
    issue(sim, dram, 0x0, size=128)
    assert 0.0 < dram.utilisation(sim.now) <= 1.0
    assert dram.utilisation(0) == 0.0


def test_bank_mapping_is_stable():
    _, dram = make_dram()
    assert dram._bank_row(0x0)[0] == dram._bank_row(0x0)[0]
    banks = {dram._bank_row(i * dram.config.row_bytes)[0]
             for i in range(dram.config.num_banks)}
    assert len(banks) == dram.config.num_banks


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        DRAMConfig(num_banks=0)
    with pytest.raises(ValueError):
        DRAMConfig(row_bytes=1000)   # not a power of two
    with pytest.raises(ValueError):
        DRAMConfig(data_bus_bytes_per_cycle=0)


def test_invalid_request_rejected():
    with pytest.raises(ValueError):
        MemoryRequest(addr=-1)
    with pytest.raises(ValueError):
        MemoryRequest(addr=0, size=0)
