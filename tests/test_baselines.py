"""Unit tests for the software, copy-DMA and ideal baselines."""

import pytest

from repro.baselines.common import run_physically_addressed
from repro.baselines.copydma import CopyDMAAccelerator, CopyModelConfig
from repro.baselines.software import SoftwareCPU, SoftwareCPUConfig
from repro.core.platform import ClockConfig, Platform
from repro.hwthread.hls import schedule_for
from repro.sim.process import Access, Burst, Compute, Fence, run_functional
from repro.workloads import workload


# ------------------------------------------------------------------ software
def test_software_compute_scaled_by_schedule_and_cpi():
    cpu = SoftwareCPU(SoftwareCPUConfig(cycles_per_op=2.0,
                                        issue_cycles_per_element=0.0),
                      clocks=ClockConfig(fabric_mhz=100, host_mhz=100))
    schedule = schedule_for("vecadd")   # unroll 2, II 1, 1 op/item
    result = cpu.run_ops([Compute(100)], schedule=schedule)
    # 100 fabric cycles at 2 items/cycle * 1 op/item = 200 ops * 2 cpi = 400.
    assert result.host_cycles == 400
    assert result.fabric_cycles == 400   # 1:1 clock ratio


def test_software_clock_ratio_converts_to_fabric_cycles():
    cpu = SoftwareCPU(SoftwareCPUConfig(issue_cycles_per_element=0.0),
                      clocks=ClockConfig(fabric_mhz=100, host_mhz=800))
    result = cpu.run_ops([Compute(100)], schedule=schedule_for("vecadd"))
    assert result.fabric_cycles == pytest.approx(result.host_cycles / 8, abs=1)


def test_software_memory_cost_reflects_cache_behaviour():
    cpu = SoftwareCPU()
    streaming = cpu.run_ops([Burst(addr=i * 256, count=64, size=4)
                             for i in range(64)])
    assert streaming.l1_hit_rate > 0.8      # spatial locality within lines
    assert streaming.elements_accessed == 64 * 64


def test_software_random_accesses_cost_more_than_sequential():
    cpu = SoftwareCPU()
    sequential = cpu.run_ops([Access(addr=i * 4) for i in range(2048)])
    cpu2 = SoftwareCPU()
    random_like = cpu2.run_ops([Access(addr=(i * 7919 * 64) % (1 << 22))
                                for i in range(2048)])
    assert random_like.host_cycles > sequential.host_cycles


def test_software_fence_and_yield_are_free():
    cpu = SoftwareCPU()
    result = cpu.run_ops([Fence()])
    assert result.host_cycles == 0


def test_software_multithreaded_makespan_shorter_than_serial():
    cpu = SoftwareCPU()
    spec = workload("vecadd", scale="tiny")
    platform = Platform()
    streams = []
    for i in range(2):
        bound = workload("vecadd", scale="tiny").bind(platform.space) \
            if i == 0 else workload("saxpy", scale="tiny").bind(platform.space)
        streams.append(run_functional(bound.make_kernel()))
    single = cpu.run_threads(streams[:1])
    both = cpu.run_threads(streams)
    assert both.host_cycles < single.host_cycles * 2
    assert len(both.per_thread_host_cycles) == 2


def test_software_config_validation():
    with pytest.raises(ValueError):
        SoftwareCPUConfig(cycles_per_op=0)


# ------------------------------------------------------------------ ideal
def test_ideal_accelerator_runs_workload():
    platform = Platform()
    bound = workload("vecadd", scale="tiny").bind(platform.space)
    result = run_physically_addressed(platform, bound.make_kernel(),
                                      name="ideal")
    assert result.cycles > 0
    assert result.mem_bytes == bound.touched_bytes


def test_ideal_requires_resident_pages():
    platform = Platform()
    bound = workload("vecadd", scale="tiny", residency=0.0).bind(platform.space)
    with pytest.raises(KeyError):
        run_physically_addressed(platform, bound.make_kernel(), name="ideal")


# ------------------------------------------------------------------ copydma
def test_copydma_total_is_sum_of_phases():
    platform = Platform()
    bound = workload("saxpy", scale="tiny").bind(platform.space)
    result = CopyDMAAccelerator().run(platform, bound.make_kernel(),
                                      copy_in_bytes=bound.copy_in_bytes,
                                      copy_out_bytes=bound.copy_out_bytes)
    assert result.total_cycles == (result.alloc_cycles + result.copy_in_cycles
                                   + result.fabric_cycles + result.copy_out_cycles)
    assert result.marshalling_cycles == result.total_cycles - result.fabric_cycles


def test_copydma_copy_cost_scales_with_bytes():
    platform = Platform()
    bound = workload("saxpy", scale="tiny").bind(platform.space)
    small = CopyDMAAccelerator().run(platform, bound.make_kernel(),
                                     copy_in_bytes=4096, copy_out_bytes=0)
    platform2 = Platform()
    bound2 = workload("saxpy", scale="tiny").bind(platform2.space)
    large = CopyDMAAccelerator().run(platform2, bound2.make_kernel(),
                                     copy_in_bytes=4 * 1024 * 1024,
                                     copy_out_bytes=0)
    assert large.copy_in_cycles > small.copy_in_cycles * 10


def test_copydma_marshalling_items_add_cost():
    platform = Platform()
    bound = workload("linked_list", scale="tiny").bind(platform.space)
    plain = CopyDMAAccelerator().run(platform, bound.make_kernel(),
                                     copy_in_bytes=bound.copy_in_bytes,
                                     copy_out_bytes=0, marshal_items=0)
    platform2 = Platform()
    bound2 = workload("linked_list", scale="tiny").bind(platform2.space)
    marshalled = CopyDMAAccelerator().run(platform2, bound2.make_kernel(),
                                          copy_in_bytes=bound2.copy_in_bytes,
                                          copy_out_bytes=0,
                                          marshal_items=bound2.marshal_items)
    assert marshalled.copy_in_cycles > plain.copy_in_cycles


def test_copydma_zero_copy_bytes_are_free():
    platform = Platform()
    bound = workload("vecadd", scale="tiny").bind(platform.space)
    result = CopyDMAAccelerator().run(platform, bound.make_kernel(),
                                      copy_in_bytes=0, copy_out_bytes=0)
    assert result.copy_in_cycles == 0
    assert result.copy_out_cycles == 0


def test_copydma_rejects_negative_sizes():
    platform = Platform()
    bound = workload("vecadd", scale="tiny").bind(platform.space)
    with pytest.raises(ValueError):
        CopyDMAAccelerator().run(platform, bound.make_kernel(),
                                 copy_in_bytes=-1, copy_out_bytes=0)


def test_copy_model_config_validation():
    with pytest.raises(ValueError):
        CopyModelConfig(copy_bytes_per_host_cycle=0)
    with pytest.raises(ValueError):
        CopyModelConfig(marshal_host_cycles_per_item=-1)


# ------------------------------------------------------------------ clocks
def test_clock_conversion_rounds_up():
    clocks = ClockConfig(fabric_mhz=100, host_mhz=667)
    assert clocks.host_to_fabric(0) == 0
    assert clocks.host_to_fabric(667) == 100
    assert clocks.host_to_fabric(1) == 1
    with pytest.raises(ValueError):
        clocks.host_to_fabric(-5)
    with pytest.raises(ValueError):
        ClockConfig(fabric_mhz=0)
