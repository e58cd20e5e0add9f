"""Unit tests for statistics collection."""

import pytest

from repro.sim.stats import (
    Accumulator,
    Counter,
    Histogram,
    Scalar,
    StatsRegistry,
    merge_snapshots,
)


def test_counter_increments_and_resets():
    counter = Counter("hits")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0


def test_scalar_set():
    scalar = Scalar("cycles")
    scalar.set(123.0)
    assert scalar.value == 123.0


def test_accumulator_tracks_mean_min_max():
    acc = Accumulator("latency")
    for sample in (10, 20, 30):
        acc.add(sample)
    assert acc.count == 3
    assert acc.mean == pytest.approx(20.0)
    assert acc.minimum == 10
    assert acc.maximum == 30


def test_accumulator_empty_mean_is_zero():
    assert Accumulator("x").mean == 0.0


def test_histogram_buckets_power_of_two():
    hist = Histogram("lat")
    for sample in (0, 1, 2, 3, 4, 100):
        hist.add(sample)
    assert hist.count == 6
    buckets = hist.as_dict()
    assert sum(buckets.values()) == 6


def test_histogram_rejects_negative():
    with pytest.raises(ValueError):
        Histogram("x").add(-1)


def test_stat_group_snapshot_flattens_all_kinds():
    registry = StatsRegistry()
    group = registry.group("dram")
    group.counter("reads").inc(3)
    group.scalar("cycles").set(99)
    group.accumulator("latency").add(10)
    group.accumulator("latency").add(30)
    snap = group.snapshot()
    assert snap["reads"] == 3
    assert snap["cycles"] == 99
    assert snap["latency.mean"] == pytest.approx(20.0)
    assert snap["latency.count"] == 2


def test_registry_snapshot_prefixes_owner():
    registry = StatsRegistry()
    registry.group("bus").counter("requests").inc(7)
    registry.group("tlb").counter("hits").inc(2)
    snap = registry.snapshot()
    assert snap["bus.requests"] == 7
    assert snap["tlb.hits"] == 2


def test_registry_query_by_prefix():
    registry = StatsRegistry()
    registry.group("mmu.t0").counter("hits").inc(1)
    registry.group("mmu.t1").counter("hits").inc(2)
    registry.group("dram").counter("reads").inc(3)
    result = registry.query("mmu.")
    assert set(result) == {"mmu.t0.hits", "mmu.t1.hits"}


def test_registry_reset_clears_values():
    registry = StatsRegistry()
    registry.group("a").counter("x").inc(5)
    registry.reset()
    assert registry.snapshot()["a.x"] == 0


def test_group_is_reused_per_owner():
    registry = StatsRegistry()
    first = registry.group("x")
    second = registry.group("x")
    assert first is second


def test_merge_snapshots_collects_values():
    merged = merge_snapshots([{"a": 1, "b": 2}, {"a": 3}])
    assert merged == {"a": [1, 3], "b": [2]}


def test_counter_value_reads_without_creating_the_counter():
    group = StatsRegistry().group("dram")
    assert group.counter_value("bytes_written") == 0
    assert group.snapshot() == {}
    group.counter("bytes_written").inc(8)
    assert group.counter_value("bytes_written") == 8


def test_stat_readers_leave_later_snapshots_unchanged():
    # A counter appears in a snapshot only once incremented (both tiers rely
    # on it); reading a derived figure must not add a zero counter.
    from repro.eval.harness import HarnessConfig, _build_svm_system
    from repro.workloads.suite import workload

    platform, system, bound = _build_svm_system(
        workload("linked_list", scale="tiny"), HarnessConfig(), 1)
    system.run({"hwt0": bound[0].make_kernel()})
    before = platform.snapshot()
    assert "dram.bytes_written" not in before
    elapsed = platform.sim.now
    assert platform.dram.utilisation(elapsed) > 0
    assert platform.dram.total_bytes_transferred > 0
    assert platform.bus.utilisation(elapsed) > 0
    assert platform.kernel.fault_handler(platform.process_name).faults_resolved == 0
    assert platform.snapshot() == before
