"""Tests for the parallel, memoized sweep-execution engine."""

import os
import time

import pytest

from repro.core.platform import PlatformConfig
from repro.eval.harness import HarnessConfig
from repro.exec import MemoCache, SweepRunner, default_cache, stable_key
from repro.exec.keys import canonical
from repro.workloads import workload


def square(x):
    return x * x


def double(x):
    return 2 * x


# ---------------------------------------------------------------------------
# Stable keys
# ---------------------------------------------------------------------------
def test_stable_key_is_deterministic_for_dataclasses():
    spec = workload("vecadd", scale="tiny")
    config = HarnessConfig(tlb_entries=32)
    assert stable_key(spec, config) == stable_key(spec, config)


def test_stable_key_distinguishes_different_configs():
    spec = workload("vecadd", scale="tiny")
    a = stable_key(spec, HarnessConfig(tlb_entries=16))
    b = stable_key(spec, HarnessConfig(tlb_entries=32))
    assert a != b


def test_stable_key_covers_nested_config_fields():
    spec = workload("vecadd", scale="tiny")
    a = stable_key(spec, HarnessConfig(platform=PlatformConfig(page_size=4096)))
    b = stable_key(spec, HarnessConfig(platform=PlatformConfig(page_size=16384)))
    assert a != b


def test_stable_key_distinguishes_functions():
    assert stable_key(square, 3) != stable_key(double, 3)


def test_stable_key_rejects_local_closures():
    captured = 42

    def local_fn(x):
        return x + captured

    with pytest.raises(TypeError):
        stable_key(local_fn, 1)
    with pytest.raises(TypeError):
        stable_key(lambda x: x, 1)


def test_canonical_dict_order_does_not_matter():
    assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# MemoCache
# ---------------------------------------------------------------------------
def test_memo_cache_counts_hits_and_misses():
    cache = MemoCache()
    assert cache.get("k") is None
    cache.put("k", 123)
    assert cache.get("k") == 123
    assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
    cache.clear()
    assert len(cache) == 0


def test_default_cache_is_process_global():
    assert default_cache() is default_cache()


# ---------------------------------------------------------------------------
# SweepRunner
# ---------------------------------------------------------------------------
def test_serial_map_preserves_order():
    runner = SweepRunner(jobs=1)
    assert runner.map(square, [3, 1, 2]) == [9, 1, 4]


def test_parallel_map_matches_serial():
    items = list(range(12))
    serial = SweepRunner(jobs=1).map(square, items)
    parallel = SweepRunner(jobs=4).map(square, items)
    assert parallel == serial


def spin(n):
    """CPU-bound busy work: a pure-Python loop of ``n`` steps."""
    total = 0
    for i in range(n):
        total += i % 7
    return total


# Real speedup needs real cores: armed only with at least 4 CPUs, and never
# inside a pytest-xdist worker, where other tests share those cores.
@pytest.mark.skipif((os.cpu_count() or 1) < 4
                    or "PYTEST_XDIST_WORKER" in os.environ,
                    reason="needs 4 CPUs not shared with other tests")
def test_process_pool_halves_cpu_bound_wall_time():
    items = [700_000 + i for i in range(16)]   # serial map: ~0.8 s
    started = time.perf_counter()
    serial = SweepRunner(jobs=1).map(spin, items)
    serial_s = time.perf_counter() - started
    runner = SweepRunner(jobs=4)
    started = time.perf_counter()
    parallel = runner.map(spin, items)
    parallel_s = time.perf_counter() - started
    assert parallel == serial
    assert runner.stats.parallel_batches == 1
    assert parallel_s * 2 <= serial_s


def test_unpicklable_function_falls_back_to_serial():
    offset = 10
    runner = SweepRunner(jobs=4)

    def local_fn(x):
        return x + offset

    assert runner.map(local_fn, [1, 2, 3]) == [11, 12, 13]
    assert runner.stats.serial_batches == 1
    assert runner.stats.parallel_batches == 0


def test_cache_dedupes_within_one_call():
    runner = SweepRunner(jobs=1, cache=MemoCache())
    calls = runner.map(square, [5, 5, 5, 6])
    assert calls == [25, 25, 25, 36]
    assert runner.stats.points_executed == 2     # 5 and 6 evaluated once each
    assert runner.stats.cache_hits == 2


def test_cache_reuses_across_calls_and_runners():
    cache = MemoCache()
    first = SweepRunner(jobs=1, cache=cache)
    first.map(square, [1, 2, 3])
    second = SweepRunner(jobs=1, cache=cache)
    assert second.map(square, [2, 3, 4]) == [4, 9, 16]
    assert second.stats.cache_hits == 2
    assert second.stats.points_executed == 1     # only 4 was fresh


def test_a_map_of_memo_hits_runs_no_batch():
    runner = SweepRunner(cache=MemoCache())
    runner.map(abs, [-1, -2])
    assert runner.map(abs, [-1, -2]) == [1, 2]
    assert runner.stats.serial_batches == 1      # the second map ran nothing
    assert runner.stats.points_executed == 2


def test_cache_is_keyed_by_function_not_just_input():
    cache = MemoCache()
    runner = SweepRunner(jobs=1, cache=cache)
    assert runner.map(square, [3]) == [9]
    assert runner.map(double, [3]) == [6]        # no stale cross-function hit


def test_no_cache_means_every_point_executes():
    runner = SweepRunner(jobs=1, cache=None)
    runner.map(square, [7, 7, 7])
    assert runner.stats.points_executed == 3
    assert runner.stats.cache_hits == 0


def test_timings_and_progress_are_recorded():
    lines = []
    runner = SweepRunner(jobs=1, progress=lines.append)
    runner.map(square, [1, 2], label="demo")
    runner.map(square, [3], label="demo")
    assert runner.timings["demo"] > 0.0
    assert len(lines) == 2 and "demo" in lines[0]
    assert "demo" in runner.summary()


def test_jobs_validation():
    with pytest.raises(ValueError):
        SweepRunner(jobs=0)
    assert SweepRunner(jobs=None).jobs >= 1


def test_unpicklable_later_item_falls_back_to_serial():
    # _picklable only samples the first item; a later unpicklable one must
    # still degrade to the serial path instead of raising out of map().
    runner = SweepRunner(jobs=2)
    items = [3, lambda: None]          # second item cannot cross a process
    assert runner.map(type, items) == [int, type(items[1])]
    assert runner.stats.serial_batches == 1


def _worker_only_unknown_model(arg):
    # Stand-in for a spawn/forkserver worker that lacks an execution model
    # registered after import time: raises only outside the parent process.
    import os

    from repro.models import UnknownModelError
    parent_pid, value = arg
    if os.getpid() != parent_pid:
        raise UnknownModelError("model registered only in the parent")
    return value * 2


def test_model_missing_in_workers_falls_back_to_serial():
    import os

    runner = SweepRunner(jobs=2)
    items = [(os.getpid(), 1), (os.getpid(), 2)]
    assert runner.map(_worker_only_unknown_model, items) == [2, 4]
    assert runner.stats.serial_batches == 1


# ---------------------------------------------------------------------------
# Eager failure propagation
# ---------------------------------------------------------------------------
def _fail_fast_or_sleep(x):
    import time

    if x == 0:
        raise RuntimeError("bad point")
    time.sleep(1.0)
    return x


def test_parallel_failure_propagates_eagerly():
    # One instantly failing point among slow ones: the pool must surface the
    # failure as soon as it completes instead of draining every sleeper.
    import time

    runner = SweepRunner(jobs=2)
    started = time.perf_counter()
    with pytest.raises(RuntimeError, match="bad point"):
        runner.map(_fail_fast_or_sleep, [0, 1, 2, 3])
    elapsed = time.perf_counter() - started
    # Serial would be ~3s; a drained pool ~2s.  Eager cancel leaves at most
    # the one sleeper that was already running.
    assert elapsed < 1.8
    assert runner.stats.failed_jobs == 1


def test_serial_failure_is_counted():
    runner = SweepRunner(jobs=1)
    with pytest.raises(RuntimeError):
        runner.map(_fail_fast_or_sleep, [0])
    assert runner.stats.failed_jobs == 1


def test_genuine_type_error_still_raises_after_serial_fallback():
    # TypeError is a pool-fallback trigger; a real TypeError from fn itself
    # must re-raise from the serial pass, and be counted as a failure.
    runner = SweepRunner(jobs=2)
    with pytest.raises(TypeError):
        runner.map(len, [1, 2])
    assert runner.stats.failed_jobs >= 1


# ---------------------------------------------------------------------------
# Summary surfaces
# ---------------------------------------------------------------------------
def test_summary_dict_mirrors_the_text_summary():
    runner = SweepRunner(jobs=1, cache=MemoCache())
    runner.map(square, [1, 2, 2], label="demo")
    data = runner.summary_dict()
    assert data["jobs"] == 1
    assert set(data["timings_s"]) == {"demo"}
    assert data["total_wall_s"] >= data["timings_s"]["demo"] - 1e-9
    assert data["stats"]["points_submitted"] == 3
    assert data["stats"]["points_executed"] == 2
    assert data["stats"]["cache_hits"] == 1
    assert data["stats"]["failed_jobs"] == 0
    assert data["stats"]["retries"] == 0
    assert data["cache"]["entries"] == 2
