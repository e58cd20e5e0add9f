"""Tests for the broker-backed DistributedRunner behind the runner seam."""

import sqlite3
from collections import Counter

import pytest

from repro.dist import (DistributedJobError, DistributedRunner, SQLiteBroker)
from repro.eval.harness import HarnessConfig
from repro.eval.sweep import Grid, SweepOutcomes
from repro.exec import ExperimentJob, MemoCache, SweepRunner, run_job
from repro.workloads import workload


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * x


def _fig5_jobs(entries=(8, 16, 32), kernels=("vecadd", "matmul")):
    """A Fig. 5-class grid: TLB size sweep across kernels."""
    return [ExperimentJob("svm", workload(kernel, scale="tiny"),
                          HarnessConfig(tlb_entries=e))
            for kernel in kernels for e in entries]


@pytest.fixture()
def broker(tmp_path):
    broker = SQLiteBroker(tmp_path / "broker.db")
    yield broker
    broker.close()


# ---------------------------------------------------------------------------
# Bit-identical results through the runner seam
# ---------------------------------------------------------------------------
def test_drain_only_sweep_matches_serial(broker):
    jobs = _fig5_jobs()
    serial = SweepRunner(jobs=1).map(run_job, jobs)
    runner = DistributedRunner(broker, workers=0, cache=MemoCache(),
                               drain=True)
    assert runner.map(run_job, jobs) == serial
    assert runner.stats.points_submitted == len(jobs)
    assert runner.stats.points_executed == len(jobs)
    assert runner.stats.failed_jobs == 0
    assert sum(runner.stats.tier_counts.values()) == len(jobs)
    assert "run_job" in runner.timings


def test_sweep_api_accepts_distributed_runner(broker):
    grid = Grid(kernel=("vecadd",), tlb_entries=(8, 16))
    build = lambda kernel, tlb_entries: ExperimentJob(  # noqa: E731
        "svm", workload(kernel, scale="tiny"),
        HarnessConfig(tlb_entries=tlb_entries))
    serial = grid.sweep(build, label="fig5").run()
    distributed = grid.sweep(build, label="fig5").run(
        DistributedRunner(broker, cache=MemoCache()))
    assert distributed.outcomes() == serial.outcomes()
    assert distributed.axes() == serial.axes()


def test_run_stream_yields_every_point_once(broker):
    grid = Grid(kernel=("vecadd",), tlb_entries=(8, 16, 32))
    build = lambda kernel, tlb_entries: ExperimentJob(  # noqa: E731
        "svm", workload(kernel, scale="tiny"),
        HarnessConfig(tlb_entries=tlb_entries))
    sweep = grid.sweep(build, label="fig5")
    expected = grid.sweep(build, label="fig5").run()

    pairs = list(sweep.run_stream(DistributedRunner(broker,
                                                    cache=MemoCache())))
    assert len(pairs) == 3
    rebuilt = SweepOutcomes([p for p, _ in pairs], [r for _, r in pairs])
    for coords, outcome in expected.items():
        assert rebuilt.get(**coords) == outcome


def test_run_stream_works_with_plain_runner():
    grid = Grid(kernel=("vecadd",), tlb_entries=(8, 16))
    build = lambda kernel, tlb_entries: ExperimentJob(  # noqa: E731
        "svm", workload(kernel, scale="tiny"),
        HarnessConfig(tlb_entries=tlb_entries))
    pairs = list(grid.sweep(build).run_stream(SweepRunner(jobs=1)))
    expected = grid.sweep(build).run()
    assert [r for _, r in pairs] == expected.outcomes()


# ---------------------------------------------------------------------------
# Fleet-wide memo store
# ---------------------------------------------------------------------------
def test_shared_disk_cache_serves_repeat_runs(tmp_path):
    jobs = _fig5_jobs(entries=(8, 16), kernels=("vecadd",))
    cache_dir = tmp_path / "fleet-cache"

    first_broker = SQLiteBroker(tmp_path / "b1.db")
    first = DistributedRunner(first_broker, cache=MemoCache(path=cache_dir))
    baseline = first.map(run_job, jobs)
    first_broker.close()
    assert first.stats.points_executed == len(jobs)

    # A different runner, a *fresh* broker: only the shared cache persists.
    second_broker = SQLiteBroker(tmp_path / "b2.db")
    second = DistributedRunner(second_broker,
                               cache=MemoCache(path=cache_dir))
    assert second.map(run_job, jobs) == baseline
    second_broker.close()
    assert second.stats.points_executed == 0
    assert second.stats.cache_hits == len(jobs)


def test_broker_result_table_serves_repeat_submissions(broker):
    """Even cache-less repeats dedup through the broker's result table."""
    jobs = _fig5_jobs(entries=(8,), kernels=("vecadd",))
    first = DistributedRunner(broker, cache=MemoCache())
    baseline = first.map(run_job, jobs)

    second = DistributedRunner(broker, cache=MemoCache())
    assert second.map(run_job, jobs) == baseline
    assert second.stats.points_executed == 0
    assert second.stats.cache_hits == len(jobs)


class _PutCountingMemo(MemoCache):
    """An in-memory memo that counts its writes per key."""

    def __init__(self):
        super().__init__()
        self.puts = Counter()

    def put(self, key, value):
        self.puts[key] += 1
        super().put(key, value)


def test_drained_jobs_are_written_to_the_memo_once(broker):
    memo = _PutCountingMemo()
    runner = DistributedRunner(broker, cache=memo)
    assert runner.map(square, range(12)) == [i * i for i in range(12)]
    assert runner.stats.points_executed == 12
    assert len(memo.puts) == 12 and set(memo.puts.values()) == {1}


def test_duplicate_items_execute_once(broker):
    job = _fig5_jobs(entries=(8,), kernels=("vecadd",))[0]
    other = _fig5_jobs(entries=(16,), kernels=("vecadd",))[0]
    runner = DistributedRunner(broker, cache=MemoCache())
    results = runner.map(run_job, [job, job, other])
    assert results[0] == results[1]
    assert runner.stats.points_executed == 2
    assert runner.stats.cache_hits == 1


# ---------------------------------------------------------------------------
# Failure semantics
# ---------------------------------------------------------------------------
def test_failed_job_raises_eagerly_and_cancels_sweep(broker):
    runner = DistributedRunner(broker, cache=MemoCache())
    with pytest.raises(DistributedJobError) as excinfo:
        runner.map(fail_on_three, [1, 2, 3, 4, 5])
    assert "three is right out" in str(excinfo.value)
    assert runner.stats.failed_jobs == 1

    (status,) = [s for s in broker.sweeps()]
    assert status["sweep_cancelled"]
    assert status["failed"] >= 1

    # The runner stays usable for the next sweep.
    assert runner.map(square, [2, 4]) == [4, 16]


def test_unkeyable_fn_falls_back_to_local_evaluation(broker):
    runner = DistributedRunner(broker, cache=MemoCache())
    assert runner.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
    assert runner.stats.serial_batches == 1      # local fallback path
    assert broker.sweeps() == []                 # nothing reached the broker


def test_timeout_bounds_a_stalled_sweep(broker):
    """With no workers and no drain, an unserved sweep times out."""
    runner = DistributedRunner(broker, cache=MemoCache(), drain=False,
                               poll_interval=0.01, timeout=0.2)
    with pytest.raises(TimeoutError):
        runner.map(square, [1, 2])


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------
class _CrashStagingBroker(SQLiteBroker):
    """Leases the first job to a worker that immediately 'dies'.

    After every ``create_sweep`` the first job is claimed by a phantom
    worker and the clock is advanced past its lease — exactly the state a
    real crash leaves behind — so whoever drains next must recover it.
    """

    def __init__(self, path, clock):
        super().__init__(path, lease_seconds=10.0, clock=clock)
        self._staging = False

    def create_sweep(self, items, label="sweep", spec=None, memo=None):
        ticket = super().create_sweep(items, label=label, spec=spec,
                                      memo=memo)
        if not self._staging:
            self._staging = True
            try:
                if self.claim("phantom-crash") is not None:
                    self.clock.advance(11.0)     # let the lease lapse
            finally:
                self._staging = False
        return ticket


class _AdvancingClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_crashed_worker_job_is_reexecuted_bit_identically(tmp_path):
    clock = _AdvancingClock()
    broker = _CrashStagingBroker(tmp_path / "crash.db", clock)
    jobs = _fig5_jobs(entries=(8, 16), kernels=("vecadd",))
    serial = SweepRunner(jobs=1).map(run_job, jobs)

    runner = DistributedRunner(broker, cache=MemoCache(), drain=True)
    assert runner.map(run_job, jobs) == serial
    broker.close()
    # The crashed job was claimed twice: once by the phantom, once by the
    # recovering drain loop.
    assert runner.stats.retries == 1


def test_kill_one_of_two_workers_mid_sweep_stays_bit_identical(tmp_path):
    """The acceptance scenario: 2 real workers, one SIGKILLed mid-run."""
    jobs = _fig5_jobs(entries=(4, 8, 16, 32), kernels=("vecadd", "matmul"))
    serial = SweepRunner(jobs=1).map(run_job, jobs)

    broker = SQLiteBroker(tmp_path / "fleet.db", lease_seconds=0.5)
    runner = DistributedRunner(broker, workers=2,
                               cache=MemoCache(path=tmp_path / "cache"),
                               drain=True, lease_seconds=0.5,
                               timeout=120.0)
    results = [None] * len(jobs)
    stream = runner.map_stream(run_job, jobs)
    position, value = next(stream)               # fleet is live
    results[position] = value
    victims = [p for p in runner.worker_processes if p.is_alive()]
    if victims:                                  # kill one mid-sweep
        victims[0].kill()
    for position, value in stream:
        results[position] = value
    broker.close()
    assert results == serial


def test_spawned_workers_are_reaped_after_map(tmp_path):
    broker = SQLiteBroker(tmp_path / "b.db", lease_seconds=5.0)
    runner = DistributedRunner(broker, workers=1,
                               cache=MemoCache(path=tmp_path / "cache"),
                               drain=True, timeout=120.0)
    jobs = _fig5_jobs(entries=(8,), kernels=("vecadd",))
    runner.map(run_job, jobs)
    broker.close()
    assert runner.worker_processes == []


# ---------------------------------------------------------------------------
# Summary surface
# ---------------------------------------------------------------------------
def test_summary_includes_distributed_line(broker):
    runner = DistributedRunner(broker, cache=MemoCache())
    runner.map(square, [1, 2])
    text = runner.summary()
    assert "distributed:" in text and "drain=True" in text
    data = runner.summary_dict()
    assert data["stats"]["points_executed"] == 2
    assert data["stats"]["retries"] == 0


def test_runner_rejects_negative_workers(broker):
    with pytest.raises(ValueError):
        DistributedRunner(broker, workers=-1)


def test_path_broker_is_constructed_on_demand(tmp_path):
    runner = DistributedRunner(tmp_path / "auto.db", cache=MemoCache())
    assert runner.map(square, [3]) == [9]
    assert isinstance(runner.broker, SQLiteBroker)
    runner.broker.close()


def test_runner_closes_the_broker_it_opened(tmp_path):
    with DistributedRunner(tmp_path / "own.db", cache=MemoCache()) as runner:
        assert runner.map(square, [3]) == [9]
    with pytest.raises(sqlite3.ProgrammingError):
        runner.broker.sweeps()                   # closed on exit


def test_runner_leaves_a_passed_in_broker_open(broker):
    with DistributedRunner(broker, cache=MemoCache()) as runner:
        runner.map(square, [3])
    assert len(broker.sweeps()) == 1             # still the caller's


# ---------------------------------------------------------------------------
# Persistent results store through the distributed seam
# ---------------------------------------------------------------------------
def test_distributed_runner_records_to_results_store(broker, tmp_path):
    from repro.exec.keys import stable_key
    from repro.store import ResultsStore

    store = ResultsStore(tmp_path / "results.db", sha="feed" * 3)
    jobs = _fig5_jobs(entries=(8, 16), kernels=("vecadd",))
    coords = [{"tlb_entries": 8}, {"tlb_entries": 16}]
    runner = DistributedRunner(broker, cache=MemoCache(), results=store)
    outcomes = runner.map(run_job, jobs, label="fig5", coords=coords)

    rows = store.query(experiment="fig5")
    assert len(rows) == 2
    assert [row["tlb_entries"] for row in rows] == [8, 16]
    assert [row["total_cycles"] for row in rows] == [o.total_cycles
                                                     for o in outcomes]
    assert all(row["kernel"] == "vecadd" for row in rows)
    # Stored values adopt into a fresh sweep without any execution.
    for job, outcome in zip(jobs, outcomes):
        assert store.get_value(stable_key(run_job, job)) == outcome


def test_distributed_runner_adopts_results_store_rows(tmp_path):
    """A cold cache plus a warm store: every point resolves at enqueue."""
    from repro.store import ResultsStore

    store = ResultsStore(tmp_path / "results.db", sha="feed" * 3)
    jobs = _fig5_jobs(entries=(8, 16), kernels=("vecadd",))
    serial = SweepRunner(jobs=1, results=store).map(run_job, jobs,
                                                    label="seed")

    fresh_broker = SQLiteBroker(tmp_path / "fresh.db")
    try:
        runner = DistributedRunner(fresh_broker, cache=MemoCache(),
                                   results=store)
        assert runner.map(run_job, jobs, label="fig5") == serial
        assert runner.stats.points_executed == 0
        assert runner.stats.cache_hits == len(jobs)
    finally:
        fresh_broker.close()
