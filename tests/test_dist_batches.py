"""Batched claims and completions, over both broker backends.

``claim_many``/``complete_many`` are the fleet's hot path: a worker asks for
``MAX_CLAIM_BATCH`` jobs and the broker grants at most its fair share of the
runnable queue.  These tests pin the cap rule, the per-batch guarantees
(distinct keys, idempotent first-result-wins completion, partial failure,
one heartbeat thread for the whole batch), the request budget of an HTTP
drain, and exclusivity under many processes claiming from one SQLite file.
"""

import http.client
import json
import multiprocessing
import os
import pickle
import sys
import threading
import time
from collections import Counter

import pytest

from repro.dist import (BrokerServer, DistributedJobError, DistributedRunner,
                        HTTPBroker, SQLiteBroker, Worker, WorkItem)
from repro.dist.broker import FAIR_SHARE
from repro.dist.worker import MAX_CLAIM_BATCH
from repro.exec import MemoCache


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"boom on {x}")


def echo(x):
    return x


def nap(x):
    time.sleep(0.3)
    return x


def returns_lambda(x):
    return lambda: x


def _items(n, fn=square, prefix="k"):
    return [WorkItem(key=f"{prefix}{i}", payload=pickle.dumps((fn, i)))
            for i in range(n)]


@pytest.fixture(params=["sqlite", "http"])
def broker(request, tmp_path):
    backend = SQLiteBroker(tmp_path / "broker.db", lease_seconds=10.0,
                           clock=FakeClock())
    if request.param == "sqlite":
        yield backend
        backend.close()
        return
    server = BrokerServer(backend).start()
    try:
        with HTTPBroker(server.url, retries=2,
                        backoff_seconds=0.01) as client:
            yield client
    finally:
        server.close()
        backend.close()


# ---------------------------------------------------------------------------
# The fair-share cap
# ---------------------------------------------------------------------------
def test_claim_is_capped_at_a_fair_share_of_the_queue(broker):
    assert FAIR_SHARE == 4 and MAX_CLAIM_BATCH == 16
    broker.create_sweep(_items(4, prefix="small"))
    assert len(broker.claim_many("w1", MAX_CLAIM_BATCH)) == 1   # ceil(4/4)
    assert len(broker.claim_many("w2", MAX_CLAIM_BATCH)) == 1   # ceil(3/4)


def test_large_queue_grants_the_full_batch(broker):
    broker.create_sweep(_items(100))
    jobs = broker.claim_many("w1", MAX_CLAIM_BATCH)
    assert [job.key for job in jobs] == [f"k{i}" for i in range(16)]
    assert all(job.attempts == 1 for job in jobs)
    # The limit still binds below the cap: ceil(84/4) = 21 > 3.
    assert len(broker.claim_many("w2", 3)) == 3


def test_batches_shrink_as_the_queue_drains(broker):
    broker.create_sweep(_items(64))
    sizes = []
    while True:
        jobs = broker.claim_many("w1", MAX_CLAIM_BATCH)
        if not jobs:
            break
        sizes.append(len(jobs))
        broker.complete_many([(job.key, 0) for job in jobs], worker="w1")
    assert sizes == [16, 12, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1, 1]


def test_claim_many_rejects_a_zero_limit(broker):
    with pytest.raises(ValueError):
        broker.claim_many("w1", 0)


# ---------------------------------------------------------------------------
# Per-batch guarantees
# ---------------------------------------------------------------------------
def test_a_batch_never_leases_one_key_twice(broker):
    # Two sweeps over the same 40 keys: 80 pending jobs, 40 runnable keys.
    broker.create_sweep(_items(40))
    broker.create_sweep(_items(40))
    first = broker.claim_many("w1", MAX_CLAIM_BATCH)
    keys = [job.key for job in first]
    assert len(keys) == 10 == len(set(keys))                    # ceil(40/4)
    second = broker.claim_many("w2", MAX_CLAIM_BATCH)
    assert not {job.key for job in second} & set(keys)          # leased keys
    assert len(second) == 8                                     # ceil(30/4)


def test_complete_many_is_idempotent_and_the_first_result_wins(broker):
    ticket = broker.create_sweep(_items(12))
    jobs = broker.claim_many("w1", MAX_CLAIM_BATCH)
    assert [job.key for job in jobs] == ["k0", "k1", "k2"]
    results = [("k0", "first"), ("k1", "first")]
    assert broker.complete_many(results, worker="w1") == [True, True]
    # A retried batch records nothing twice.
    assert broker.complete_many(results, worker="w1") == [False, False]
    assert broker.complete_many([("k0", "late"), ("k2", "a"), ("k2", "b")],
                                worker="w2") == [False, True, False]
    assert broker.complete_many([]) == []
    values = {r.key: r.value for r in broker.fetch_results(ticket.sweep_id)}
    assert values == {"k0": "first", "k1": "first", "k2": "a"}


def test_partial_failure_inside_a_batch(broker):
    items = _items(8)
    items[1] = WorkItem(key="k1", payload=pickle.dumps((boom, 1)))
    ticket = broker.create_sweep(items)
    worker = Worker(broker, worker_id="w1")
    assert worker.run_batch() == 2                  # ceil(8/4): k0 and k1
    assert worker.jobs_run == 1 and worker.failures == 1
    states = {r.key: (r.state, r.value, r.error)
              for r in broker.fetch_results(ticket.sweep_id)}
    assert states["k0"] == ("done", 0, None)
    assert states["k1"][0] == "failed" and "boom on 1" in states["k1"][2]
    # The rest of the queue is untouched and still drains.
    assert worker.run_until_idle() == 6
    assert broker.status(ticket.sweep_id)["done"] == 7


def test_a_value_that_cannot_be_pickled_fails_alone(broker):
    items = _items(10)
    items[3] = WorkItem(key="k3", payload=pickle.dumps((returns_lambda, 3)))
    ticket = broker.create_sweep(items)
    worker = Worker(broker, worker_id="w1")
    assert worker.run_until_idle() == 10
    assert worker.jobs_run == 9 and worker.failures == 1
    results = {r.key: r for r in broker.fetch_results(ticket.sweep_id)}
    assert sorted(key for key, r in results.items()
                  if r.state == "done") == sorted(set(results) - {"k3"})
    assert results["k3"].state == "failed"
    assert "Can't pickle" in results["k3"].error


def test_the_runner_reports_an_unpicklable_value_as_a_job_error(broker):
    runner = DistributedRunner(broker, cache=MemoCache())
    with pytest.raises(DistributedJobError, match="Can't pickle"):
        runner.map(returns_lambda, [5])


def test_one_heartbeat_thread_keeps_the_whole_batch_leased(tmp_path):
    """A batch longer than its lease is not stolen while its worker lives."""
    broker = SQLiteBroker(tmp_path / "hb.db", lease_seconds=0.4)
    try:
        ticket = broker.create_sweep(_items(5, fn=nap))
        worker = Worker(broker, worker_id="w1")
        thread = threading.Thread(target=worker.run_batch)
        thread.start()
        try:
            time.sleep(0.5)                       # past the original lease
            stolen = broker.claim_many("thief", MAX_CLAIM_BATCH)
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert {job.key for job in stolen}.isdisjoint({"k0", "k1"})
        assert worker.jobs_run == 2 and worker.failures == 0
        done = {r.key: r.worker for r in broker.fetch_results(ticket.sweep_id)}
        assert done == {"k0": "w1", "k1": "w1"}
    finally:
        broker.close()


# ---------------------------------------------------------------------------
# The request budget of an HTTP drain
# ---------------------------------------------------------------------------
def test_http_drain_of_64_jobs_makes_at_most_64_requests(tmp_path,
                                                         monkeypatch):
    backend = SQLiteBroker(tmp_path / "fleet.db")
    server = BrokerServer(backend).start()
    paths = []
    real_request = http.client.HTTPConnection.request

    def counted(self, method, url, *args, **kwargs):
        paths.append(url)
        return real_request(self, method, url, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", counted)
    try:
        with HTTPBroker(server.url) as client:
            runner = DistributedRunner(client, cache=MemoCache())
            assert runner.map(square, range(64)) == [i * i for i in range(64)]
    finally:
        server.close()
        backend.close()
    calls = Counter(paths)
    # 13 batches (see test_batches_shrink_as_the_queue_drains), each one
    # claim, complete, poll and fetch; plus create_sweep, ping and retries.
    assert calls["/v1/claim"] == calls["/v1/complete"] == 13
    assert len(paths) <= 64, calls


def test_threads_sharing_one_client_each_get_a_connection(tmp_path):
    """Many short-lived threads on one HTTPBroker: every call answers, and
    each thread's connection closes when the thread exits."""
    backend = SQLiteBroker(tmp_path / "threads.db")
    server = BrokerServer(backend).start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    errors = []
    try:
        with HTTPBroker(server.url) as client:
            ticket = client.create_sweep(_items(3))

            def poll():
                try:
                    for _ in range(10):
                        assert client.status(ticket.sweep_id)["total"] == 3
                except Exception as exc:             # reported below
                    errors.append(exc)

            for _ in range(3):                       # waves of threads
                threads = [threading.Thread(target=poll)
                           for _ in range(max(4, 2 * (os.cpu_count() or 1)))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
            # Each connection closed with its thread; the main thread's
            # (opened by create_sweep) is the one left.
            assert _wait_for(lambda: len(server._httpd.connections) == 1)
    finally:
        sys.setswitchinterval(interval)
        server.close()
        backend.close()
    assert errors == []


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


# ---------------------------------------------------------------------------
# Stress: more claimant processes than cores, one SQLite file
# ---------------------------------------------------------------------------
class _LoggingBroker(SQLiteBroker):
    """Records every job it leases, to check exclusivity afterwards."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.leased = []

    def claim_many(self, worker, limit, lease_seconds=None):
        jobs = super().claim_many(worker, limit, lease_seconds=lease_seconds)
        self.leased.append([job.key for job in jobs])
        return jobs


def _stress_claimant(path, worker_id, out, start):
    broker = _LoggingBroker(path, lease_seconds=300.0)
    try:
        start.wait(30)
        worker = Worker(broker, worker_id=worker_id)
        executed = worker.run_until_idle()
        with open(out, "w") as fh:
            json.dump({"executed": executed, "batches": broker.leased,
                       "failures": worker.failures}, fh)
    finally:
        broker.close()


def test_many_processes_claim_batches_exclusively(tmp_path):
    path = tmp_path / "stress.db"
    broker = SQLiteBroker(path)
    # Two sweeps sharing 100 keys: 400 jobs over 300 distinct keys.
    first = broker.create_sweep(_items(200, fn=echo))
    second = broker.create_sweep([WorkItem(key=f"k{i}",
                                           payload=pickle.dumps((echo, i)))
                                  for i in range(100, 300)])
    context = multiprocessing.get_context("spawn")
    start = context.Event()
    claimants = max(4, (os.cpu_count() or 1) + 2)
    outs = [tmp_path / f"claimant{i}.json" for i in range(claimants)]
    processes = [context.Process(target=_stress_claimant,
                                 args=(str(path), f"c{i}", str(out), start))
                 for i, out in enumerate(outs)]
    try:
        for process in processes:
            try:
                process.start()
            except OSError:
                pytest.skip("cannot spawn claimant processes here")
        start.set()
        for process in processes:
            process.join(timeout=120)
        assert not any(process.is_alive() for process in processes)
        assert all(process.exitcode == 0 for process in processes)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)

    logs = [json.loads(out.read_text()) for out in outs]
    batches = [batch for log in logs for batch in log["batches"] if batch]
    leased = Counter(key for batch in batches for key in batch)
    # Leases never expired, so a key leased twice had two live claimants.
    assert set(leased) == {f"k{i}" for i in range(300)}
    assert set(leased.values()) == {1}
    assert all(len(batch) <= MAX_CLAIM_BATCH for batch in batches)
    assert sum(log["executed"] for log in logs) == 300
    assert sum(log["failures"] for log in logs) == 0
    # Every job completed exactly once, with its claimant's value.
    for ticket in (first, second):
        status = broker.status(ticket.sweep_id)
        assert status["done"] == 200 and status["finished"]
    rows = broker.fetch_results(first.sweep_id) + broker.fetch_results(
        second.sweep_id)
    assert all(row.value == int(row.key[1:]) for row in rows)
    assert {row.worker for row in rows} <= {f"c{i}" for i in range(claimants)}
    broker.close()
