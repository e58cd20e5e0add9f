"""Tests for the SQLite work-queue broker and the fleet worker loop."""

import pickle
import sqlite3
from contextlib import closing

import pytest

from repro.dist import SQLiteBroker, Worker, WorkItem
from repro.exec import MemoCache
from repro.exec.db import DatabaseOpenError


class FakeClock:
    """Deterministic time source: leases/backoff advance only on demand."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"boom on {x}")


def sleepy(x):
    import time
    time.sleep(1.0)
    return x


def _item(key, fn=square, arg=2, meta=None):
    return WorkItem(key=key, payload=pickle.dumps((fn, arg)), meta=meta)


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def broker(tmp_path, clock):
    broker = SQLiteBroker(tmp_path / "broker.db", lease_seconds=10.0,
                          max_attempts=3, backoff_seconds=1.0, clock=clock)
    yield broker
    broker.close()


# ---------------------------------------------------------------------------
# Enqueue / claim / complete
# ---------------------------------------------------------------------------
def test_claim_complete_roundtrip(broker):
    ticket = broker.create_sweep([_item("k0", arg=3), _item("k1", arg=4)],
                                 label="t")
    assert ticket.total == 2 and ticket.already_done == 0

    claim = broker.claim("w1")
    assert claim.key == "k0" and claim.attempts == 1
    fn, arg = pickle.loads(claim.payload)
    assert broker.complete(claim.key, fn(arg), worker="w1") is True

    status = broker.status(ticket.sweep_id)
    assert status["done"] == 1 and status["pending"] == 1
    assert not status["finished"]

    claim2 = broker.claim("w1")
    broker.complete(claim2.key, 16, worker="w1")
    status = broker.status(ticket.sweep_id)
    assert status["finished"] and status["done_fraction"] == 1.0

    results = broker.fetch_results(ticket.sweep_id)
    assert [(r.position, r.state, r.value) for r in results] == [
        (0, "done", 9), (1, "done", 16)]


def test_claims_are_exclusive(broker):
    broker.create_sweep([_item("k0")])
    assert broker.claim("w1") is not None
    assert broker.claim("w2") is None           # leased, not expired


def test_unknown_sweep_raises(broker):
    with pytest.raises(KeyError):
        broker.status("nope")


def test_status_separates_job_counts_from_sweep_flag(broker):
    ticket = broker.create_sweep([_item("k0")])
    broker.cancel(ticket.sweep_id)
    status = broker.status(ticket.sweep_id)
    assert status["sweep_cancelled"] is True
    assert status["cancelled"] == 1             # the per-job state count


# ---------------------------------------------------------------------------
# Fleet-wide dedup: memo store and result table
# ---------------------------------------------------------------------------
def test_enqueue_consults_memo_store(broker):
    memo = MemoCache()
    memo.put("k0", 99)
    ticket = broker.create_sweep([_item("k0"), _item("k1")], memo=memo)
    assert ticket.already_done == 1
    assert ticket.done_keys == frozenset({"k0"})
    # The memo hit is immediately streamable, without any worker.
    (done,) = broker.fetch_results(ticket.sweep_id)
    assert done.position == 0 and done.value == 99 and done.worker == "memo"
    # Only the miss is claimable.
    assert broker.claim("w1").key == "k1"
    assert broker.claim("w1") is None


def test_enqueue_consults_own_result_table(broker):
    first = broker.create_sweep([_item("k0")])
    claim = broker.claim("w1")
    broker.complete(claim.key, 123)
    assert broker.status(first.sweep_id)["finished"]

    second = broker.create_sweep([_item("k0")])
    assert second.already_done == 1
    (done,) = broker.fetch_results(second.sweep_id)
    assert done.value == 123


def test_a_key_resolved_at_enqueue_keeps_the_worker_it_was_credited_to(
        broker):
    broker.create_sweep([_item("k0")])
    broker.complete(broker.claim("w1").key, 123, worker="w1")
    memo = MemoCache()
    memo.put("k1", 5)
    adopted = broker.create_sweep([_item("k1"), _item("k1")], memo=memo)
    again = broker.create_sweep([_item("k0"), _item("k1")])
    assert again.already_done == 2
    assert [(r.value, r.worker) for r in broker.fetch_results(
        adopted.sweep_id)] == [(5, "memo"), (5, "memo")]
    assert [(r.value, r.worker) for r in broker.fetch_results(
        again.sweep_id)] == [(123, "w1"), (5, "memo")]


def test_a_broker_file_of_the_older_layout_is_refused(tmp_path):
    # The older layout kept every value in a ``results`` table.
    path = tmp_path / "old.db"
    with closing(sqlite3.connect(path)) as db:
        db.execute("CREATE TABLE results (key TEXT PRIMARY KEY,"
                   " payload BLOB NOT NULL, worker TEXT, created REAL)")
    with pytest.raises(DatabaseOpenError) as raised:
        SQLiteBroker(path)
    assert str(raised.value).startswith(f"cannot open database {path}: ")
    assert "finish its sweeps with that release" in str(raised.value)
    with closing(sqlite3.connect(path)) as db:
        assert db.execute("SELECT name FROM sqlite_master WHERE name ="
                          " 'memo'").fetchall() == []


def test_duplicate_keys_within_a_sweep_execute_once(broker):
    ticket = broker.create_sweep([_item("k0"), _item("k0"), _item("k1")])
    # The duplicate k0 is not claimable while the first copy is in flight;
    # completing the key resolves both positions.
    claims = [broker.claim("w1"), broker.claim("w2")]
    assert [c.key for c in claims] == ["k0", "k1"]
    assert broker.claim("w3") is None
    for claim in claims:
        broker.complete(claim.key, 7)
    status = broker.status(ticket.sweep_id)
    assert status["done"] == 3 and status["finished"]


def test_completion_is_idempotent_first_result_wins(broker):
    broker.create_sweep([_item("k0")])
    claim = broker.claim("w1")
    assert broker.complete(claim.key, 111, worker="w1") is True
    assert broker.complete(claim.key, 222, worker="w2") is False
    (result,) = broker.fetch_results(claim.sweep_id)
    assert result.value == 111                   # the duplicate was dropped


def test_completion_resolves_same_key_across_sweeps(broker):
    a = broker.create_sweep([_item("k0")])
    b = broker.create_sweep([_item("k0")])
    claim = broker.claim("w1")
    broker.complete(claim.key, 5)
    assert broker.status(a.sweep_id)["finished"]
    assert broker.status(b.sweep_id)["finished"]


# ---------------------------------------------------------------------------
# Leases, retries, backoff
# ---------------------------------------------------------------------------
def test_expired_lease_is_reclaimed(broker, clock):
    broker.create_sweep([_item("k0")])
    first = broker.claim("dead-worker")
    assert first.attempts == 1
    assert broker.claim("w2") is None            # lease still live
    clock.advance(11.0)
    second = broker.claim("w2")
    assert second is not None and second.key == "k0"
    assert second.attempts == 2


def test_lease_expiry_respects_max_attempts(broker, clock):
    ticket = broker.create_sweep([_item("k0")])
    for _ in range(3):                           # max_attempts crashes
        assert broker.claim("crashy") is not None
        clock.advance(11.0)
    assert broker.claim("w2") is None
    (result,) = broker.fetch_results(ticket.sweep_id)
    assert result.state == "failed"
    assert "lease expired" in result.error
    assert broker.retries(ticket.sweep_id) == 2


def test_heartbeat_extends_lease(broker, clock):
    broker.create_sweep([_item("k0")])
    claim = broker.claim("w1")
    clock.advance(8.0)
    assert broker.heartbeat(claim) is True
    clock.advance(8.0)                           # past original expiry
    assert broker.claim("w2") is None            # still leased thanks to beat


def test_heartbeat_reports_lost_lease(broker, clock):
    broker.create_sweep([_item("k0")])
    claim = broker.claim("w1")
    clock.advance(11.0)
    assert broker.claim("w2") is not None        # re-leased to someone else
    assert broker.heartbeat(claim) is False


def test_transient_failure_retries_with_exponential_backoff(broker, clock):
    ticket = broker.create_sweep([_item("k0")])
    claim = broker.claim("w1")
    broker.fail(claim, "flaky", transient=True)
    assert broker.claim("w1") is None            # backoff: 1.0s not elapsed
    clock.advance(1.5)
    claim = broker.claim("w1")
    assert claim.attempts == 2
    broker.fail(claim, "flaky again", transient=True)
    clock.advance(1.5)
    assert broker.claim("w1") is None            # second backoff doubled to 2s
    clock.advance(1.0)
    claim = broker.claim("w1")
    assert claim.attempts == 3
    broker.fail(claim, "flaky forever", transient=True)
    (result,) = broker.fetch_results(ticket.sweep_id)   # retries exhausted
    assert result.state == "failed" and "flaky forever" in result.error


def test_permanent_failure_parks_immediately(broker):
    ticket = broker.create_sweep([_item("k0")])
    claim = broker.claim("w1")
    broker.fail(claim, "ValueError: boom", transient=False)
    (result,) = broker.fetch_results(ticket.sweep_id)
    assert result.state == "failed" and "boom" in result.error
    assert broker.claim("w2") is None


def test_stale_failure_cannot_clobber_a_reclaim(broker, clock):
    """A crashed-then-revived worker's late fail() is a no-op."""
    ticket = broker.create_sweep([_item("k0")])
    stale = broker.claim("w1")
    clock.advance(11.0)
    fresh = broker.claim("w2")
    assert fresh.attempts == 2
    broker.fail(stale, "late report", transient=False)   # guarded by attempts
    assert broker.status(ticket.sweep_id)["leased"] == 1
    broker.complete(fresh.key, 42)
    assert broker.status(ticket.sweep_id)["finished"]


def test_cancel_stops_scheduling(broker):
    ticket = broker.create_sweep([_item("k0"), _item("k1")])
    running = broker.claim("w1")
    assert broker.cancel(ticket.sweep_id) == 1   # the still-pending job
    assert broker.claim("w2") is None
    status = broker.status(ticket.sweep_id)
    assert status["sweep_cancelled"] and status["cancelled"] == 1
    # The leased job may still finish; its result stays reusable.
    assert broker.complete(running.key, 1) is True


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------
def test_state_survives_reopen(tmp_path, clock):
    path = tmp_path / "broker.db"
    broker = SQLiteBroker(path, clock=clock)
    ticket = broker.create_sweep([_item("k0", arg=6)], label="persist")
    claim = broker.claim("w1")
    broker.complete(claim.key, 36)
    broker.close()

    reopened = SQLiteBroker(path, clock=clock)
    try:
        status = reopened.status(ticket.sweep_id)
        assert status["label"] == "persist" and status["finished"]
        (result,) = reopened.fetch_results(ticket.sweep_id)
        assert result.value == 36
    finally:
        reopened.close()


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------
def test_worker_executes_and_memoizes(broker):
    memo = MemoCache()
    ticket = broker.create_sweep([_item("k0", arg=5), _item("k1", arg=6)])
    worker = Worker(broker, memo=memo, worker_id="w1")
    assert worker.run_until_idle() == 2
    assert [r.value for r in broker.fetch_results(ticket.sweep_id)] == [25, 36]
    assert memo.get("k0") == 25 and memo.get("k1") == 36


def test_worker_classifies_raising_fn_as_permanent(broker):
    ticket = broker.create_sweep([_item("k0", fn=boom, arg=1)])
    worker = Worker(broker, worker_id="w1")
    assert worker.run_until_idle() == 1          # one job processed...
    assert worker.jobs_run == 0                  # ...but it did not succeed
    assert worker.failures == 1
    (result,) = broker.fetch_results(ticket.sweep_id)
    assert result.state == "failed"
    assert "ValueError" in result.error and "boom" in result.error


def test_worker_classifies_bad_payload_as_transient(broker, clock):
    ticket = broker.create_sweep(
        [WorkItem(key="k0", payload=b"not a pickle")])
    worker = Worker(broker, worker_id="w1")
    worker.run_until_idle()
    assert worker.failures == 1
    # Transient: requeued with backoff, not parked.
    assert broker.status(ticket.sweep_id)["pending"] == 1
    clock.advance(100.0)
    worker.run_until_idle()                      # attempt 2
    clock.advance(100.0)
    worker.run_until_idle()                      # attempt 3: retries exhausted
    (result,) = broker.fetch_results(ticket.sweep_id)
    assert result.state == "failed"


def test_worker_heartbeat_keeps_long_jobs_leased(tmp_path):
    """A job longer than its lease is not stolen while its worker is alive."""
    import time as time_mod

    broker = SQLiteBroker(tmp_path / "hb.db", lease_seconds=0.4)
    try:
        broker.create_sweep(
            [WorkItem(key="k0", payload=pickle.dumps((sleepy, 1)))])
        import threading
        worker = Worker(broker, worker_id="w1")
        thread = threading.Thread(target=worker.run_one)
        thread.start()
        try:
            time_mod.sleep(0.6)                  # past the original lease
            assert broker.claim("thief") is None
        finally:
            thread.join()
        assert worker.jobs_run == 1
        (result,) = broker.fetch_results(broker.sweeps()[0]["sweep_id"])
        assert result.state == "done" and result.value == 1
    finally:
        broker.close()


def test_enqueue_consults_results_store(broker, tmp_path):
    from repro.store import ResultsStore

    store = ResultsStore(tmp_path / "results.db", sha="cafe" * 3)
    store.record("k0", 99, experiment="past-run")
    ticket = broker.create_sweep([_item("k0"), _item("k1")], results=store)
    assert ticket.already_done == 1
    assert ticket.done_keys == frozenset({"k0"})
    (done,) = broker.fetch_results(ticket.sweep_id)
    assert done.position == 0 and done.value == 99 and done.worker == "store"
    # Only the store miss is claimable.
    assert broker.claim("w1").key == "k1"
    assert broker.claim("w1") is None


def test_enqueue_prefers_memo_over_results_store(broker, tmp_path):
    from repro.store import ResultsStore

    memo = MemoCache()
    memo.put("k0", 1)
    store = ResultsStore(tmp_path / "results.db", sha="cafe" * 3)
    store.record("k0", 2)
    ticket = broker.create_sweep([_item("k0")], memo=memo, results=store)
    assert ticket.already_done == 1
    (done,) = broker.fetch_results(ticket.sweep_id)
    assert done.value == 1 and done.worker == "memo"
