"""Broker conformance: every backend must honour the same contract.

The same lease/retry/idempotency scenarios as the SQLite broker tests, run
twice — once against :class:`SQLiteBroker` directly, once through the full
network stack (``HTTPBroker → BrokerServer → SQLiteBroker``).  The server
wraps a SQLite broker driven by the shared :class:`FakeClock`, so lease
expiry and backoff remain deterministic even over HTTP: the clock is
advanced in-process and both transports observe identical state machines.
"""

import pickle
import sqlite3
from contextlib import closing

import pytest

from repro.dist import (Broker, BrokerServer, HTTPBroker, SQLiteBroker,
                        Worker, WorkItem)


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


def _item(key, fn=square, arg=2, meta=None):
    return WorkItem(key=key, payload=pickle.dumps((fn, arg)), meta=meta)


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture(params=["sqlite", "http"])
def broker(request, tmp_path, clock):
    backend = SQLiteBroker(tmp_path / "broker.db", lease_seconds=10.0,
                           max_attempts=3, backoff_seconds=1.0, clock=clock)
    if request.param == "sqlite":
        yield backend
        backend.close()
        return
    server = BrokerServer(backend).start()
    try:
        yield HTTPBroker(server.url, retries=2, backoff_seconds=0.01)
    finally:
        server.close()
        backend.close()


def test_satisfies_broker_protocol(broker):
    assert isinstance(broker, Broker)


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


def test_unknown_sweep_raises_keyerror(broker):
    with pytest.raises(KeyError):
        broker.status("nope")
    # The position/result queries are quietly empty for unknown sweeps —
    # same contract both sides of the wire.
    assert broker.fetch_results("nope") == []
    assert broker.finished_positions("nope") == {}


def test_meta_roundtrips(broker):
    ticket = broker.create_sweep(
        [_item("k0", meta={"position": 0, "coords": {"x": 1}})])
    claim = broker.claim("w1")
    broker.complete(claim.key, 4)
    (result,) = broker.fetch_results(ticket.sweep_id)
    assert result.meta == {"position": 0, "coords": {"x": 1}}


def test_duplicate_keys_within_a_sweep_execute_once(broker):
    ticket = broker.create_sweep([_item("k0"), _item("k0"), _item("k1")])
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
# The code-version guard: reuse only the running code's values
# ---------------------------------------------------------------------------
def test_enqueue_reuses_only_the_running_codes_values(broker, monkeypatch):
    first = broker.create_sweep([_item("k0")])
    assert broker.complete(broker.claim("w1").key, 4, worker="w1") is True
    monkeypatch.setattr("repro.__version__", "999.0.0")
    second = broker.create_sweep([_item("k0")])
    assert second.already_done == 0 and "k0" not in second.done_keys
    claim = broker.claim("w2")
    assert claim is not None and claim.key == "k0"
    # The older sweep still reads the value and worker it finished with.
    (old,) = broker.fetch_results(first.sweep_id)
    assert (old.state, old.value, old.worker) == ("done", 4, "w1")
    assert broker.complete(claim.key, 4, worker="w2") is True
    (new,) = broker.fetch_results(second.sweep_id)
    assert (new.state, new.value, new.worker) == ("done", 4, "w2")


def test_a_value_of_another_namespace_is_fetched_but_not_reused(broker,
                                                                tmp_path):
    first = broker.create_sweep([_item("k0")])
    broker.complete(broker.claim("w1").key, 4, worker="w1")
    # As if a worker of another release had stored the value.
    with closing(sqlite3.connect(tmp_path / "broker.db")) as db:
        db.execute("UPDATE memo SET namespace = 'v0.0.1'")
        db.commit()
    (result,) = broker.fetch_results(first.sweep_id)
    assert (result.value, result.worker) == (4, "w1")
    assert broker.create_sweep([_item("k0")]).already_done == 0


# ---------------------------------------------------------------------------
# Leases, retries, backoff — the phantom-crash family
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


def test_phantom_crashes_exhaust_max_attempts(broker, clock):
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
# Lazy value materialization
# ---------------------------------------------------------------------------
def test_fetch_results_without_values_is_lazy(broker):
    ticket = broker.create_sweep([_item("k0", arg=3)])
    claim = broker.claim("w1")
    broker.complete(claim.key, 9)
    (lazy,) = broker.fetch_results(ticket.sweep_id, values=False)
    assert lazy.state == "done" and lazy.value is None
    (eager,) = broker.fetch_results(ticket.sweep_id)
    assert eager.value == 9


def test_finished_positions_tracks_terminal_states(broker):
    ticket = broker.create_sweep([_item("k0"), _item("k1")])
    claim = broker.claim("w1")
    broker.complete(claim.key, 4)
    assert broker.finished_positions(ticket.sweep_id) == {0: "done"}
    claim = broker.claim("w1")
    broker.fail(claim, "nope", transient=False)
    assert broker.finished_positions(ticket.sweep_id) == {
        0: "done", 1: "failed"}


# ---------------------------------------------------------------------------
# Worker loop over both transports
# ---------------------------------------------------------------------------
def test_worker_drains_queue(broker):
    ticket = broker.create_sweep([_item("k0", arg=5), _item("k1", arg=6)])
    worker = Worker(broker, worker_id="w1")
    assert worker.run_until_idle() == 2
    assert [r.value for r in broker.fetch_results(ticket.sweep_id)] == [
        25, 36]


def test_worker_classifies_raising_fn_as_permanent(broker):
    ticket = broker.create_sweep([_item("k0", fn=boom, arg=1)])
    worker = Worker(broker, worker_id="w1")
    assert worker.run_until_idle() == 1
    assert worker.jobs_run == 0 and worker.failures == 1
    (result,) = broker.fetch_results(ticket.sweep_id)
    assert result.state == "failed"
    assert "ValueError" in result.error and "boom" in result.error
