"""Tests for the wire format, broker URLs and SQLiteBroker's byte-level
methods."""

import pickle

import pytest

from repro.dist import (SQLiteBroker, WireError, WireVersionError,
                        connect_broker)
from repro.dist import wire
from repro.dist.broker import ClaimedJob, SweepTicket, WorkItem


# ---------------------------------------------------------------------------
# Envelope: version guard and field validation
# ---------------------------------------------------------------------------
def test_check_version_accepts_current_and_rejects_others():
    wire.check_version({"version": wire.WIRE_VERSION})
    for bad in ({"version": 999}, {"version": "1"}, {}, None, "x"):
        with pytest.raises(WireVersionError) as err:
            wire.check_version(bad)
        assert err.value.expected == wire.WIRE_VERSION
        assert "upgrade" in str(err.value)


def test_get_field_names_the_offending_field():
    with pytest.raises(WireError, match="'worker' is required"):
        wire.get_field({}, "worker", (str,))
    with pytest.raises(WireError, match="'total' must be an integer"):
        wire.get_field({"total": "five"}, "total", (int,))
    with pytest.raises(WireError, match="'lease' must not be a boolean"):
        wire.get_field({"lease": True}, "lease", (int, float))
    assert wire.get_field({"x": None}, "x", (str,), required=False,
                          default="d") == "d"
    assert err_field("worker") == "worker"


def err_field(name):
    try:
        wire.get_field({}, name, (str,))
    except WireError as exc:
        return exc.field


# ---------------------------------------------------------------------------
# Bytes fields
# ---------------------------------------------------------------------------
def test_bytes_fields_are_base64_strings_named_on_error():
    data = bytes(range(256))
    assert wire.decode_bytes({"payload": wire.encode_bytes(data)},
                             "payload") == data
    with pytest.raises(WireError, match="'value' carries invalid base64"):
        wire.decode_bytes({"value": "!!!not base64!!!"}, "value")
    with pytest.raises(WireError, match="'value' carries invalid base64"):
        wire.decode_bytes({"value": "d\u00e9j\u00e0"}, "value")
    # A version-2 blob object is not a string.
    with pytest.raises(WireError, match="'payload' must be a string"):
        wire.decode_bytes({"payload": {"inline": "AA=="}}, "payload")
    with pytest.raises(WireError, match="'payload' is required"):
        wire.decode_bytes({}, "payload")


# ---------------------------------------------------------------------------
# Message bodies roundtrip
# ---------------------------------------------------------------------------
def test_work_item_roundtrip():
    item = WorkItem(key="k0", payload=pickle.dumps((min, 1)),
                    meta={"position": 3})
    decoded = wire.decode_work_item(wire.encode_work_item(item))
    assert decoded == item


def test_ticket_roundtrip():
    ticket = SweepTicket(sweep_id="abc", total=5, already_done=2,
                         done_keys=frozenset({"k1", "k0"}))
    decoded = wire.decode_ticket(wire.encode_ticket(ticket))
    assert decoded == ticket


def test_claim_roundtrip():
    claim = ClaimedJob(sweep_id="s", position=2, key="k",
                       payload=b"\x80" * 4096, attempts=2,
                       lease_expiry=123.5)
    encoded = wire.encode_claim(claim)
    assert isinstance(encoded["payload"], str)   # base64, inside the message
    assert wire.decode_claim(encoded) == claim


def test_result_row_roundtrip_and_state_validation():
    payload = pickle.dumps({"cycles": 42})
    encoded = wire.encode_result_row(1, "k", "done", {"coords": {}}, None,
                                     "w0", payload)
    result = wire.decode_result_row(encoded)
    assert result.position == 1 and result.value == {"cycles": 42}
    assert result.worker == "w0" and result.error is None

    failed = wire.encode_result_row(2, "k2", "failed", None, "boom", None,
                                    None)
    assert "value" not in failed
    decoded = wire.decode_result_row(failed)
    assert decoded.state == "failed" and decoded.value is None

    with pytest.raises(WireError, match="'state' must be one of"):
        wire.decode_result_row({**encoded, "state": "leased"})


def test_decode_positions_validates_integer_arrays():
    assert wire.decode_positions({"positions": [3, 1]}) == [3, 1]
    assert wire.decode_positions({}) is None
    with pytest.raises(WireError, match="array of integers"):
        wire.decode_positions({"positions": [1, "two"]})
    with pytest.raises(WireError, match="array of integers"):
        wire.decode_positions({"positions": [True]})


# ---------------------------------------------------------------------------
# connect_broker URL parsing
# ---------------------------------------------------------------------------
def test_connect_broker_sqlite_forms(tmp_path):
    for url in (str(tmp_path / "a.db"),
                f"sqlite://{tmp_path / 'b.db'}",
                f"SQLITE://{tmp_path / 'c.db'}"):
        broker = connect_broker(url)
        assert isinstance(broker, SQLiteBroker)
        broker.close()


def test_connect_broker_passes_options(tmp_path):
    broker = connect_broker(str(tmp_path / "a.db"), lease_seconds=7.0)
    assert broker.lease_seconds == 7.0
    broker.close()


def test_connect_broker_rejects_unknown_scheme_and_empty_path():
    with pytest.raises(ValueError, match="unknown broker URL scheme"):
        connect_broker("redis://localhost:6379")
    with pytest.raises(ValueError, match="names no database path"):
        connect_broker("sqlite://")


def test_connect_broker_http_is_lazy():
    from repro.dist import HTTPBroker
    broker = connect_broker("http://127.0.0.1:1")   # no network touched
    assert isinstance(broker, HTTPBroker)
    assert broker.url == "http://127.0.0.1:1"


def test_register_broker_scheme_extends_the_registry(tmp_path):
    from repro.dist import broker_schemes, register_broker_scheme

    calls = {}

    def factory(url, **options):
        calls["url"] = url
        return SQLiteBroker(tmp_path / "fake.db")

    register_broker_scheme("fake", factory)
    try:
        broker = connect_broker("fake://whatever")
        assert calls["url"] == "fake://whatever"
        assert "fake" in broker_schemes()
        broker.close()
    finally:
        from repro.dist.broker import _BROKER_SCHEMES
        _BROKER_SCHEMES.pop("fake", None)


# ---------------------------------------------------------------------------
# SQLiteBroker's byte-level methods (the broker server's relay path)
# ---------------------------------------------------------------------------
def test_sqlite_broker_complete_bytes_matches_complete(tmp_path):
    broker = SQLiteBroker(tmp_path / "b.db")
    try:
        broker.create_sweep([WorkItem(key="k0", payload=b"\x80x")])
        raw = pickle.dumps({"cycles": 9})
        assert broker.complete_bytes("k0", raw, worker="w1") is True
        assert broker.complete_bytes("k0", raw, worker="w2") is False
        (result,) = broker.fetch_results(broker.sweeps()[0]["sweep_id"])
        assert result.value == {"cycles": 9} and result.worker == "w1"
    finally:
        broker.close()


def test_sqlite_broker_fetch_result_rows_returns_raw_bytes(tmp_path):
    broker = SQLiteBroker(tmp_path / "b.db")
    try:
        ticket = broker.create_sweep([WorkItem(key="k0", payload=b"\x80x")])
        raw = pickle.dumps(1234)
        broker.complete_bytes("k0", raw)
        ((_, key, state, _, _, _, blob),) = broker.fetch_result_rows(
            ticket.sweep_id)
        assert key == "k0" and state == "done" and blob == raw
        ((_, _, _, _, _, _, none),) = broker.fetch_result_rows(
            ticket.sweep_id, values=False)
        assert none is None
    finally:
        broker.close()
