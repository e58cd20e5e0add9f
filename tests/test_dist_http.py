"""Tests for the HTTP broker backend: server, client, wire behaviour, CLI.

Ends with the acceptance scenario of the networked fleet: two worker
*processes* connected purely over HTTP — separate tmpdirs, no shared memo
cache, no shared filesystem — one SIGKILLed mid-sweep, and the drained
fig5-class results bit-identical to a fresh serial evaluation.
"""

import json
import pickle
import random
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.dist import (BrokerServer, BrokerUnavailable, HTTPBroker,
                        SQLiteBroker, WireError, WireVersionError, Worker,
                        WorkItem, iter_results, submit_sweep, wire,
                        worker_main)
from repro.dist.http import _BrokerAPI, _BrokerRequestHandler, _decoded_error
from repro.exec import SweepRunner, run_job
from repro.exec.keys import stable_key


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Keep CLI/service cache writes out of the repository working tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))


def square(x):
    return x * x


def _item(key, arg=2, meta=None):
    return WorkItem(key=key, payload=pickle.dumps((square, arg)), meta=meta)


@pytest.fixture()
def backend(tmp_path):
    broker = SQLiteBroker(tmp_path / "server.db", lease_seconds=10.0)
    yield broker
    broker.close()


@pytest.fixture()
def server(backend):
    server = BrokerServer(backend).start()
    yield server
    server.close()


@pytest.fixture()
def client(server):
    with HTTPBroker(server.url, retries=2, backoff_seconds=0.01) as client:
        yield client


def _post(url, body, method="POST"):
    if isinstance(body, dict):
        body = json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=10) as rsp:
            return rsp.status, rsp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


# ---------------------------------------------------------------------------
# Server wire behaviour
# ---------------------------------------------------------------------------
def test_ping_reports_identity_and_lease(client):
    info = client.ping()
    assert info["service"] == "repro-broker"
    assert info["wire_version"] == wire.WIRE_VERSION
    assert info["lease_seconds"] == 10.0
    assert client.lease_seconds == 10.0          # lazily adopted from ping


def test_malformed_json_is_a_field_level_400(server):
    status, body = _post(f"{server.url}/v1/claim", b"{not json")
    assert status == 400
    error = json.loads(body)["error"]
    assert error["type"] == "malformed-request"


def test_missing_field_names_the_field(server):
    status, body = _post(f"{server.url}/v1/claim",
                         {"version": wire.WIRE_VERSION, "params": {}})
    assert status == 400
    error = json.loads(body)["error"]
    assert error["type"] == "wire-error" and error["field"] == "worker"
    assert "'worker' is required" in error["message"]


def test_unknown_method_is_404(server):
    status, body = _post(f"{server.url}/v1/no_such_method",
                         {"version": wire.WIRE_VERSION, "params": {}})
    assert status == 404
    assert json.loads(body)["error"]["type"] == "unknown-method"


def test_non_dict_params_rejected(server):
    status, body = _post(f"{server.url}/v1/claim",
                         {"version": wire.WIRE_VERSION, "params": [1, 2]})
    assert status == 400
    assert json.loads(body)["error"]["field"] == "params"


def test_wire_version_mismatch_is_409_and_typed(server):
    status, body = _post(f"{server.url}/v1/status",
                         {"version": 999, "params": {"sweep_id": "x"}})
    assert status == 409
    error = json.loads(body)["error"]
    assert error["type"] == "wire-version-mismatch"
    assert "upgrade the older side" in error["message"]
    # The client maps the same response to WireVersionError.
    with pytest.raises(WireVersionError):
        raise _decoded_error(status, body)


@pytest.mark.parametrize("version", [1, 2])
def test_v1_envelope_gets_409(server, version):
    """Older peers (v1: one job per claim; v2: blob objects) and this build
    refuse each other."""
    status, body = _post(f"{server.url}/v1/claim",
                         {"version": version, "params": {"worker": "old"}})
    assert status == 409
    assert "upgrade the older side" in json.loads(body)["error"]["message"]


def test_claim_limit_is_validated(server):
    status, body = _post(f"{server.url}/v1/claim",
                         {"version": wire.WIRE_VERSION,
                          "params": {"worker": "w1", "limit": 0}})
    assert status == 400
    assert json.loads(body)["error"]["field"] == "limit"


def test_oversized_request_is_413(backend):
    server = BrokerServer(backend, max_request_bytes=128).start()
    try:
        status, body = _post(f"{server.url}/v1/status",
                             {"version": wire.WIRE_VERSION,
                              "params": {"sweep_id": "x" * 400}})
        assert status == 413
        assert json.loads(body)["error"]["type"] == "oversized-request"
        tight = HTTPBroker(server.url, retries=2, backoff_seconds=0.01)
        with pytest.raises(WireError, match="exceeds the server cap"):
            tight.status("x" * 400)
    finally:
        server.close()


def test_unknown_sweep_maps_to_keyerror(client):
    with pytest.raises(KeyError):
        client.status("nope")


def test_blob_endpoints_answer_404(server):
    path = f"{server.url}/v1/blobs/{'0' * 64}"
    for method, body in (("GET", None), ("HEAD", None), ("PUT", b"x" * 64)):
        status, _ = _post(path, body, method=method)
        assert status == 404, method


# ---------------------------------------------------------------------------
# Bytes travel inline
# ---------------------------------------------------------------------------
def reverse(data):
    return data[::-1]


def test_megabyte_payload_and_value_round_trip_inline(client):
    data = random.Random(7).randbytes(1 << 20)
    item = WorkItem(key="big", payload=pickle.dumps((reverse, data)))
    ticket = client.create_sweep([item], label="big")
    assert Worker(client, worker_id="w1").run_until_idle() == 1
    (result,) = client.fetch_results(ticket.sweep_id)
    assert result.state == "done" and result.value == data[::-1]


# ---------------------------------------------------------------------------
# Client retry / failure surface
# ---------------------------------------------------------------------------
def test_client_retries_transient_500(client, backend, monkeypatch):
    ticket = client.create_sweep([_item("k0")])
    calls = {"n": 0}
    real_status = _BrokerAPI.status

    def flaky(self, params):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("hiccup")         # the server answers 500
        return real_status(self, params)

    monkeypatch.setattr(_BrokerAPI, "status", flaky)
    assert client.status(ticket.sweep_id)["total"] == 1
    assert calls["n"] == 2                       # first attempt 500, retried


def test_dead_endpoint_raises_broker_unavailable():
    client = HTTPBroker("http://127.0.0.1:1", retries=2,
                        backoff_seconds=0.01)
    with pytest.raises(BrokerUnavailable, match="unavailable after 2"):
        client.ping()


# ---------------------------------------------------------------------------
# Keep-alive connections
# ---------------------------------------------------------------------------
def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _open_connections(server):
    return len(server._httpd.connections)


def test_handler_turns_off_nagle(server, client):
    assert _BrokerRequestHandler.disable_nagle_algorithm is True
    client.ping()
    (sock,) = server._httpd.connections
    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_client_reuses_one_connection(server, client):
    for _ in range(5):
        client.ping()
    assert _open_connections(server) == 1


def test_stale_keepalive_socket_reconnects_transparently(server, monkeypatch):
    """A kept-alive socket the server dropped costs no retry attempt."""
    monkeypatch.setattr(_BrokerRequestHandler, "timeout", 0.2)
    with HTTPBroker(server.url, retries=1) as client:   # no retry to spend
        client.ping()
        assert _wait_for(lambda: _open_connections(server) == 0)
        assert client.ping()["service"] == "repro-broker"


def test_idle_connection_is_closed_by_the_server(server, monkeypatch):
    monkeypatch.setattr(_BrokerRequestHandler, "timeout", 0.2)
    host, port = server.url[len("http://"):].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        assert _wait_for(lambda: _open_connections(server) == 1)
        assert sock.recv(1) == b""               # server hung up on us
    assert _wait_for(lambda: _open_connections(server) == 0)


def test_server_close_ends_kept_alive_connections(backend):
    server = BrokerServer(backend).start()
    client = HTTPBroker(server.url, retries=2, backoff_seconds=0.01)
    client.ping()
    assert _open_connections(server) == 1
    started = time.monotonic()
    server.close()
    assert time.monotonic() - started < 3.0      # no wait on the idle client
    assert _open_connections(server) == 0
    with pytest.raises(BrokerUnavailable):
        client.ping()
    client.close()


def test_closing_an_unstarted_server_returns(backend):
    # shutdown() would wait forever for a serve loop that never ran; run
    # close() on a daemon thread so a regression fails instead of hanging.
    closer = threading.Thread(target=BrokerServer(backend).close,
                              daemon=True)
    closer.start()
    closer.join(timeout=1.0)
    assert not closer.is_alive()


def test_closing_a_started_server_is_prompt(backend):
    # A serve loop notices shutdown within its poll interval, not 0.5 s.
    # Best of three, so one descheduled close on a loaded host cannot fail.
    durations = []
    for _ in range(3):
        server = BrokerServer(backend).start()
        started = time.monotonic()
        server.close()
        durations.append(time.monotonic() - started)
    assert min(durations) < 0.1, durations


def test_runner_closes_the_http_broker_it_opened(server):
    from repro.dist import DistributedRunner
    from repro.exec import MemoCache

    with DistributedRunner(server.url, cache=MemoCache()) as runner:
        assert runner.map(square, [3, 4]) == [9, 16]
        assert _open_connections(server) == 1    # one kept-alive connection
    assert _wait_for(lambda: _open_connections(server) == 0)


def test_client_close_closes_its_connections(server):
    with HTTPBroker(server.url) as client:
        client.ping()
        assert _open_connections(server) == 1
    assert _wait_for(lambda: _open_connections(server) == 0)
    assert client.ping()["service"] == "repro-broker"   # reopens on demand
    client.close()


# ---------------------------------------------------------------------------
# CLI over broker URLs
# ---------------------------------------------------------------------------
def test_cli_worker_drains_http_broker(server, client, capsys):
    ticket = client.create_sweep([_item("k0", arg=5), _item("k1", arg=6)])
    assert main(["worker", "--broker", server.url, "--no-cache",
                 "--id", "cli-w"]) == 0
    assert "executed 2 job(s)" in capsys.readouterr().err
    values = [r.value for r in client.fetch_results(ticket.sweep_id)]
    assert values == [25, 36]


def test_cli_sweep_status_and_results_over_http(server, client, capsys):
    ticket = client.create_sweep(
        [_item("k0", arg=3, meta={"position": 0, "coords": {"n": 3}})],
        label="cli-http")
    worker = Worker(client, worker_id="w1")
    worker.run_until_idle()

    assert main(["sweep", "status", "--broker", server.url,
                 ticket.sweep_id]) == 0
    out = capsys.readouterr().out
    assert "1/1 done" in out

    assert main(["sweep", "results", "--broker", server.url,
                 ticket.sweep_id]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["state"] == "done" and record["outcome"] == 9
    assert record["coords"] == {"n": 3}


def test_sweeps_are_listed_over_http(backend, server, client, capsys):
    client.create_sweep([_item("k0")], label="first")
    client.create_sweep([_item("k1"), _item("k2")], label="second")
    listed = client.sweeps()
    assert sorted(status["label"] for status in listed) == ["first", "second"]
    assert listed == backend.sweeps()

    assert main(["sweep", "list", "--broker", server.url, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == listed


def test_cli_submit_to_http_broker_opens_no_local_stores(server, tmp_path,
                                                        capsys, monkeypatch):
    """The server's stores apply: submit creates neither a memo file nor a
    results store, and says the one it was given was not consulted."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"label": "http-submit", "models": ["svm"],
                                "kernels": ["vecadd"], "scale": "tiny",
                                "axes": {"tlb_entries": [8, 16]}}))
    flags = tmp_path / "flags"
    assert main(["sweep", "submit", "--broker", server.url,
                 "--cache-dir", str(flags / "memo"),
                 "--results-db", str(flags / "results.db"),
                 str(spec), "--id-only"]) == 0
    err = capsys.readouterr().err
    assert "not consulted" in err
    assert "`repro broker serve --results-db`" in err
    assert not flags.exists()

    env = tmp_path / "env"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(env / "memo"))
    monkeypatch.setenv("REPRO_RESULTS_DB", str(env / "results.db"))
    assert main(["sweep", "submit", "--broker", server.url, str(spec),
                 "--id-only"]) == 0
    assert "not consulted" in capsys.readouterr().err
    assert not env.exists()


def test_cli_accepts_sqlite_scheme_urls(tmp_path, capsys):
    db = tmp_path / "cli.db"
    broker = SQLiteBroker(db)
    ticket = broker.create_sweep([_item("k0")], label="via-url")
    broker.close()
    assert main(["sweep", "list", "--broker", f"sqlite://{db}"]) == 0
    assert ticket.sweep_id in capsys.readouterr().out


def test_cli_rejects_unknown_scheme(capsys):
    assert main(["sweep", "list", "--broker", "redis://nope"]) == 2
    assert "unknown broker URL scheme" in capsys.readouterr().err


def test_cli_parser_accepts_broker_serve():
    from repro.cli import build_parser
    args = build_parser().parse_args(
        ["broker", "serve", "--db", "x.db", "--port", "0"])
    assert args.command == "broker" and args.broker_command == "serve"
    assert args.db == "x.db" and args.port == 0


# ---------------------------------------------------------------------------
# Acceptance: networked fleet, no shared filesystem, one worker SIGKILLed
# ---------------------------------------------------------------------------
SPEC = {
    "label": "fig5-grid",
    "models": ["svm"],
    "kernels": ["vecadd", "matmul"],
    "scale": "tiny",
    "axes": {"tlb_entries": [4, 8, 16, 32]},
}


def test_http_fleet_sigkill_drains_bit_identical_to_serial(tmp_path):
    """Two HTTP workers in separate tmpdirs (no shared cache), one killed
    mid-sweep; the drained spec matches fresh serial evaluation exactly."""
    import multiprocessing

    from repro.dist.service import _jsonable_outcome, expand_spec

    # Fresh serial evaluation: no cache, no broker — the ground truth.
    sweep = expand_spec(SPEC)
    serial_values = SweepRunner(jobs=1).map(run_job,
                                            [p.job for p in sweep.points])
    expected = {stable_key(run_job, point.job): _jsonable_outcome(value)
                for point, value in zip(sweep.points, serial_values)}

    backend = SQLiteBroker(tmp_path / "fleet.db", lease_seconds=0.5)
    server = BrokerServer(backend).start()
    client = HTTPBroker(server.url, retries=3, backoff_seconds=0.05)
    context = multiprocessing.get_context()
    workers = []
    try:
        ticket = submit_sweep(client, SPEC)      # no memo, no results store
        assert ticket.already_done == 0
        for index in range(2):
            # Each worker gets its own tmpdir cache — nothing shared but
            # the HTTP endpoint.
            process = context.Process(
                target=worker_main,
                kwargs=dict(broker_url=server.url,
                            cache_dir=str(tmp_path / f"w{index}" / "cache"),
                            worker_id=f"hw{index}", idle_grace=120.0),
                daemon=True)
            try:
                process.start()
            except OSError:
                pytest.skip("cannot spawn worker processes here")
            workers.append(process)

        stream = iter_results(client, ticket.sweep_id, follow=True,
                              timeout=300.0)
        records = [next(stream)]                 # fleet is live
        victims = [p for p in workers if p.is_alive()]
        if victims:
            victims[0].kill()                    # SIGKILL mid-sweep
        records.extend(stream)
    finally:
        for process in workers:
            if process.is_alive():
                process.terminate()
        for process in workers:
            process.join(timeout=10.0)
        server.close()
        backend.close()

    assert len(records) == len(sweep.points)
    assert all(record["state"] == "done" for record in records)
    for record in records:
        assert record["outcome"] == expected[record["key"]]
    # The killed worker's jobs were recomputed by the survivor, not lost —
    # every worker id on the results belongs to the fleet.
    assert {record.get("worker") for record in records} <= {"hw0", "hw1"}
