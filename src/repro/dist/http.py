"""HTTP broker backend: the fleet without a shared filesystem.

Two halves, both speaking :mod:`repro.dist.wire`:

* :class:`BrokerServer` — a stdlib ``ThreadingHTTPServer`` wrapping a
  :class:`~repro.dist.broker.SQLiteBroker`, whose lease/retry/idempotency
  machinery is reused wholesale, never re-implemented here.  Exposed from
  the CLI as ``repro broker serve --db sweeps.db --port N``.
* :class:`HTTPBroker` — a client satisfying the same runtime-checkable
  ``Broker`` protocol, so :class:`~repro.dist.worker.Worker`,
  :class:`~repro.dist.runner.DistributedRunner` and the ``repro sweep``
  front-end work over the network unchanged.

The server treats payloads and result values as opaque bytes end to end —
it never unpickles them, so workers may run functions whose modules the
server cannot import.  The bytes travel base64-encoded inside the JSON
messages; a request body larger than the server's cap (64 MiB by default)
is refused with HTTP 413.

The client keeps one HTTP/1.1 connection open per calling thread and reuses
it for every request; workers claim and complete jobs in batches, so a fleet
job costs a fraction of one round trip.  The server turns off Nagle's
algorithm on its sockets (a kept-alive exchange otherwise stalls on delayed
ACKs), closes connections idle for ``IDLE_TIMEOUT`` seconds, and ends every
open connection on :meth:`BrokerServer.close`.  A client whose kept-alive
socket was dropped reconnects at once, without spending a retry.

Transient transport failures (connection refused/reset, timeouts, 5xx) are
retried client-side with exponential backoff; after ``retries`` attempts a
:class:`BrokerUnavailable` (a ``ConnectionError``) surfaces.  Wire-level
rejections are terminal and typed: 400 → :class:`~repro.dist.wire.WireError`
naming the bad field, 404 unknown-sweep → :class:`KeyError` (matching
``SQLiteBroker``), 409 → :class:`~repro.dist.wire.WireVersionError`.
"""

from __future__ import annotations

import http.client
import json
import pickle
import socket
import sys
import threading
import time
import urllib.parse
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import wire
from .broker import (ClaimedJob, JobResult, SQLiteBroker, SweepTicket,
                     WorkItem)

#: Hard cap on a single request body; oversized posts get HTTP 413 without
#: being read.  Configurable per server for tests and tight deployments.
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle before the server closes it,
#: so half-open clients cannot pin handler threads forever.  A live client
#: simply reconnects on its next request.
IDLE_TIMEOUT = 60.0


class BrokerUnavailable(ConnectionError):
    """The broker endpoint stayed unreachable through every retry."""


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------
class _BrokerAPI:
    """Wire-method dispatch table over a wrapped :class:`SQLiteBroker`.

    Each public method takes validated-on-entry ``params`` (a dict from the
    request envelope) and returns the JSON-able ``result``.  Validation
    errors raise :class:`~repro.dist.wire.WireError`; unknown sweeps raise
    :class:`KeyError`; both are mapped to HTTP statuses by the handler.
    """

    def __init__(self, broker: SQLiteBroker, *, memo=None,
                 results=None) -> None:
        self.broker = broker
        self.memo = memo
        self.results = results

    def create_sweep(self, params: Dict[str, Any]) -> Dict[str, Any]:
        raw_items = wire.get_field(params, "items", (list,))
        items = [wire.decode_work_item(obj) for obj in raw_items]
        label = wire.get_field(params, "label", (str,), required=False,
                               default="sweep")
        spec = wire.get_field(params, "spec", (str,), required=False)
        # memo/results are the *server's*: the fleet-wide dedup stores are
        # configured at serve time, not shipped over the wire per request.
        ticket = self.broker.create_sweep(items, label=label, spec=spec,
                                          memo=self.memo, results=self.results)
        return {"ticket": wire.encode_ticket(ticket)}

    def claim(self, params: Dict[str, Any]) -> Dict[str, Any]:
        worker = wire.get_field(params, "worker", (str,))
        limit = wire.get_field(params, "limit", (int,))
        if limit < 1:
            raise wire.WireError("limit", "must be at least 1")
        lease = wire.get_field(params, "lease_seconds", (int, float),
                               required=False)
        jobs = self.broker.claim_many(worker, limit, lease_seconds=lease)
        return {"jobs": [wire.encode_claim(job) for job in jobs]}

    def _decode_claim_stub(self, params: Dict[str, Any]) -> ClaimedJob:
        # heartbeat/fail only need identity fields (sweep, position,
        # attempts); the payload never travels back to the server.
        return ClaimedJob(
            sweep_id=wire.get_field(params, "sweep_id", (str,)),
            position=wire.get_field(params, "position", (int,)),
            key=wire.get_field(params, "key", (str,)),
            payload=b"",
            attempts=wire.get_field(params, "attempts", (int,)),
            lease_expiry=0.0)

    def heartbeat(self, params: Dict[str, Any]) -> Dict[str, Any]:
        claim = self._decode_claim_stub(params)
        lease = wire.get_field(params, "lease_seconds", (int, float),
                               required=False)
        alive = self.broker.heartbeat(claim, lease_seconds=lease)
        return {"alive": bool(alive)}

    def complete(self, params: Dict[str, Any]) -> Dict[str, Any]:
        worker = wire.get_field(params, "worker", (str,), required=False)
        results = [wire.decode_completion(obj)
                   for obj in wire.get_field(params, "results", (list,))]
        # Value pickles are recorded verbatim, never loaded server-side.
        recorded = self.broker.complete_many_bytes(results, worker=worker)
        return {"recorded": recorded}

    def fail(self, params: Dict[str, Any]) -> Dict[str, Any]:
        claim = self._decode_claim_stub(params)
        error = wire.get_field(params, "error", (str,))
        transient = wire.get_field(params, "transient", (bool,),
                                   required=False, default=False)
        self.broker.fail(claim, error, transient=transient)
        return {"ok": True}

    def cancel(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sweep_id = wire.get_field(params, "sweep_id", (str,))
        return {"cancelled": self.broker.cancel(sweep_id)}

    def status(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sweep_id = wire.get_field(params, "sweep_id", (str,))
        return {"status": self.broker.status(sweep_id)}

    def sweeps(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"sweeps": self.broker.sweeps()}

    def finished_positions(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sweep_id = wire.get_field(params, "sweep_id", (str,))
        finished = self.broker.finished_positions(sweep_id)
        # JSON object keys are strings; the client converts back to int.
        return {"positions": {str(pos): state
                              for pos, state in finished.items()}}

    def retries(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sweep_id = wire.get_field(params, "sweep_id", (str,))
        return {"retries": self.broker.retries(sweep_id)}

    def fetch_results(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sweep_id = wire.get_field(params, "sweep_id", (str,))
        positions = wire.decode_positions(params)
        values = wire.get_field(params, "values", (bool,), required=False,
                                default=True)
        # Value pickles are relayed verbatim, never loaded server-side.
        rows = self.broker.fetch_result_rows(sweep_id, positions=positions,
                                             values=values)
        return {"results": [wire.encode_result_row(*row) for row in rows]}


def _error_body(kind: str, message: str,
                field: Optional[str] = None) -> Dict[str, Any]:
    error: Dict[str, Any] = {"type": kind, "message": message}
    if field is not None:
        error["field"] = field
    return {"version": wire.WIRE_VERSION, "error": error}


class _BrokerRequestHandler(BaseHTTPRequestHandler):
    # HTTP/1.1 keeps client connections alive between requests and makes
    # Content-Length mandatory on our side, which we always set.
    protocol_version = "HTTP/1.1"
    server_version = "repro-broker"
    # Headers and body leave in separate writes.  With Nagle's algorithm on,
    # the body then waits for the client's delayed ACK of the headers: about
    # 40 ms per request on a kept-alive connection.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT

    def log_message(self, fmt: str, *args: Any) -> None:
        if not getattr(self.server, "quiet", True):
            super().log_message(fmt, *args)

    # -- plumbing ----------------------------------------------------------
    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(data)

    def _send_error(self, status: int, kind: str, message: str,
                    field: Optional[str] = None) -> None:
        self._send_json(status, _error_body(kind, message, field))

    def _read_body(self) -> Optional[bytes]:
        """Request body, or ``None`` after replying 413 for oversized ones."""
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.server.max_request_bytes:
            # The oversized body is never read; the connection is unusable.
            self.close_connection = True
            self._send_error(
                413, "oversized-request",
                f"request body of {length} bytes exceeds the server cap of "
                f"{self.server.max_request_bytes} bytes")
            return None
        return self.rfile.read(length)

    # -- control plane -----------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if not self.path.startswith("/v1/"):
            self._send_error(404, "unknown-method",
                             f"no such endpoint {self.path!r}")
            return
        method = self.path[len("/v1/"):]
        handler = getattr(self.server.api, method, None)
        if method.startswith("_") or handler is None:
            self._send_error(404, "unknown-method",
                             f"no such broker method {method!r}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            message = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_error(400, "malformed-request",
                             "request body is not valid JSON")
            return
        try:
            wire.check_version(message)
        except wire.WireVersionError as exc:
            self._send_error(409, "wire-version-mismatch", str(exc))
            return
        params = message.get("params")
        if not isinstance(params, dict):
            self._send_error(400, "wire-error",
                             "wire field 'params' must be an object",
                             field="params")
            return
        try:
            result = handler(params)
        except wire.WireError as exc:
            self._send_error(400, "wire-error", str(exc), field=exc.field)
        except KeyError as exc:
            self._send_error(404, "unknown-sweep", str(exc.args[0]) if
                             exc.args else "unknown sweep")
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error(500, "internal-error",
                             f"{type(exc).__name__}: {exc}")
        else:
            self._send_json(200, {"version": wire.WIRE_VERSION,
                                  "result": result})

    def do_GET(self) -> None:  # noqa: N802
        if self.path != "/v1/ping":
            self._send_error(404, "unknown-method",
                             f"no such endpoint {self.path!r}")
            return
        broker = self.server.api.broker
        self._send_json(200, {
            "version": wire.WIRE_VERSION,
            "result": {"service": "repro-broker",
                       "wire_version": wire.WIRE_VERSION,
                       "lease_seconds": float(broker.lease_seconds)}})

    # Same status and headers as GET; _send_json leaves the body out.
    do_HEAD = do_GET

    def do_PUT(self) -> None:  # noqa: N802
        # No endpoint takes PUT.  The body stays unread, so the connection
        # cannot carry another request.
        self.close_connection = True
        self._send_error(404, "unknown-method",
                         f"no such endpoint {self.path!r}")


class _HTTPServer(ThreadingHTTPServer):
    """The threading server, tracking open client connections so that
    closing the server also ends the kept-alive ones."""

    def __init__(self, address: Tuple[str, int], api: _BrokerAPI, *,
                 max_request_bytes: int, quiet: bool) -> None:
        super().__init__(address, _BrokerRequestHandler)
        self.api = api
        self.max_request_bytes = max_request_bytes
        self.quiet = quiet
        self.connections: set = set()
        self._connections_changed = threading.Condition()

    def process_request(self, request: socket.socket,
                        client_address: Any) -> None:
        with self._connections_changed:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        super().shutdown_request(request)
        with self._connections_changed:
            self.connections.discard(request)
            self._connections_changed.notify_all()

    def close_connections(self, timeout: float = 5.0) -> None:
        """Shut down every open client socket, then wait for the handler
        threads to close them.  Each handler sees EOF and exits; a request
        in flight fails on its client, which retries.  (Handler threads are
        daemons, so ``server_close()`` does not join them.)"""
        with self._connections_changed:
            for sock in self.connections:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._connections_changed.wait_for(lambda: not self.connections,
                                               timeout)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that went away mid-exchange is not a server fault.
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


class BrokerServer:
    """A wire-speaking HTTP front for a :class:`SQLiteBroker`.

    >>> server = BrokerServer(SQLiteBroker("sweeps.db")).start()
    >>> server.url
    'http://127.0.0.1:49301'

    ``port=0`` (the default) picks a free port — read it back from
    ``.url``.  ``start()`` serves from a daemon thread and returns the
    server; ``serve_forever()`` blocks (the CLI path).  Always ``close()``:
    it also ends the connections clients keep alive.
    """

    def __init__(self, broker: SQLiteBroker, host: str = "127.0.0.1",
                 port: int = 0, *, memo=None, results=None,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                 quiet: bool = True) -> None:
        self.broker = broker
        self.api = _BrokerAPI(broker, memo=memo, results=results)
        self._httpd = _HTTPServer((host, port), self.api,
                                  max_request_bytes=max_request_bytes,
                                  quiet=quiet)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "BrokerServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-broker-server",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        # Checking for shutdown every 20 ms bounds how long close() waits;
        # an idle loop costs ~0.5% of a core.
        self._httpd.serve_forever(poll_interval=0.02)

    def close(self) -> None:
        if self._thread is not None:     # shutdown() waits for the loop
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.close_connections()
        self._httpd.server_close()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------
_TRANSIENT_EXCS = (OSError, http.client.HTTPException)


class _Connection(http.client.HTTPConnection):
    """A kept-alive connection that closes its socket once dropped: a
    thread's connection ends with the thread, a client's with the client."""

    def __del__(self) -> None:
        self.close()


class _TLSConnection(_Connection, http.client.HTTPSConnection):
    pass


class _Transport:
    """Keep-alive HTTP exchanges with retries: one connection per thread."""

    def __init__(self, base_url: str, *, timeout: float, retries: int,
                 backoff_seconds: float) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        self._connection_class = (_TLSConnection if parts.scheme == "https"
                                  else _Connection)
        self._netloc = parts.netloc
        self._prefix = parts.path
        self.timeout = timeout
        self.retries = max(1, int(retries))
        self.backoff_seconds = backoff_seconds
        self._local = threading.local()
        #: Every thread's live connection, for close().
        self._open: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._lock = threading.Lock()

    def _connection(self) -> _Connection:
        """The calling thread's connection, opened on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connection_class(
                self._netloc, timeout=self.timeout)
            with self._lock:
                self._open.add(connection)
        return connection

    def close(self) -> None:
        with self._lock:
            connections = list(self._open)
        for connection in connections:
            connection.close()

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None
                ) -> Tuple[int, bytes]:
        """One HTTP exchange with retries; returns ``(status, body)``.

        4xx responses return normally (the caller interprets them); 5xx and
        transport-level failures are retried with exponential backoff and
        finally raised as :class:`BrokerUnavailable`.  A kept-alive socket
        the server has since dropped is reopened at once, not counted as an
        attempt.
        """
        delay = self.backoff_seconds
        last: Any = None
        attempt = 0
        while attempt < self.retries:
            connection = self._connection()
            reused = connection.sock is not None
            try:
                connection.request(method, self._prefix + path, body=body,
                                   headers=headers or {})
                response = connection.getresponse()
                payload = response.read()
            except _TRANSIENT_EXCS as exc:
                connection.close()
                last = exc
                if reused and isinstance(exc, ConnectionError):
                    continue
            else:
                if response.status < 500:
                    return response.status, payload
                last = f"HTTP {response.status}"
            attempt += 1
            if attempt < self.retries:
                time.sleep(delay)
                delay *= 2
        raise BrokerUnavailable(
            f"broker at {self.base_url} unavailable after "
            f"{self.retries} attempt(s): {last}")


def _decoded_error(status: int, body: bytes) -> Exception:
    """Map an error response body to the typed exception it stands for."""
    try:
        message = json.loads(body.decode("utf-8"))
        error = message.get("error") or {}
        kind = error.get("type", "")
        text = error.get("message", "")
    except (ValueError, UnicodeDecodeError, AttributeError):
        kind, text = "", body.decode("utf-8", "replace")[:200]
    if kind == "wire-version-mismatch" or status == 409:
        return wire.WireVersionError(found=text or "unknown")
    if kind == "unknown-sweep":
        return KeyError(text or "unknown sweep")
    if kind in ("wire-error", "oversized-request", "malformed-request"):
        exc = wire.WireError(error.get("field", kind), "was rejected")
        exc.args = (text or exc.args[0],)
        return exc
    return RuntimeError(
        f"broker rejected request with HTTP {status}: {text or kind}")


class HTTPBroker:
    """Network :class:`Broker`: same protocol, no shared filesystem.

    ``lease_seconds`` defaults to the *server's* configured lease (fetched
    lazily from ``/v1/ping``), so a fleet inherits one coherent lease policy
    from the broker it connects to.

    The ``memo``/``results`` arguments of :meth:`create_sweep` are accepted
    for protocol compatibility but ignored: fleet-wide dedup stores are
    attached to the *server* (``repro broker serve --cache-dir/--results``),
    because client-side store handles are local file paths that mean nothing
    across the network.  Local pre-submit memo consultation still happens in
    :class:`~repro.dist.runner.DistributedRunner` before items are enqueued.
    """

    def __init__(self, url: str, *, lease_seconds: Optional[float] = None,
                 timeout: float = 30.0, retries: int = 5,
                 backoff_seconds: float = 0.2) -> None:
        self.url = url.rstrip("/")
        self._transport = _Transport(self.url, timeout=timeout,
                                     retries=retries,
                                     backoff_seconds=backoff_seconds)
        self._lease_seconds = lease_seconds

    # -- wire plumbing -----------------------------------------------------
    def _call(self, method: str, params: Dict[str, Any]) -> Dict[str, Any]:
        body = json.dumps({"version": wire.WIRE_VERSION,
                           "params": params}).encode("utf-8")
        status, payload = self._transport.request(
            "POST", f"/v1/{method}", body=body,
            headers={"Content-Type": "application/json"})
        if status != 200:
            raise _decoded_error(status, payload)
        message = json.loads(payload.decode("utf-8"))
        wire.check_version(message)
        return message["result"]

    def ping(self) -> Dict[str, Any]:
        """Server liveness + identity (wire version, lease policy)."""
        status, payload = self._transport.request("GET", "/v1/ping")
        if status != 200:
            raise _decoded_error(status, payload)
        message = json.loads(payload.decode("utf-8"))
        wire.check_version(message)
        return message["result"]

    @property
    def lease_seconds(self) -> float:
        if self._lease_seconds is None:
            self._lease_seconds = float(self.ping()["lease_seconds"])
        return self._lease_seconds

    def close(self) -> None:
        """Close the kept-alive connections; a later call reopens one."""
        self._transport.close()

    def __enter__(self) -> "HTTPBroker":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- Broker protocol ---------------------------------------------------
    def create_sweep(self, items: Sequence[WorkItem], label: str = "sweep",
                     spec: Optional[str] = None, memo=None,
                     results=None) -> SweepTicket:
        del memo, results  # server-side stores apply; see class docstring
        encoded = [wire.encode_work_item(item) for item in items]
        result = self._call("create_sweep", {"items": encoded,
                                             "label": label, "spec": spec})
        return wire.decode_ticket(
            wire.get_field(result, "ticket", (dict,)))

    def claim(self, worker: str,
              lease_seconds: Optional[float] = None) -> Optional[ClaimedJob]:
        jobs = self.claim_many(worker, 1, lease_seconds=lease_seconds)
        return jobs[0] if jobs else None

    def claim_many(self, worker: str, limit: int,
                   lease_seconds: Optional[float] = None) -> List[ClaimedJob]:
        result = self._call("claim", {"worker": worker, "limit": limit,
                                      "lease_seconds": lease_seconds})
        return [wire.decode_claim(job)
                for job in wire.get_field(result, "jobs", (list,))]

    def heartbeat(self, claim: ClaimedJob,
                  lease_seconds: Optional[float] = None) -> bool:
        result = self._call("heartbeat", {
            "sweep_id": claim.sweep_id, "position": claim.position,
            "key": claim.key, "attempts": claim.attempts,
            "lease_seconds": lease_seconds})
        return bool(result.get("alive"))

    def complete(self, key: str, value: Any,
                 worker: Optional[str] = None) -> bool:
        return self.complete_many([(key, value)], worker=worker)[0]

    def complete_many(self, results: Sequence[Tuple[str, Any]],
                      worker: Optional[str] = None) -> List[bool]:
        encoded = [wire.encode_completion(
            key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            for key, value in results]
        result = self._call("complete", {"results": encoded,
                                         "worker": worker})
        return [bool(flag) for flag in result["recorded"]]

    def fail(self, claim: ClaimedJob, error: str,
             transient: bool = False) -> None:
        self._call("fail", {
            "sweep_id": claim.sweep_id, "position": claim.position,
            "key": claim.key, "attempts": claim.attempts,
            "error": error, "transient": transient})

    def cancel(self, sweep_id: str) -> int:
        result = self._call("cancel", {"sweep_id": sweep_id})
        return int(result.get("cancelled", 0))

    def status(self, sweep_id: str) -> Dict[str, Any]:
        return self._call("status", {"sweep_id": sweep_id})["status"]

    def sweeps(self) -> List[Dict[str, Any]]:
        return self._call("sweeps", {})["sweeps"]

    def finished_positions(self, sweep_id: str) -> Dict[int, str]:
        result = self._call("finished_positions", {"sweep_id": sweep_id})
        return {int(pos): state
                for pos, state in result["positions"].items()}

    def retries(self, sweep_id: str) -> int:
        return int(self._call("retries", {"sweep_id": sweep_id})["retries"])

    def fetch_results(self, sweep_id: str,
                      positions: Optional[Sequence[int]] = None, *,
                      values: bool = True) -> List[JobResult]:
        params: Dict[str, Any] = {"sweep_id": sweep_id, "values": values}
        if positions is not None:
            params["positions"] = [int(p) for p in positions]
        rows = self._call("fetch_results", params)["results"]
        return [wire.decode_result_row(obj) for obj in rows]
