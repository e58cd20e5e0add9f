"""Versioned JSON wire format for broker control messages.

The HTTP backend (:mod:`repro.dist.http`) does not invent a protocol of its
own — it speaks *this* module: one schema version, one envelope shape, one
byte encoding, shared by the client and the server so the contract lives in
exactly one place.

Envelope::

    request   POST /v1/<method>
              {"version": 3, "params": {...}}
    response  200
              {"version": 3, "result": ...}
    error     4xx/5xx
              {"version": 3, "error": {"type": "...", "message": "...",
                                       "field": "..."?}}

Control methods mirror the :class:`~repro.dist.broker.Broker` protocol:
``create_sweep``, ``claim``, ``heartbeat``, ``complete``, ``fail``,
``cancel``, ``status``, ``sweeps``, ``finished_positions``,
``fetch_results``, ``retries``.  Claims and completions travel in batches::

    claim     params  {"worker": "w1", "limit": 16, "lease_seconds": 30?}
              result  {"jobs": [{"sweep_id", "position", "key", "payload",
                                 "attempts", "lease_expiry"}, ...]}
    complete  params  {"worker": "w1"?, "results": [{"key": "...",
                                                     "value": "<base64>"},
                                                    ...]}
              result  {"recorded": [true, false, ...]}

``jobs`` is empty when nothing is runnable and never holds more than the
broker's fair share of the queue (see :mod:`repro.dist.broker`), however
large ``limit`` is.  ``recorded`` has one flag per result, true where that
result was the first for its key.

Payloads and result values are opaque byte strings (pickles); on the wire
each is a plain base64 string inside the message, so a request's size is
bounded only by the server's request cap.

Validation is field-level, mirroring the service layer's
:class:`~repro.dist.service.SpecError`: a malformed message raises
:class:`WireError` naming the offending field, which the server maps to a
400 response carrying the same field name — submitters learn *what* was
wrong, not just that something was.  A peer speaking a different schema
version raises :class:`WireVersionError` (the
:class:`~repro.store.SchemaMismatchError`-style guard: fail loudly, never
guess).

Retry semantics note: ``complete``/``heartbeat``/``fail``/``cancel`` are
idempotent at the broker, so clients may retry them blindly on transient
transport failures.  ``create_sweep`` is not — a retried enqueue whose
first attempt actually landed creates a second sweep (its jobs still dedup
per key, so no work is repeated; only the ticket differs).  Nor is
``claim``: a retried claim whose first reply was lost leaves that reply's
leases orphaned until they expire, after which the jobs are re-leased.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any, Dict, List, Optional, Tuple

from .broker import ClaimedJob, JobResult, SweepTicket, WorkItem

#: Bump on any incompatible change to the message shapes above.  Client and
#: server both refuse mismatched peers (WireVersionError / HTTP 409).
WIRE_VERSION = 3

#: Job states a finished-row message may carry.
_RESULT_STATES = ("done", "failed", "cancelled")


class WireError(ValueError):
    """A wire message failed validation; ``field`` names the culprit."""

    def __init__(self, field: str, problem: str) -> None:
        self.field = field
        super().__init__(f"wire field {field!r} {problem}")


class WireVersionError(RuntimeError):
    """Peer speaks a different wire schema version; upgrade the older side."""

    def __init__(self, found: Any, expected: int = WIRE_VERSION) -> None:
        self.found = found
        self.expected = expected
        super().__init__(
            f"wire schema version mismatch: peer speaks {found!r}, this "
            f"build speaks {expected} — upgrade the older side")


def check_version(message: Any) -> None:
    """Raise :class:`WireVersionError` unless ``message`` carries ours."""
    found = message.get("version") if isinstance(message, dict) else None
    if found != WIRE_VERSION:
        raise WireVersionError(found)


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "a boolean", dict: "an object", list: "an array"}


def get_field(params: Any, name: str, kinds: Tuple[type, ...], *,
              required: bool = True, default: Any = None) -> Any:
    """Validated field access: raises :class:`WireError` naming ``name``.

    ``None``-valued fields count as absent (JSON ``null``), and booleans
    never satisfy an integer/number requirement (``True`` is not a lease
    duration).
    """
    if not isinstance(params, dict):
        raise WireError(name, "must live in an object")
    value = params.get(name)
    if value is None:
        if required:
            raise WireError(name, "is required")
        return default
    if isinstance(value, bool) and bool not in kinds:
        raise WireError(name, "must not be a boolean")
    if not isinstance(value, kinds):
        wanted = " or ".join(_TYPE_NAMES.get(kind, kind.__name__)
                             for kind in kinds)
        raise WireError(name, f"must be {wanted}")
    return value


# ---------------------------------------------------------------------------
# Message bodies: broker dataclasses <-> JSON-able dicts
# ---------------------------------------------------------------------------
def encode_bytes(data: bytes) -> str:
    """Opaque bytes -> their wire form, a base64 string."""
    return base64.b64encode(data).decode("ascii")


def decode_bytes(obj: Any, field: str) -> bytes:
    """The base64 string field ``field`` of ``obj`` -> bytes."""
    text = get_field(obj, field, (str,))
    try:
        return base64.b64decode(text, validate=True)
    except ValueError:      # binascii.Error, or text that is not ASCII
        raise WireError(field, "carries invalid base64") from None


def encode_work_item(item: WorkItem) -> Dict[str, Any]:
    return {"key": item.key, "payload": encode_bytes(item.payload),
            "meta": item.meta}


def decode_work_item(obj: Any) -> WorkItem:
    return WorkItem(
        key=get_field(obj, "key", (str,)),
        payload=decode_bytes(obj, "payload"),
        meta=get_field(obj, "meta", (dict,), required=False))


def encode_ticket(ticket: SweepTicket) -> Dict[str, Any]:
    return {"sweep_id": ticket.sweep_id, "total": ticket.total,
            "already_done": ticket.already_done,
            "done_keys": sorted(ticket.done_keys)}


def decode_ticket(obj: Any) -> SweepTicket:
    keys = get_field(obj, "done_keys", (list,), required=False, default=[])
    if not all(isinstance(key, str) for key in keys):
        raise WireError("done_keys", "must be an array of strings")
    return SweepTicket(
        sweep_id=get_field(obj, "sweep_id", (str,)),
        total=get_field(obj, "total", (int,)),
        already_done=get_field(obj, "already_done", (int,)),
        done_keys=frozenset(keys))


def encode_claim(claim: ClaimedJob) -> Dict[str, Any]:
    return {"sweep_id": claim.sweep_id, "position": claim.position,
            "key": claim.key, "payload": encode_bytes(claim.payload),
            "attempts": claim.attempts, "lease_expiry": claim.lease_expiry}


def decode_claim(obj: Any) -> ClaimedJob:
    return ClaimedJob(
        sweep_id=get_field(obj, "sweep_id", (str,)),
        position=get_field(obj, "position", (int,)),
        key=get_field(obj, "key", (str,)),
        payload=decode_bytes(obj, "payload"),
        attempts=get_field(obj, "attempts", (int,)),
        lease_expiry=float(get_field(obj, "lease_expiry", (int, float))))


def encode_completion(key: str, payload: bytes) -> Dict[str, Any]:
    """One ``complete`` result: a key and its value pickle."""
    return {"key": key, "value": encode_bytes(payload)}


def decode_completion(obj: Any) -> Tuple[str, bytes]:
    """Wire dict -> ``(key, value pickle)``; the bytes stay unpickled."""
    return get_field(obj, "key", (str,)), decode_bytes(obj, "value")


def encode_result_row(position: int, key: str, state: str,
                      meta: Optional[Dict[str, Any]], error: Optional[str],
                      worker: Optional[str], payload: Optional[bytes]
                      ) -> Dict[str, Any]:
    """One finished job row -> wire dict (``payload`` = raw value pickle).

    The server relays stored value bytes verbatim — it never unpickles
    results, so it needs none of the classes the values are made of.
    """
    record: Dict[str, Any] = {"position": position, "key": key,
                              "state": state, "meta": meta, "error": error,
                              "worker": worker}
    if payload is not None:
        record["value"] = encode_bytes(payload)
    return record


def decode_result_row(obj: Any) -> JobResult:
    """Wire dict -> :class:`JobResult`, unpickling the value client-side."""
    state = get_field(obj, "state", (str,))
    if state not in _RESULT_STATES:
        raise WireError("state", f"must be one of {_RESULT_STATES}")
    value = None
    if obj.get("value") is not None:
        value = pickle.loads(decode_bytes(obj, "value"))
    return JobResult(
        position=get_field(obj, "position", (int,)),
        key=get_field(obj, "key", (str,)),
        state=state,
        meta=get_field(obj, "meta", (dict,), required=False),
        error=get_field(obj, "error", (str,), required=False),
        value=value,
        worker=get_field(obj, "worker", (str,), required=False))


def decode_positions(obj: Any) -> Optional[List[int]]:
    """The optional ``positions`` filter of ``fetch_results``."""
    positions = get_field(obj, "positions", (list,), required=False)
    if positions is None:
        return None
    if not all(isinstance(p, int) and not isinstance(p, bool)
               for p in positions):
        raise WireError("positions", "must be an array of integers")
    return positions
