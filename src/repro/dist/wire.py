"""Versioned JSON wire format for broker control messages.

The HTTP backend (:mod:`repro.dist.http`) does not invent a protocol of its
own — it speaks *this* module: one schema version, one envelope shape, one
blob encoding, shared by the client and the server so the contract lives in
exactly one place.

Envelope::

    request   POST /v1/<method>
              {"version": 2, "params": {...}}
    response  200
              {"version": 2, "result": ...}
    error     4xx/5xx
              {"version": 2, "error": {"type": "...", "message": "...",
                                       "field": "..."?}}

Control methods mirror the :class:`~repro.dist.broker.Broker` protocol:
``create_sweep``, ``claim``, ``heartbeat``, ``complete``, ``fail``,
``cancel``, ``status``, ``sweeps``, ``finished_positions``,
``fetch_results``, ``retries``.  Claims and completions travel in batches
(version 2; version 1 moved one job per request)::

    claim     params  {"worker": "w1", "limit": 16, "lease_seconds": 30?}
              result  {"jobs": [{"sweep_id", "position", "key", "payload",
                                 "attempts", "lease_expiry"}, ...]}
    complete  params  {"worker": "w1"?, "results": [{"key": "...",
                                                     "value": <blob>}, ...]}
              result  {"recorded": [true, false, ...]}

``jobs`` is empty when nothing is runnable and never holds more than the
broker's fair share of the queue (see :mod:`repro.dist.broker`), however
large ``limit`` is.  ``recorded`` has one flag per result, true where that
result was the first for its key.

Payloads and result values are opaque byte strings; on the wire they are a
*blob object*: ``{"inline": "<base64>"}`` for small blobs, or
``{"blob": "<sha256>", "size": N}`` for large ones, where the bytes travel
separately through a :class:`~repro.dist.blobs.BlobStore` (content-addressed
``PUT``/``GET`` endpoints on the server).  ``DEFAULT_INLINE_LIMIT`` (in
:mod:`repro.dist.blobs`) decides the split.

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
import binascii
import pickle
from typing import Any, Dict, List, Optional, Tuple

from .blobs import DEFAULT_INLINE_LIMIT, BlobStore
from .broker import ClaimedJob, JobResult, SweepTicket, WorkItem

#: Bump on any incompatible change to the message shapes above.  Client and
#: server both refuse mismatched peers (WireVersionError / HTTP 409).
WIRE_VERSION = 2

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
# Blob objects: how opaque bytes travel
# ---------------------------------------------------------------------------
def pack_blob(data: bytes, store: Optional[BlobStore] = None,
              inline_limit: int = DEFAULT_INLINE_LIMIT) -> Dict[str, Any]:
    """Bytes -> wire blob object (inline base64, or a blob-store ref)."""
    if store is None or len(data) <= inline_limit:
        return {"inline": base64.b64encode(data).decode("ascii")}
    return {"blob": store.put(data), "size": len(data)}


def unpack_blob(obj: Any, store: Optional[BlobStore] = None,
                field: str = "payload") -> bytes:
    """Wire blob object -> bytes (fetching referenced blobs from ``store``)."""
    if not isinstance(obj, dict):
        raise WireError(field, "must be a blob object")
    if "inline" in obj:
        text = get_field(obj, "inline", (str,))
        try:
            return base64.b64decode(text.encode("ascii"), validate=True)
        except (ValueError, binascii.Error):
            raise WireError(field, "carries invalid base64") from None
    if "blob" in obj:
        digest = get_field(obj, "blob", (str,))
        if store is None:
            raise WireError(field, "references a blob but no blob store "
                                   "is attached")
        try:
            return store.get(digest)
        except KeyError:
            raise WireError(
                field, f"references unknown blob {digest[:12]}…") from None
    raise WireError(field, "must carry 'inline' or 'blob'")


# ---------------------------------------------------------------------------
# Message bodies: broker dataclasses <-> JSON-able dicts
# ---------------------------------------------------------------------------
def encode_work_item(item: WorkItem, store: Optional[BlobStore] = None,
                     inline_limit: int = DEFAULT_INLINE_LIMIT
                     ) -> Dict[str, Any]:
    return {"key": item.key,
            "payload": pack_blob(item.payload, store, inline_limit),
            "meta": item.meta}


def decode_work_item(obj: Any, store: Optional[BlobStore] = None) -> WorkItem:
    return WorkItem(
        key=get_field(obj, "key", (str,)),
        payload=unpack_blob(get_field(obj, "payload", (dict,)), store),
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


def encode_claim(claim: ClaimedJob, store: Optional[BlobStore] = None,
                 inline_limit: int = DEFAULT_INLINE_LIMIT) -> Dict[str, Any]:
    return {"sweep_id": claim.sweep_id, "position": claim.position,
            "key": claim.key,
            "payload": pack_blob(claim.payload, store, inline_limit),
            "attempts": claim.attempts, "lease_expiry": claim.lease_expiry}


def decode_claim(obj: Any, store: Optional[BlobStore] = None) -> ClaimedJob:
    return ClaimedJob(
        sweep_id=get_field(obj, "sweep_id", (str,)),
        position=get_field(obj, "position", (int,)),
        key=get_field(obj, "key", (str,)),
        payload=unpack_blob(get_field(obj, "payload", (dict,)), store),
        attempts=get_field(obj, "attempts", (int,)),
        lease_expiry=float(get_field(obj, "lease_expiry", (int, float))))


def encode_completion(key: str, payload: bytes,
                      store: Optional[BlobStore] = None,
                      inline_limit: int = DEFAULT_INLINE_LIMIT
                      ) -> Dict[str, Any]:
    """One ``complete`` result: a key and its value pickle."""
    return {"key": key, "value": pack_blob(payload, store, inline_limit)}


def decode_completion(obj: Any, store: Optional[BlobStore] = None
                      ) -> Tuple[str, bytes]:
    """Wire dict -> ``(key, value pickle)``; the bytes stay unpickled."""
    return (get_field(obj, "key", (str,)),
            unpack_blob(get_field(obj, "value", (dict,)), store,
                        field="value"))


def encode_result_row(position: int, key: str, state: str,
                      meta: Optional[Dict[str, Any]], error: Optional[str],
                      worker: Optional[str], payload: Optional[bytes],
                      store: Optional[BlobStore] = None,
                      inline_limit: int = DEFAULT_INLINE_LIMIT
                      ) -> Dict[str, Any]:
    """One finished job row -> wire dict (``payload`` = raw value pickle).

    The server relays stored value bytes verbatim — it never unpickles
    results, so it needs none of the classes the values are made of.
    """
    record: Dict[str, Any] = {"position": position, "key": key,
                              "state": state, "meta": meta, "error": error,
                              "worker": worker}
    if payload is not None:
        record["value"] = pack_blob(payload, store, inline_limit)
    return record


def decode_result_row(obj: Any, store: Optional[BlobStore] = None
                      ) -> JobResult:
    """Wire dict -> :class:`JobResult`, unpickling the value client-side."""
    state = get_field(obj, "state", (str,))
    if state not in _RESULT_STATES:
        raise WireError("state", f"must be one of {_RESULT_STATES}")
    value = None
    if obj.get("value") is not None:
        value = pickle.loads(unpack_blob(obj["value"], store, field="value"))
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
