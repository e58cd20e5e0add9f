"""Distributed sweep execution: broker, workers, runner, service front-end.

The distributed tier moves sweep execution from one process's pool to a
fleet coordinated through a shared work queue, without changing any caller:

* :mod:`~repro.dist.broker` — the :class:`Broker` protocol, the
  :class:`SQLiteBroker` reference implementation (leases, bounded retries,
  exponential backoff, idempotent per-key completion, enqueue-time memo
  consult), and :func:`connect_broker`, the broker-URL front door
  (``sqlite:///path`` / bare path / ``http://host:port``; third-party
  backends plug in with :func:`register_broker_scheme`),
* :mod:`~repro.dist.wire` — the versioned JSON wire format the HTTP
  backend speaks (payloads and result values travel inside each message,
  base64-encoded),
* :mod:`~repro.dist.http` — :class:`BrokerServer` (``repro broker serve``)
  and the :class:`HTTPBroker` client: the fleet without a shared
  filesystem,
* :mod:`~repro.dist.worker` — the claim-lease-run-report loop behind
  ``repro worker``, with lease heartbeats,
* :mod:`~repro.dist.runner` — :class:`DistributedRunner`, a
  :class:`~repro.exec.runner.SweepRunner` whose misses run on the fleet,
  for the ``runner=`` seam,
* :mod:`~repro.dist.service` — the JSON submit/status/results layer behind
  ``repro sweep``.
"""

from .broker import (Broker, ClaimedJob, JobResult, SQLiteBroker, SweepTicket,
                     WorkItem, broker_schemes, connect_broker,
                     register_broker_scheme)
from .http import BrokerServer, BrokerUnavailable, HTTPBroker
from .runner import DistributedJobError, DistributedRunner
from .service import (SpecError, expand_spec, iter_results, submit_sweep,
                      sweep_status)
from .wire import WIRE_VERSION, WireError, WireVersionError
from .worker import Worker, worker_main

__all__ = [
    "Broker", "SQLiteBroker", "WorkItem", "SweepTicket", "ClaimedJob",
    "JobResult", "Worker", "worker_main", "DistributedRunner",
    "DistributedJobError", "SpecError", "expand_spec", "submit_sweep",
    "sweep_status", "iter_results", "connect_broker",
    "register_broker_scheme", "broker_schemes", "BrokerServer", "HTTPBroker",
    "BrokerUnavailable", "WireError", "WireVersionError", "WIRE_VERSION",
]
