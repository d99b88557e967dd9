"""The concurrent serving subsystem (pooled sessions, scheduler, server).

Layers, bottom-up:

* :class:`~repro.serve.request.Request` — the hashable unit of work: an
  evaluation family plus canonical parameters;
* :class:`~repro.serve.pool.SessionPool` — shares one annotated
  :class:`~repro.db.annotated.KDatabase` bundle (columnar views, packed
  Shapley kernel state, result memo) across every
  :class:`~repro.engine.session.EngineSession` bound to the same
  ``(query, data sources)``, with version-keyed invalidation hooks;
* :class:`~repro.serve.scheduler.Scheduler` — a thread-safe queue plus
  worker threads, coalescing duplicate in-flight requests (single-flight)
  and batching per-fact Shapley/Banzhaf floods into whole-instance sweeps;
* :class:`~repro.serve.server.Server` — the futures front-end
  (``submit``/``map``/``close``) binding one serving target, backing the
  ``repro serve`` CLI.

Cross-cutting robustness (all default-off; see
:mod:`repro.serve.admission` and :mod:`repro.serve.faults`):
:class:`~repro.serve.admission.AdmissionControl` bounds the queue, rate
limits per family and applies deadlines (enforced at claim time with
:class:`~repro.exceptions.DeadlineExceeded`);
:class:`~repro.serve.admission.RetryPolicy` retries transient failures
with jittered exponential backoff;
:class:`~repro.serve.admission.CircuitBreaker` degrades a failing
session's kernel tier (bit-identically) before failing fast; the
scheduler supervises its workers, respawning dead ones and re-queueing
their claimed requests; and :class:`~repro.serve.faults.FaultInjector`
is the seeded chaos harness that proves all of the above in
``tests/test_faults.py``.

Every request is executed through the session's memoizing
:meth:`~repro.engine.session.EngineSession.request` entry point, so all
answers are bit-identical to serial one-shot evaluation by construction.

The stack is network-reachable through
:class:`~repro.serve.http.HttpFrontend` (stdlib asyncio; ``repro serve
--http PORT``) and observable end to end through :mod:`repro.obs`:
per-family request counters, latency histograms and queue/breaker gauges
compose into one Prometheus exposition at ``GET /metrics``, and every
request carries a :class:`repro.obs.Trace` of its lifecycle.
"""

from repro.serve.admission import (
    AdmissionControl,
    CircuitBreaker,
    RetryPolicy,
    TokenBucket,
)
from repro.serve.faults import FaultInjector, FaultPlan, WorkerKilled
from repro.serve.http import HttpFrontend
from repro.serve.io import load_request_stream, request_from_dict
from repro.serve.pool import SessionPool
from repro.serve.request import Request
from repro.serve.scheduler import Scheduler
from repro.serve.server import Server, serve_requests

__all__ = [
    "AdmissionControl",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "HttpFrontend",
    "Request",
    "RetryPolicy",
    "Scheduler",
    "Server",
    "SessionPool",
    "TokenBucket",
    "WorkerKilled",
    "load_request_stream",
    "request_from_dict",
    "serve_requests",
]
