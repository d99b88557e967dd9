"""Request scheduler: queueing, single-flight, batching, fault tolerance.

The scheduler turns a stream of :class:`~repro.serve.request.Request`
objects into session work on a pool of worker threads, with two
serving-layer optimizations the one-shot front-ends cannot express:

* **single-flight coalescing** — concurrent requests with the same
  signature against the same session attach to one in-flight execution and
  all receive its result; the duplicate work is never enqueued (and once a
  flight completes, later duplicates are answered by the session memo);
* **sweep batching** — per-fact Shapley/Banzhaf requests pending against
  one session are claimed together by one worker; when the batch covers
  enough of the endogenous facts, the worker runs **one**
  ``shapley_values()``/``banzhaf_values()`` sweep (memoized on the session)
  and answers every claimed request from it, instead of paying the
  2-run reduction once per request.  Smaller batches still drain on one
  worker — per-fact requests serialize on the session's Shapley lock
  anyway, so claiming them frees the other workers for other families.

On top of that sits the robustness layer (all features default-off, so an
unconfigured scheduler behaves — and costs — exactly like the
pre-robustness one):

* **admission control** (:class:`~repro.serve.admission.AdmissionControl`)
  — a bounded pending queue (reject with
  :class:`~repro.exceptions.QueueFullError` or shed the oldest queued
  request), per-family token-bucket rate limiting, and per-request
  deadlines checked **at claim time**: an expired request resolves with
  :class:`~repro.exceptions.DeadlineExceeded` before any execution, so
  queued-but-dead work costs nothing;
* **retries** (:class:`~repro.serve.admission.RetryPolicy`) — transient
  execution failures retry with exponential backoff + jitter under a
  per-request budget;
* **worker supervision** — a worker that dies on an escaped exception
  (a bug, or an injected :class:`~repro.serve.faults.WorkerKilled`) is
  detected and respawned; its claimed flights are re-queued (up to
  ``requeue_limit`` deaths per flight) or failed with
  :class:`~repro.exceptions.TransientError` — never stranded;
* **circuit breaking** (:class:`~repro.serve.admission.CircuitBreaker`) —
  repeated kernel failures degrade a session's tier to the batched
  kernels (bit-identical results) and, if failures persist, fail requests
  fast with :class:`~repro.exceptions.CircuitOpenError` until a cool-down;
* **fault injection** (:class:`~repro.serve.faults.FaultInjector`) — the
  seeded chaos harness behind the ``tests/test_faults.py`` suite; when
  installed it also supplies the scheduler's clock (skewable).

Execution itself goes through
:meth:`~repro.engine.session.EngineSession.request`, so every answer is
memoized under its signature + database-version fingerprint and stays
bit-identical to a serial one-shot evaluation (same code path, same fold
order).
"""

from __future__ import annotations

import queue
import random
import threading
import time
from concurrent.futures import Future

from repro.engine.session import (
    _BINDING_FAMILIES as _FUSED_FAMILIES,
    _DERIVED_FROM,
    EngineSession,
)
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    QueueFullError,
    RateLimitedError,
    ReproError,
    TransientError,
)
from repro.obs import EventLog, MetricsRegistry, Trace, trace_of
from repro.serve.admission import (
    AdmissionControl,
    CircuitBreaker,
    RetryPolicy,
    validate_worker_count,
)
from repro.serve.faults import FaultInjector
from repro.serve.request import Request

#: Families answerable from one memoized whole-instance sweep: the
#: session's derivation table, so a new sweep family is added there once.
#: Only the per-fact families (Shapley, Banzhaf) ever batch: ``sat_counts``
#: takes no parameters, so its requests always coalesce into one flight.
#: ``_FUSED_FAMILIES`` (the session's binding families) batch into one
#: shared columnar scan instead (:mod:`repro.core.fused`).
_SWEEPS = {family: sweep for family, (sweep, _derive) in _DERIVED_FROM.items()}

#: Every scheduler lifecycle event, by its historical ``stats()`` key.
#: These are the children of ``repro_scheduler_events_total{event=…}``;
#: :meth:`Scheduler.stats` is generated from one snapshot of this family,
#: so its keys and the Prometheus series can never disagree.
EVENT_COUNTERS = (
    "submitted",
    "coalesced",
    "executed",
    "sweeps",
    "swept_requests",
    "sweep_failures",
    "fused_batches",
    "fused_queries",
    "fused_failures",
    "timeouts",
    "retries",
    "worker_deaths",
    "worker_respawns",
    "requeued",
    "unresolved_at_close",
)

#: The batching-effectiveness subset, nested under ``stats()["batching"]``.
BATCHING_EVENTS = (
    "sweeps",
    "swept_requests",
    "sweep_failures",
    "fused_batches",
    "fused_queries",
    "fused_failures",
)

#: The headline counters the CLI ``--stats`` printer reports, in print
#: order.  Each name is a :meth:`Scheduler.stats` key, flat or under
#: ``"batching"``; the printer iterates this tuple, so adding a counter
#: here is the whole change.
HEADLINE_COUNTERS = (
    "coalesced",
    "executed",
    "sweeps",
    "swept_requests",
    "sweep_failures",
    "fused_batches",
    "fused_queries",
    "rejected",
    "shed",
    "rate_limited",
    "timeouts",
    "retries",
    "worker_respawns",
    "breaker_trips",
)


def classify_outcome(error: BaseException | None) -> str:
    """The ``repro_requests_total`` outcome label for a resolution *error*.

    ``None`` is ``"ok"``; the serving-layer error taxonomy maps onto
    stable label values so dashboards can split availability by cause.

    >>> classify_outcome(None)
    'ok'
    >>> classify_outcome(DeadlineExceeded("late"))
    'deadline'
    """
    if error is None:
        return "ok"
    if isinstance(error, DeadlineExceeded):
        return "deadline"
    # RateLimitedError subclasses QueueFullError: check the subclass first.
    if isinstance(error, RateLimitedError):
        return "rate_limited"
    if isinstance(error, QueueFullError):
        return "queue_full"
    if isinstance(error, CircuitOpenError):
        return "circuit_open"
    if isinstance(error, TransientError):
        return "transient"
    return "error"


def _fusable(request: Request) -> bool:
    """Whether *request* can join a shared-scan fused batch."""
    return (
        request.family in _FUSED_FAMILIES
        and "binding" in request.kwargs
    )

_SHUTDOWN = object()


class _Flight:
    """One in-flight signature: the execution every duplicate attaches to.

    ``entries`` pairs each attached future with its absolute expiry (or
    ``None``); ``requeues`` counts worker deaths survived, bounding how
    often supervision may re-queue the flight before failing it.
    """

    __slots__ = ("session", "request", "entries", "claimed", "requeues")

    def __init__(self, session: EngineSession, request: Request):
        self.session = session
        self.request = request
        self.entries: list[tuple[Future, float | None]] = []
        self.claimed = False
        self.requeues = 0


class Scheduler:
    """Runs session requests on worker threads with coalescing and batching.

    Parameters
    ----------
    workers:
        Worker-thread count (validated by
        :func:`repro.serve.admission.validate_worker_count`, the single
        helper shared with the CLI's ``--workers``).  Results are
        independent of the count — the concurrency stress tests assert
        bit-identical answers against serial evaluation for every tier.
    admission:
        Admission policy (queue bound, rate limits, default deadline).
        Defaults to a no-limits :class:`AdmissionControl`.
    retry:
        Retry policy for transient failures.  Defaults to no retries.
    breaker:
        Optional per-session :class:`CircuitBreaker`.
    faults:
        Optional seeded :class:`FaultInjector`; when given it also
        supplies the scheduler's clock (so deadlines and breaker
        cool-downs honor injected skew).
    requeue_limit:
        How many worker deaths one flight survives (re-queued each time)
        before its futures fail with :class:`TransientError`.
    event_log:
        Optional :class:`repro.obs.EventLog`; every resolved request's
        trace is appended to it as one JSON line (the flight recorder).
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        admission: AdmissionControl | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        faults: FaultInjector | None = None,
        requeue_limit: int = 5,
        event_log: EventLog | None = None,
    ):
        validate_worker_count(workers, what="worker")
        self.workers = workers
        self.requeue_limit = requeue_limit
        self._admission = admission if admission is not None else AdmissionControl()
        self._retry = retry if retry is not None else RetryPolicy()
        self._breaker = breaker
        self._faults = faults
        self._event_log = event_log
        self._clock = faults.clock if faults is not None else time.monotonic
        self._retry_rng = (
            faults.retry_rng() if faults is not None else random.Random(0x5EED)
        )
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._settle_lock = threading.Lock()  # first _resolve wins a future
        self._pending: dict[tuple, _Flight] = {}
        self._queued = 0  # unclaimed flights (the bounded-queue depth)
        self._closed = False
        # Every work/robustness counter lives on the registry; stats() and
        # the /metrics exposition are two views over the same children.
        self.metrics_registry = MetricsRegistry()
        events = self.metrics_registry.counter(
            "repro_scheduler_events_total",
            "Scheduler lifecycle events (submissions, batches, faults).",
            labels=("event",),
        )
        self._events = {name: events.labels(event=name) for name in EVENT_COUNTERS}
        self._requests_total = self.metrics_registry.counter(
            "repro_requests_total",
            "Resolved (or rejected-at-submit) requests by family and outcome.",
            labels=("family", "outcome"),
        )
        self._latency = self.metrics_registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency (submission to resolution).",
            labels=("family",),
        )
        self.metrics_registry.gauge(
            "repro_queue_depth", "Unclaimed flights waiting in the queue."
        ).labels().set_function(lambda: self._queued)
        self.metrics_registry.gauge(
            "repro_pending_flights",
            "In-flight signatures (queued or executing).",
        ).labels().set_function(lambda: len(self._pending))
        self.metrics_registry.gauge(
            "repro_scheduler_workers", "Configured worker-thread count."
        ).labels().set(workers)
        self._admission.observe(self.metrics_registry)
        if self._breaker is not None:
            self._breaker.observe(self.metrics_registry)
        self._threads = [
            threading.Thread(
                target=self._work, name=f"repro-serve-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, session: EngineSession, request: Request) -> Future:
        """Enqueue *request* against *session*; returns a future.

        A request whose signature is already in flight on the same session
        coalesces onto the existing execution instead of enqueueing.
        Admission control runs first: an open circuit raises
        :class:`CircuitOpenError`, a dry token bucket
        :class:`~repro.exceptions.RateLimitedError`, and a full queue
        :class:`QueueFullError` (or sheds the oldest queued request,
        depending on the policy).
        """
        request.validate()
        key = (id(session), request.signature)
        future: Future = Future()
        trace = Trace(request.family)
        trace.mark("submitted")
        future._repro_trace = trace
        object.__setattr__(request, "trace", trace)
        now = self._clock()
        shed: list[tuple[Future, BaseException]] = []
        try:
            with self._lock:
                if self._closed:
                    raise ReproError("scheduler is closed")
                if self._breaker is not None and self._breaker.reject(
                    session, now
                ):
                    raise CircuitOpenError(
                        "circuit open for this session; retry after cool-down"
                    )
                self._admission.admit(request.family, now)
                expiry = self._admission.expiry_for(request, now)
                flight = self._pending.get(key)
                if flight is not None:
                    flight.entries.append((future, expiry))
                    self._events["submitted"].inc()
                    self._events["coalesced"].inc()
                    trace.mark("coalesced")
                    return future
                limit = self._admission.queue_limit
                if limit is not None and self._queued >= limit:
                    if self._admission.shed_policy == "reject":
                        self._admission.count_rejected()
                        raise QueueFullError(
                            f"request queue is full "
                            f"({self._queued}/{limit} pending)"
                        )
                    shed = self._shed_oldest_locked(limit)
                flight = _Flight(session, request)
                flight.entries.append((future, expiry))
                self._pending[key] = flight
                self._queued += 1
                self._events["submitted"].inc()
                trace.mark("enqueued")
                # Enqueue under the lock: close() also sets _closed under
                # it, so every accepted flight's key is in the queue before
                # the shutdown sentinels — no future can be left unserved.
                self._queue.put(key)
            return future
        except BaseException as error:
            # Rejected at submission: no future resolution will happen, so
            # account the request (and close its trace) here.
            outcome = classify_outcome(error)
            trace.mark("resolved", outcome=outcome)
            self._requests_total.labels(
                family=request.family, outcome=outcome
            ).inc()
            if self._event_log is not None:
                self._event_log.record(trace)
            raise
        finally:
            for victim, error in shed:
                self._resolve(victim, None, error)

    def _shed_oldest_locked(
        self, limit: int
    ) -> list[tuple[Future, BaseException]]:
        """Drop the oldest unclaimed flight(s) to make room (lock held)."""
        shed: list[tuple[Future, BaseException]] = []
        for key, flight in list(self._pending.items()):
            if self._queued < limit:
                break
            if flight.claimed:
                continue
            del self._pending[key]
            self._queued -= 1
            self._admission.count_shed()
            error = QueueFullError(
                f"shed from a full request queue (limit {limit})"
            )
            shed.extend((future, error) for future, _expiry in flight.entries)
        return shed

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _work(self) -> None:
        while True:
            key = self._queue.get()
            if key is _SHUTDOWN:
                return
            batch = self._claim(key)
            if not batch:
                continue
            try:
                if self._faults is not None:
                    self._faults.on_claim()
                self._execute(batch)
            except BaseException as error:
                # Supervision: recover the claimed flights, respawn a
                # replacement worker, and let this thread die.
                self._recover(batch, error)
                return

    def _claim_one_locked(
        self,
        key: tuple,
        flight: _Flight,
        now: float,
        to_resolve: list[tuple[Future, BaseException | None, object]],
    ) -> bool:
        """Claim *flight* for execution, enforcing deadlines and the breaker.

        Expired entries resolve with :class:`DeadlineExceeded` — checked
        here, at claim time, so queued-but-dead work never executes.
        Returns ``False`` when nothing is left to execute (the flight is
        then dropped from the pending table).
        """
        live = []
        for future, expiry in flight.entries:
            if expiry is not None and now >= expiry:
                self._events["timeouts"].inc()
                to_resolve.append(
                    (future, DeadlineExceeded(
                        f"deadline expired before execution: {flight.request}"
                    ), None)
                )
            else:
                live.append((future, expiry))
        flight.entries = live
        if not live:
            del self._pending[key]
            self._queued -= 1
            return False
        if self._breaker is not None and self._breaker.reject(
            flight.session, now
        ):
            error = CircuitOpenError(
                "circuit open for this session; retry after cool-down"
            )
            to_resolve.extend((future, error, None) for future, _ in live)
            del self._pending[key]
            self._queued -= 1
            return False
        flight.claimed = True
        self._queued -= 1
        for future, _expiry in live:
            trace = trace_of(future)
            if trace is not None:
                trace.mark("claimed")
        return True

    def _claim(self, key: tuple) -> list[tuple[tuple, _Flight]]:
        """Claim the flight behind *key* plus any batchable siblings."""
        now = self._clock()
        to_resolve: list = []
        batch: list[tuple[tuple, _Flight]] = []
        with self._lock:
            flight = self._pending.get(key)
            if (
                flight is not None
                and not flight.claimed
                and self._claim_one_locked(key, flight, now, to_resolve)
            ):
                batch.append((key, flight))
                if flight.request.family in _SWEEPS or _fusable(
                    flight.request
                ):
                    lead_fusable = _fusable(flight.request)
                    for other_key, other in list(self._pending.items()):
                        if (
                            other is not flight
                            and not other.claimed
                            and other.session is flight.session
                            and other.request.family == flight.request.family
                            and (not lead_fusable or _fusable(other.request))
                            and self._claim_one_locked(
                                other_key, other, now, to_resolve
                            )
                        ):
                            batch.append((other_key, other))
        for future, error, value in to_resolve:
            self._resolve(future, value, error)
        return batch

    def _sweep_pays(self, session: EngineSession, batch_size: int) -> bool:
        """Whether one full sweep beats ``batch_size`` per-fact reductions.

        A sweep costs ``2·|Dn|`` runs, the individual requests ``2·k``; the
        sweep wins outright at ``k ≥ |Dn|/2`` — and additionally leaves the
        memoized sweep behind for every future per-fact request, which is
        why the threshold is not simply ``k ≥ |Dn|``.
        """
        try:
            endogenous = session.shapley_instance().endogenous_count
        except ReproError:
            return False
        return 2 * batch_size >= endogenous

    def _execute_flight(
        self, session: EngineSession, family: str, flight: _Flight
    ) -> tuple[_Flight, object, BaseException | None]:
        """One flight's execution: fault injection, retries, breaker votes."""
        attempts = self._retry.max_retries + 1
        for attempt in range(attempts):
            try:
                if self._faults is not None:
                    self._faults.before_attempt()
                value = session.request(
                    family,
                    trace=trace_of(flight.request),
                    **flight.request.kwargs,
                )
            except BaseException as error:
                if self._breaker is not None:
                    self._breaker.record_failure(session, error, self._clock())
                if attempt + 1 < attempts and self._retry.retriable(error):
                    self._events["retries"].inc()
                    delay = self._retry.delay_for(attempt, self._retry_rng)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                return (flight, None, error)
            else:
                if self._breaker is not None:
                    self._breaker.record_success(session, self._clock())
                return (flight, value, None)
        raise AssertionError("unreachable: the retry loop always returns")

    def _execute(self, batch: list[tuple[tuple, _Flight]]) -> None:
        first = batch[0][1]
        session = first.session
        family = first.request.family
        sweep_family = _SWEEPS.get(family)
        if (
            sweep_family is not None
            and len(batch) >= 2
            and self._sweep_pays(session, len(batch))
        ):
            try:
                if self._faults is not None:
                    self._faults.before_attempt()
                session.request(sweep_family)
                self._events["sweeps"].inc()
                self._events["swept_requests"].inc(len(batch))
                self._mark_batch(batch, "swept", len(batch))
            except Exception:
                # Counted, never swallowed silently: the batch falls
                # through to per-flight execution below, which surfaces
                # the error on the request(s) it actually belongs to (and
                # retries transient failures per flight).
                self._events["sweep_failures"].inc()
        elif _fusable(first.request) and len(batch) >= 2:
            # Shared-scan fusion: answer the whole claimed batch in one
            # stacked columnar pass (bit-identical to per-flight serial by
            # construction — see repro.core.fused).  Like the sweep branch
            # this only *warms the session memo*; the per-flight loop below
            # then serves each request from it through the normal breaker,
            # retry and resolution bookkeeping.  On any failure the batch
            # falls through to per-flight execution, which re-raises the
            # error on the request(s) it belongs to.
            try:
                if self._faults is not None:
                    self._faults.before_attempt()
                session.evaluate_many(
                    [flight.request for _key, flight in batch]
                )
                self._events["fused_batches"].inc()
                self._events["fused_queries"].inc(len(batch))
                self._mark_batch(batch, "fused", len(batch))
            except Exception:
                self._events["fused_failures"].inc()
        outcomes = []
        for _key, flight in batch:
            outcomes.append(self._execute_flight(session, family, flight))
        self._events["executed"].inc(len(batch))
        with self._lock:
            resolved = []
            for (key, flight), (_f, value, error) in zip(batch, outcomes):
                if self._pending.get(key) is flight:
                    del self._pending[key]
                # Snapshot under the lock: a duplicate submitted after this
                # point starts a fresh flight (served by the memo).
                resolved.append((list(flight.entries), value, error))
        for entries, value, error in resolved:
            for future, _expiry in entries:
                self._resolve(future, value, error)

    @staticmethod
    def _mark_batch(
        batch: list[tuple[tuple, _Flight]], stage: str, size: int
    ) -> None:
        """Mark every live trace in *batch* with a batching *stage*."""
        for _key, flight in batch:
            for future, _expiry in flight.entries:
                trace = trace_of(future)
                if trace is not None:
                    trace.mark(stage, batch_size=size)

    def _resolve(
        self, future: Future, value: object, error: BaseException | None
    ) -> None:
        """Record, then resolve *future*; tolerate cancellation and races.

        A future cancelled while queued must be skipped — calling
        ``set_result`` on it raises ``InvalidStateError`` and would kill
        the worker thread, stranding every other pending request.  A
        future already failed by ``close(timeout=…)`` while its execution
        straggled is likewise left alone: the first caller to settle a
        future owns it, so every accepted future is accounted exactly once.

        This is also where a request's observability closes out: the
        outcome counter, the latency histogram and the trace's final
        ``resolved`` mark are recorded *before* the future resolves, so a
        client woken by the future (or a done-callback) already sees them.
        """
        with self._settle_lock:
            if getattr(future, "_repro_settled", False):
                return
            future._repro_settled = True
        # PENDING → RUNNING: from here on the future cannot be cancelled,
        # so the outcome recorded below is the one the client will see.
        if not future.set_running_or_notify_cancel():
            self._account(future, "cancelled")
            return
        self._account(future, classify_outcome(error))
        if error is None:
            future.set_result(value)
        else:
            future.set_exception(error)

    def _account(self, future: Future, outcome: str) -> None:
        """Record one future's final outcome, latency and trace line."""
        trace = trace_of(future)
        if trace is None:
            return
        trace.mark("resolved", outcome=outcome)
        total = trace.total
        self._requests_total.labels(
            family=trace.family, outcome=outcome
        ).inc()
        if total is not None:
            self._latency.labels(family=trace.family).observe(total)
        if self._event_log is not None:
            self._event_log.record(trace)

    def _recover(self, batch: list[tuple[tuple, _Flight]], error: BaseException) -> None:
        """Worker supervision: re-queue or fail the dead worker's flights.

        Called from the dying worker thread itself.  Each claimed flight is
        re-queued (so a surviving worker serves it) unless it already
        survived ``requeue_limit`` deaths or the scheduler is closing — in
        both cases its futures fail with :class:`TransientError` instead of
        stranding.  A replacement worker is spawned unless closing; it is
        started *before* it joins ``_threads``, so a ``close()`` woken by
        one of the failed futures never joins an unstarted thread.
        """
        to_fail: list[tuple[Future, float | None]] = []
        with self._lock:
            self._events["worker_deaths"].inc()
            respawn = not self._closed
            for key, flight in batch:
                if self._pending.get(key) is not flight:
                    continue
                if respawn and flight.requeues < self.requeue_limit:
                    flight.requeues += 1
                    flight.claimed = False
                    self._queued += 1
                    self._events["requeued"].inc()
                    self._queue.put(key)
                else:
                    del self._pending[key]
                    to_fail.extend(flight.entries)
            if respawn:
                self._events["worker_respawns"].inc()
                replacement = threading.Thread(
                    target=self._work,
                    name=(
                        "repro-serve-respawn-"
                        f"{self._events['worker_respawns'].value}"
                    ),
                    daemon=True,
                )
                replacement.start()
                current = threading.current_thread()
                if current in self._threads:
                    self._threads.remove(current)
                self._threads.append(replacement)
        if to_fail:
            wrapped = TransientError(
                f"worker thread died while serving this request: {error!r}"
            )
            for future, _expiry in to_fail:
                self._resolve(future, None, wrapped)

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    def close(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting requests, drain the queue, join the workers.

        Already-submitted requests are still executed (the shutdown
        sentinels queue behind them); ``wait=False`` skips the join.
        ``timeout`` bounds the total join time, so a wedged worker cannot
        hang ``close(wait=True)`` forever.  After the join, every accepted
        future is guaranteed resolved: any flight still pending (a worker
        crashed after the sentinels were queued, or the timeout fired
        first) fails with :class:`ReproError` rather than stranding its
        futures.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(_SHUTDOWN)
        if not wait:
            return
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        for thread in threads:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        leftovers: list[tuple[Future, float | None]] = []
        with self._lock:
            for key, flight in list(self._pending.items()):
                leftovers.extend(flight.entries)
                del self._pending[key]
            self._queued = 0
            if leftovers:
                self._events["unresolved_at_close"].inc(len(leftovers))
        if leftovers:
            error = ReproError(
                "scheduler closed before this request resolved"
            )
            for future, _expiry in leftovers:
                self._resolve(future, None, error)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Work + robustness counters (submissions, rejections, retries…).

        Flat keys cover the headline counters the CLI prints (see
        :data:`HEADLINE_COUNTERS`); the nested ``admission``/``breaker``/
        ``faults`` entries carry each policy object's full view
        (``breaker``/``faults`` are ``None`` when not installed).  Batching
        effectiveness lives only in the ``"batching"`` sub-dict — Shapley/
        Banzhaf sweep counters next to shared-scan fusion counters.

        Every number is read from **one** snapshot of
        :attr:`metrics_registry`'s event family, so these keys and the
        Prometheus ``/metrics`` series are views over the same counts and
        cannot drift apart.
        """
        admission = self._admission.stats()
        breaker = self._breaker.stats() if self._breaker is not None else None
        events = {
            name: child.value for name, child in self._events.items()
        }
        with self._lock:
            pending = len(self._pending)
            queued = self._queued
        return {
            "workers": self.workers,
            "submitted": events["submitted"],
            "coalesced": events["coalesced"],
            "executed": events["executed"],
            "batching": {name: events[name] for name in BATCHING_EVENTS},
            "pending": pending,
            "queued": queued,
            "rejected": admission["rejected"],
            "shed": admission["shed"],
            "rate_limited": admission["rate_limited"],
            "timeouts": events["timeouts"],
            "retries": events["retries"],
            "worker_deaths": events["worker_deaths"],
            "worker_respawns": events["worker_respawns"],
            "requeued": events["requeued"],
            "unresolved_at_close": events["unresolved_at_close"],
            "breaker_trips": breaker["trips"] if breaker else 0,
            "breaker_open_rejections": (
                breaker["open_rejections"] if breaker else 0
            ),
            "admission": admission,
            "breaker": breaker,
            "faults": (
                self._faults.stats() if self._faults is not None else None
            ),
        }

    def __repr__(self) -> str:
        return f"Scheduler(workers={self.workers})"
