"""EngineSession: one query + one database, many evaluation requests.

A session owns the per-workload state the one-shot front-ends used to rebuild
on every call:

* the ψ-annotated :class:`~repro.db.annotated.KDatabase` of each problem
  family (built once via the bulk annotation path, then reused — and, under
  the array tier, with the columnar views seeded straight from the fact
  stream);
* the monoid instances — and therefore their kernels, including the Shapley
  kernel's packed big-int operand caches, which stay warm across every fold
  step and every request the session answers;
* compiled plans (through the process-wide LRU cache, keyed per policy and
  per support statistics) and grouped (free-variable) plans;
* a **result memo**: :meth:`EngineSession.request` answers repeated requests
  from a cache keyed by the request signature and the version fingerprint of
  the annotated state it depends on, so a mutation of the underlying data
  automatically invalidates exactly the stale entries.

Shapley/Banzhaf values additionally reuse **one** annotated database for all
``2·|Dn|`` #Sat runs of the Livshits et al. reduction: instead of building
the forced/removed instances from scratch per fact, the session flips the
fact's ψ in place (``★ → 1`` / ``★ → 0``), runs, and restores — bit-identical
to the one-shot reduction because truncated convolutions agree on every entry
below the truncation length.

Thread-safety: sessions may be shared across worker threads (the
:mod:`repro.serve` subsystem pools them).  Cache builds are serialized by a
session lock — so concurrent requests needing the same ψ-annotation share
one build — and the Shapley mutate-run-restore cycle holds a dedicated lock
for its whole duration, serializing every run over the Shapley-annotated
database with the in-place ψ-flips.  Plain evaluation over the other (never
mutated) annotated databases runs without any lock held.

Example — bind one probabilistic database, answer repeated requests
through the memo:

>>> from fractions import Fraction
>>> from repro import Engine, Fact, ProbabilisticDatabase, parse_query
>>> query = parse_query("Q() :- R(X), S(X)")
>>> pdb = ProbabilisticDatabase({
...     Fact("R", (1,)): Fraction(1, 2),
...     Fact("S", (1,)): Fraction(1, 2),
... })
>>> session = Engine().open(query, probabilistic=pdb)
>>> session.pqe(exact=True)
Fraction(1, 4)
>>> session.request("pqe", exact=True)  # first request: computed, memoized
Fraction(1, 4)
>>> session.request("pqe", exact=True)  # repeat: served from the memo
Fraction(1, 4)
>>> session.stats()["memo"]["hits"]
1
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Iterable

from repro.algebra.base import K, TwoMonoid
from repro.core.algorithm import (
    KERNEL_MODES,
    StepHook,
    compile_for_database,
    execute_plan,
    selects_columnar,
)
from repro.core.grouped import (
    GroupedPlan,
    compile_grouped_plan,
    execute_grouped_plan,
)
from repro.core.fused import FusedTask, execute_fused
from repro.core.incremental import IncrementalEvaluator
from repro.core.plan import binding_occurrences, plan_cache_info
from repro.db.annotated import KDatabase, KRelation
from repro.db.database import Database
from repro.db.fact import Fact
from repro.exceptions import ReproError
from repro.obs import MetricsRegistry
from repro.problems.bagset_max import BagSetInstance
from repro.problems.bagset_max import annotation_psi as _bagset_psi
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.problems.resilience import ResilienceInstance
from repro.problems.resilience import annotation_psi as _resilience_psi
from repro.problems.shapley import ShapleyInstance
from repro.problems.shapley import annotation_psi as _shapley_psi
from repro.query.atoms import Variable
from repro.query.bcq import BCQ

RequestHandler = Callable[..., object]

#: The request families :meth:`EngineSession.request` (and therefore the
#: serving layer) can dispatch: family name → handler called as
#: ``handler(session, **params)``.  Extend with
#: :func:`register_request_family`.
REQUEST_FAMILIES: dict[str, RequestHandler] = {
    "run": lambda session: session.run(),
    "pqe": (
        lambda session, exact=False, binding=None:
        session.pqe(exact=exact, binding=binding)
    ),
    "expected_count": (
        lambda session, exact=False, binding=None:
        session.expected_count(exact=exact, binding=binding)
    ),
    "sat_vector": lambda session: session.sat_vector(),
    "sat_counts": lambda session: session.sat_counts(),
    "shapley_value": lambda session, fact: session.shapley_value(fact),
    "shapley_values": lambda session: session.shapley_values(),
    "banzhaf_value": lambda session, fact: session.banzhaf_value(fact),
    "banzhaf_values": lambda session: session.banzhaf_values(),
    "resilience": lambda session: session.resilience(),
    "bagset_profile": (
        lambda session, budget, vector_length=None:
        session.bagset_profile(budget, vector_length)
    ),
    "maximize": lambda session, budget: session.maximize(budget),
}


def register_request_family(family: str, handler: RequestHandler) -> None:
    """Register (or override) a request family for :meth:`EngineSession.request`.

    *handler* is called as ``handler(session, **params)``.  Results of
    unknown-to-the-memo families are fingerprinted over the session's whole
    annotated state, so memoization stays conservative but correct.
    """
    REQUEST_FAMILIES[family] = handler


#: Sentinel state key: "the bound pre-annotated database" (``annotated=…``).
_RAW_STATE = object()

#: Handler parameter defaults, for signature canonicalization: a request
#: spelling a default explicitly (``pqe(exact=False)``) must coalesce and
#: memo-hit with the bare spelling (``pqe()``).
_PARAM_DEFAULTS: dict[str, dict[str, object]] = {
    "pqe": {"exact": False, "binding": None},
    "expected_count": {"exact": False, "binding": None},
    "bagset_profile": {"vector_length": None},
}

#: Families whose handlers accept a parameter ``binding`` — the constant
#: lifting of :class:`repro.core.plan.ParameterizedPlan`, and the unit the
#: shared-scan fuser (:mod:`repro.core.fused`) batches on.
_BINDING_FAMILIES = ("pqe", "expected_count")


def canonical_binding(binding) -> tuple | None:
    """Normalize a parameter binding to sorted ``(variable, value)`` pairs.

    Accepts a mapping, an iterable of pairs, or ``None``; an empty binding
    canonicalizes to ``None`` (an unbound request).  The result is hashable,
    so it survives into memo keys and :class:`repro.serve.request.Request`
    signatures unchanged.
    """
    if binding is None:
        return None
    items = binding.items() if hasattr(binding, "items") else binding
    normalized = tuple(
        sorted((str(variable), value) for variable, value in items)
    )
    return normalized or None


def canonical_params(family: str, params: dict) -> dict:
    """Drop parameters that restate the family handler's defaults.

    Used by :meth:`EngineSession.request` and
    :class:`repro.serve.request.Request` so the memo and the scheduler's
    single-flight coalescing key on request *semantics*, not spelling.
    Bindings are normalized first (see :func:`canonical_binding`) so every
    spelling of one parameter sweep point coalesces.
    """
    if family in _BINDING_FAMILIES and "binding" in params:
        params = {**params, "binding": canonical_binding(params["binding"])}
    defaults = _PARAM_DEFAULTS.get(family)
    if not defaults:
        return params
    return {
        name: value
        for name, value in params.items()
        if not (name in defaults and defaults[name] == value)
    }


def _bagset_length(budget: int, vector_length: int | None = None) -> int:
    """The bag-set vector length a budget profile is computed at."""
    return max(
        vector_length if vector_length is not None else budget + 1, 1
    )


def _bagset_state_keys(params: dict) -> tuple:
    length = _bagset_length(params["budget"], params.get("vector_length"))
    return (("bagset", length),)


def _shapley_state_keys(_params: dict) -> tuple:
    return ("shapley",)


#: Which annotated-database cache entries a family's answer depends on —
#: the memo's invalidation granularity.  A family absent here (a custom
#: registration) is fingerprinted over every annotated database the session
#: holds.
_FAMILY_STATE: dict[str, Callable[[dict], tuple]] = {
    "run": lambda params: (_RAW_STATE,),
    "pqe": lambda params: (("pqe", bool(params.get("exact", False))),),
    "expected_count": (
        lambda params: (("expected_count", bool(params.get("exact", False))),)
    ),
    "sat_vector": _shapley_state_keys,
    "sat_counts": _shapley_state_keys,
    "shapley_value": _shapley_state_keys,
    "shapley_values": _shapley_state_keys,
    "banzhaf_value": _shapley_state_keys,
    "banzhaf_values": _shapley_state_keys,
    "resilience": lambda params: ("resilience",),
    "bagset_profile": _bagset_state_keys,
    "maximize": _bagset_state_keys,
}

#: Per-fact / per-slice families answerable from a memoized whole-family
#: sweep: family → (sweep family, derivation).  The derivation returns
#: ``None`` when the sweep cannot answer (e.g. a non-endogenous fact), which
#: falls through to the family's own handler and its error reporting.
_DERIVED_FROM: dict[str, tuple[str, Callable[[object, dict], object]]] = {
    "shapley_value": (
        "shapley_values", lambda sweep, params: sweep.get(params["fact"])
    ),
    "banzhaf_value": (
        "banzhaf_values", lambda sweep, params: sweep.get(params["fact"])
    ),
    "sat_counts": (
        "sat_vector", lambda vector, _params: vector.true_counts
    ),
}


#: stats()-key → Prometheus family for the session work counters; one
#: shared table so the stats() view and the /metrics exposition can never
#: drift apart.
_SESSION_COUNTER_FAMILIES: dict[str, tuple[str, str]] = {
    "evaluations": (
        "repro_session_evaluations_total",
        "Plan executions issued by this session state.",
    ),
    "annotation_builds": (
        "repro_annotation_builds_total",
        "ψ-annotated database builds.",
    ),
    "memo_hits": (
        "repro_memo_hits_total",
        "Result-memo hits (including sweep-derived answers).",
    ),
    "memo_misses": (
        "repro_memo_misses_total",
        "Result-memo misses.",
    ),
    "fused_batches": (
        "repro_session_fused_batches_total",
        "Shared-scan batches of 2+ queries this session ran.",
    ),
    "fused_queries": (
        "repro_session_fused_queries_total",
        "Queries answered inside those shared-scan batches.",
    ),
}


def _session_metrics(registry: MetricsRegistry):
    """Resolve the session work counters on *registry*, keyed by stats() name."""
    return {
        key: registry.counter(name, help_text).labels()
        for key, (name, help_text) in _SESSION_COUNTER_FAMILIES.items()
    }


class ResultMemo(OrderedDict):
    """A size-capped LRU mapping backing the session result memos.

    With ``limit=None`` (the default) it behaves exactly like a plain dict.
    With a limit, inserting past capacity evicts the least-recently-*used*
    entry — :meth:`get` hits refresh recency — and counts the eviction in
    :attr:`evictions`, which :meth:`EngineSession.stats` (and the pool
    stats) surface as memo pressure.  Eviction is silent and safe: a
    re-asked evicted request is simply recomputed.
    """

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ReproError(
                f"memo limit must be a positive integer or None, got {limit}"
            )
        super().__init__()
        self.limit = limit
        self.evictions = 0

    def get(self, key, default=None):
        """Dict ``get`` that also refreshes the entry's LRU recency."""
        try:
            value = super().__getitem__(key)
        except KeyError:
            return default
        self.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        if self.limit is not None:
            while len(self) > self.limit:
                self.popitem(last=False)
                self.evictions += 1


class EngineSession:
    """Answers many evaluation requests over one query and one database.

    Open sessions through :meth:`repro.engine.engine.Engine.open`; the engine
    supplies the policy, kernel mode and monoid registry, the session caches
    everything data-dependent.  The bound data sources are treated as
    immutable for the session's lifetime (use :meth:`incremental` for
    update workloads); a bound pre-annotated database (``annotated=…``) may
    mutate, and the :meth:`request` memo detects that through its version
    fingerprint.
    """

    def __init__(
        self,
        engine,
        query: BCQ,
        *,
        database: Database | None = None,
        probabilistic: ProbabilisticDatabase | None = None,
        exogenous: Database | None = None,
        endogenous: Database | None = None,
        repair: Database | None = None,
        annotated: KDatabase | None = None,
    ):
        query.require_self_join_free()
        self.engine = engine
        self.query = query
        self._database = database
        self._probabilistic = probabilistic
        self._exogenous = exogenous
        self._endogenous = endogenous
        self._repair = repair
        self._raw_annotated = annotated
        # Whether annotation builds should seed columnar views eagerly
        # (see KDatabase.bulk_annotate): exactly when the engine's kernel
        # mode can select the array tier.
        self._columnar_builds = selects_columnar(engine.kernel_mode)
        # Circuit-breaker hook: a non-None override replaces the engine's
        # kernel mode for this session's runs (see degrade_kernel_mode).
        # Deliberately per-session, NOT shared via share_state_from — the
        # breaker trips the session object it observed failing.
        self._kernel_override: str | None = None
        # Reusable state, keyed per problem family / parameters.  Everything
        # below may be *shared* with sibling sessions via
        # :meth:`share_state_from` (the SessionPool), so all of it is only
        # touched under ``_lock`` (or ``_shapley_lock`` for the Shapley
        # mutate-restore cycle).
        self._lock = threading.RLock()
        self._shapley_lock = threading.RLock()
        # Per-cache-key build latches: concurrent requests needing the SAME
        # ψ-annotation share one build, while different families build in
        # parallel and memo lookups never block behind a build.
        self._build_locks: dict[object, threading.Lock] = {}
        self._annotated: dict[object, KDatabase] = {}
        self._monoids: dict[object, TwoMonoid] = {}
        self._grouped_plans: dict[frozenset[Variable], GroupedPlan] = {}
        self._sources: dict[bool, ProbabilisticDatabase] = {}
        self._instances: dict[str, object] = {}
        # Result memo: (family, canonical params) → (fingerprint, value),
        # LRU-capped by the engine's memo_limit (None = unbounded).
        memo_limit = getattr(engine, "memo_limit", None)
        self._results: ResultMemo = ResultMemo(memo_limit)
        # Per-fact #Sat pair memo: fact → (fingerprint, (with_f, without_f)).
        # Shapley AND Banzhaf values of one fact derive from the same two
        # #Sat runs; caching the pair makes the second attribution free.
        # Capped like the result memo — the packed count vectors are the
        # session's largest per-entry residents.
        self._sat_pairs: ResultMemo = ResultMemo(memo_limit)
        # Work counters live on a per-session-state MetricsRegistry (shared
        # across siblings by share_state_from); stats() is a view over it
        # and the HTTP front-end scrapes it directly.
        self._registry = MetricsRegistry()
        self._metrics = _session_metrics(self._registry)
        self._register_state_gauges()

    def _register_state_gauges(self) -> None:
        """Callback gauges over the memo, evaluated only at scrape time."""
        registry = self._registry
        registry.gauge(
            "repro_memo_entries", "Entries currently in the result memo."
        ).labels().set_function(lambda: len(self._results))
        registry.gauge(
            "repro_memo_evictions",
            "Result- and #Sat-pair-memo LRU evictions so far.",
        ).labels().set_function(
            lambda: self._results.evictions + self._sat_pairs.evictions
        )

    # ------------------------------------------------------------------
    # State sharing (the SessionPool hand-off)
    # ------------------------------------------------------------------
    def share_state_from(self, donor: "EngineSession") -> None:
        """Adopt *donor*'s reusable state so both sessions serve one cache.

        After this call the two sessions share the annotated databases (and
        therefore their columnar views), monoid instances (and their packed
        kernel caches), grouped plans, result memo, counters and locks.  The
        caller must guarantee the sessions are bound to the same query and
        the same data source objects — :class:`repro.serve.SessionPool` keys
        its registry on exactly that.
        """
        self._lock = donor._lock
        self._shapley_lock = donor._shapley_lock
        self._build_locks = donor._build_locks
        self._annotated = donor._annotated
        self._monoids = donor._monoids
        self._grouped_plans = donor._grouped_plans
        self._sources = donor._sources
        self._instances = donor._instances
        self._results = donor._results
        self._sat_pairs = donor._sat_pairs
        self._registry = donor._registry
        self._metrics = donor._metrics

    # ------------------------------------------------------------------
    # Kernel-tier override (the circuit breaker's degrade hook)
    # ------------------------------------------------------------------
    @property
    def kernel_mode(self) -> str:
        """The session's effective kernel mode (override or engine default).

        All modes produce bit-identical results, so a degraded session's
        answers are indistinguishable from the engine-configured tier —
        only the execution cost differs.
        """
        return self._kernel_override or self.engine.kernel_mode

    def degrade_kernel_mode(self, mode: str) -> None:
        """Override this session's kernel mode (typically ``"batched"``).

        Used by :class:`repro.serve.admission.CircuitBreaker` to step a
        failing session off the array tier while keeping results
        bit-identical; :meth:`restore_kernel_mode` undoes it.
        """
        if mode not in KERNEL_MODES:
            raise ReproError(
                f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}"
            )
        self._kernel_override = mode

    def restore_kernel_mode(self) -> None:
        """Drop the kernel-mode override, restoring the engine's tier."""
        self._kernel_override = None

    # ------------------------------------------------------------------
    # Shared execution helpers
    # ------------------------------------------------------------------
    def _run(self, annotated: KDatabase, on_step: StepHook | None = None):
        self._metrics["evaluations"].inc()
        plan = compile_for_database(self.query, annotated, self.engine.policy)
        return execute_plan(
            plan,
            annotated,
            on_step=on_step,
            kernel_mode=self.kernel_mode,
        ).result

    def _annotate(
        self,
        monoid: TwoMonoid,
        facts: Iterable[Fact],
        annotation_of: Callable[[Fact], K],
    ) -> KDatabase:
        """One ψ-annotation build honoring the engine's columnar seeding."""
        return KDatabase.annotate(
            self.query, monoid, facts, annotation_of,
            columnar=self._columnar_builds,
        )

    def _annotated_for(
        self, key: object, build: Callable[[], KDatabase]
    ) -> KDatabase:
        # Double-checked per-key latch: the session lock only guards the
        # dictionaries (briefly); the expensive annotation build runs under
        # a per-key lock, so identical requests share ONE build while
        # unrelated families build concurrently.
        with self._lock:
            annotated = self._annotated.get(key)
            if annotated is not None:
                return annotated
            build_lock = self._build_locks.get(key)
            if build_lock is None:
                build_lock = threading.Lock()
                self._build_locks[key] = build_lock
        with build_lock:
            with self._lock:
                annotated = self._annotated.get(key)
                if annotated is not None:
                    return annotated
            annotated = build()
            with self._lock:
                self._annotated[key] = annotated
            self._metrics["annotation_builds"].inc()
            return annotated

    def _monoid_for(self, key: object, family: str, *args, **kwargs):
        with self._lock:
            monoid = self._monoids.get(key)
            if monoid is None:
                monoid = self.engine.create_monoid(family, *args, **kwargs)
                self._monoids[key] = monoid
            return monoid

    def _require(self, value, what: str, hint: str):
        if value is None:
            raise ReproError(
                f"this session has no {what}; open the session with "
                f"Engine.open(query, {hint})"
            )
        return value

    # ------------------------------------------------------------------
    # The memoizing request entry point (the serving layer's unit of work)
    # ------------------------------------------------------------------
    def _request_fingerprint(self, family: str, params: dict) -> tuple:
        """Version fingerprint of the annotated state *family* depends on.

        ``None`` entries stand for state not built yet; integer entries are
        :meth:`KDatabase._version_fingerprint` values, which change with any
        relation mutation.  Compared on memo lookup, so a mutation of the
        underlying database evicts exactly the dependent entries.
        """
        state_of = _FAMILY_STATE.get(family)
        if state_of is None:
            # Unknown (custom) family: conservatively fingerprint every
            # annotated database the session holds, plus the raw one.
            keys: tuple = (
                _RAW_STATE, *sorted(self._annotated, key=repr),
            )
        else:
            keys = state_of(params)
        parts = []
        for key in keys:
            annotated = (
                self._raw_annotated if key is _RAW_STATE
                else self._annotated.get(key)
            )
            parts.append(
                None if annotated is None
                else annotated._version_fingerprint()
            )
        return tuple(parts)

    def request(self, family: str, *, trace=None, **params):
        """Serve one request through the session result memo.

        Dispatches to the family's handler (see :data:`REQUEST_FAMILIES`)
        unless a previous answer for the same ``(family, params)`` signature
        is still valid — i.e. the version fingerprint of the annotated state
        the family depends on has not changed since it was computed.  Hits
        and misses are counted in :meth:`stats`; :meth:`invalidate` drops
        entries explicitly.  Per-fact families additionally answer from a
        memoized whole-family sweep (``shapley_value`` from
        ``shapley_values``, ``banzhaf_value`` from ``banzhaf_values``,
        ``sat_counts`` from ``sat_vector``) — the scheduler's batching
        relies on that.  Memoized results are shared objects: treat them as
        immutable.

        *trace*, when given, is a :class:`repro.obs.Trace`: it receives a
        ``memo_hit`` or ``executed`` mark so request lifecycles show where
        the answer came from.
        """
        handler = REQUEST_FAMILIES.get(family)
        if handler is None:
            raise ReproError(
                f"unknown request family {family!r}; known families: "
                f"{sorted(REQUEST_FAMILIES)}"
            )
        params = canonical_params(family, params)
        hit, value = self._memo_probe(family, params)
        if hit:
            if trace is not None:
                trace.mark("memo_hit")
            return value
        with self._lock:
            before = self._request_fingerprint(family, params)
        value = handler(self, **params)
        if trace is not None:
            trace.mark("executed", kernel_mode=self.kernel_mode)
        self._memo_store(family, params, before, value)
        return value

    def _memo_probe(self, family: str, params: dict) -> tuple[bool, object]:
        """``(hit?, value)`` for one canonicalized request signature.

        The lookup half of :meth:`request`, shared with
        :meth:`evaluate_many`: probes the memo (evicting stale entries),
        then the family's derived sweep, and counts the hit or miss.
        """
        key = (family, tuple(sorted(params.items())))
        with self._lock:
            entry = self._results.get(key)
            if entry is not None:
                if entry[0] == self._request_fingerprint(family, params):
                    self._metrics["memo_hits"].inc()
                    return True, entry[1]
                del self._results[key]  # stale: underlying versions moved
            derived = _DERIVED_FROM.get(family)
            if derived is not None:
                sweep_family, derive = derived
                sweep_entry = self._results.get((sweep_family, ()))
                if sweep_entry is not None and sweep_entry[0] == (
                    self._request_fingerprint(sweep_family, {})
                ):
                    value = derive(sweep_entry[1], params)
                    if value is not None:
                        self._metrics["memo_hits"].inc()
                        self._results[key] = (
                            self._request_fingerprint(family, params), value
                        )
                        return True, value
            self._metrics["memo_misses"].inc()
            return False, None

    def _memo_store(
        self, family: str, params: dict, before: tuple, value
    ) -> None:
        """Memoize *value* unless dependent state moved during execution.

        Store only when the dependent state did not move underneath the
        execution: a ``None`` component may become a fingerprint (the
        handler built that state itself), but a changed fingerprint means
        a concurrent mutation — memoizing then would pin a possibly-stale
        value under the new fingerprint.
        """
        key = (family, tuple(sorted(params.items())))
        with self._lock:
            after = self._request_fingerprint(family, params)
            if len(before) == len(after) and all(
                old is None or old == new
                for old, new in zip(before, after)
            ):
                self._results[key] = (after, value)

    def _normalize_request(self, request) -> tuple[str, dict]:
        """``(family, canonical params)`` of one :meth:`evaluate_many` item."""
        if isinstance(request, tuple) and len(request) == 2:
            family, params = request
            params = dict(params or {})
        else:
            family = getattr(request, "family", None)
            kwargs = getattr(request, "kwargs", None)
            if family is None or kwargs is None:
                raise ReproError(
                    f"cannot interpret {request!r} as a request: expected a "
                    "(family, params) pair or an object with family/kwargs "
                    "attributes"
                )
            params = dict(kwargs)
        if family not in REQUEST_FAMILIES:
            raise ReproError(
                f"unknown request family {family!r}; known families: "
                f"{sorted(REQUEST_FAMILIES)}"
            )
        return family, canonical_params(family, params)

    def evaluate_many(self, requests, *, use_memo: bool = True) -> list:
        """Answer a batch of requests, fusing compatible ones per scan.

        *requests* holds ``(family, params)`` pairs and/or request-like
        objects with ``family``/``kwargs`` attributes
        (:class:`repro.serve.request.Request`); results align positionally
        with the input.  Binding-carrying ``pqe``/``expected_count``
        requests that miss the memo are grouped by
        :func:`repro.core.fused.execute_fused` — same annotated database,
        same plan scan signature — and answered in one stacked columnar
        pass, counted by the ``fused_batches``/``fused_queries`` stats;
        every other request takes the standard :meth:`request` path.
        Either way the answers are bit-identical to a sequential loop
        (bound serial requests *are* width-1 fused runs).
        """
        normalized = [
            self._normalize_request(request) for request in requests
        ]
        results: list = [None] * len(normalized)
        tasks: list[FusedTask] = []
        pending: list[tuple[int, tuple | None]] = []
        for index, (family, params) in enumerate(normalized):
            if not (family in _BINDING_FAMILIES and params.get("binding")):
                results[index] = (
                    self.request(family, **params)
                    if use_memo
                    else REQUEST_FAMILIES[family](self, **params)
                )
                continue
            before = None
            if use_memo:
                hit, value = self._memo_probe(family, params)
                if hit:
                    results[index] = value
                    continue
                with self._lock:
                    before = self._request_fingerprint(family, params)
            annotated = self._probability_annotated(
                family, bool(params.get("exact", False))
            )
            tasks.append(self._bound_task(annotated, params["binding"]))
            pending.append((index, before))
        if tasks:
            report = execute_fused(tasks, kernel_mode=self.kernel_mode)
            self._metrics["evaluations"].inc(len(tasks))
            if report.fused_batches:
                self._metrics["fused_batches"].inc(report.fused_batches)
                self._metrics["fused_queries"].inc(report.fused_queries)
            for (index, before), value in zip(pending, report.results):
                results[index] = value
                if use_memo and before is not None:
                    family, params = normalized[index]
                    self._memo_store(family, params, before, value)
        return results

    def invalidate(self, family: str | None = None) -> None:
        """Drop memoized request results (all, or one family's).

        Stale entries are also evicted automatically on lookup when the
        underlying :class:`~repro.db.annotated.KRelation` versions changed;
        this is the explicit override for out-of-band invalidation (the
        SessionPool wires it to database mutation hooks).
        """
        with self._lock:
            if family is None:
                self._results.clear()
            else:
                for key in [k for k in self._results if k[0] == family]:
                    del self._results[key]

    # ------------------------------------------------------------------
    # Raw Algorithm 1 (pre-annotated databases)
    # ------------------------------------------------------------------
    def run(self, on_step: StepHook | None = None):
        """Algorithm 1 over the bound pre-annotated database (``annotated=``)."""
        annotated = self._require(
            self._raw_annotated, "pre-annotated database", "annotated=…"
        )
        return self._run(annotated, on_step=on_step)

    def evaluate(
        self,
        monoid: TwoMonoid[K],
        facts: Iterable[Fact],
        annotation_of: Callable[[Fact], K],
        *,
        cache_key: object = None,
    ) -> K:
        """ψ-annotate *facts* in bulk and run Algorithm 1.

        The generic request shape behind ``evaluate_hierarchical``; pass a
        *cache_key* to keep the built annotated database on the session for
        reuse by later identical requests.
        """
        def build() -> KDatabase:
            return self._annotate(monoid, facts, annotation_of)

        if cache_key is None:
            annotated = build()
            self._metrics["annotation_builds"].inc()
        else:
            annotated = self._annotated_for(cache_key, build)
        return self._run(annotated)

    # ------------------------------------------------------------------
    # PQE / expected answer count (probabilistic databases)
    # ------------------------------------------------------------------
    def _probability_source(self, exact: bool) -> ProbabilisticDatabase:
        with self._lock:
            source = self._sources.get(exact)
            if source is None:
                base = self._require(
                    self._probabilistic,
                    "probabilistic database",
                    "probabilistic=…",
                )
                source = base.as_exact() if exact else base
                self._sources[exact] = source
            return source

    def _probability_annotated(self, family: str, exact: bool) -> KDatabase:
        """The cached ψ-annotated database behind ``pqe``/``expected_count``."""
        source = self._probability_source(exact)
        monoid_family = "probability" if family == "pqe" else "expectation"
        monoid = self._monoid_for(
            (monoid_family, exact), monoid_family, exact=exact
        )
        return self._annotated_for(
            (family, exact),
            lambda: self._annotate(
                monoid,
                source.facts(),
                lambda fact: monoid.validate(source.probability(fact)),
            ),
        )

    def pqe(self, exact: bool = False, binding=None):
        """Marginal probability of the query (Theorem 5.8).

        With *binding* — ``(variable, value)`` pairs or a mapping — the
        answer is for the lifted query ``Q(c)``: the database restricted to
        the binding's section ``σ_{X=c}`` at every occurrence of each bound
        variable (see :class:`repro.core.plan.ParameterizedPlan`).  Bound
        requests execute as width-1 shared-scan runs over the *same*
        annotated database, so batching them through
        :meth:`evaluate_many` is bit-identical, just faster.
        """
        annotated = self._probability_annotated("pqe", exact)
        binding = canonical_binding(binding)
        if binding is None:
            return self._run(annotated)
        return self._run_bound(annotated, binding)

    def expected_count(self, exact: bool = False, binding=None):
        """``E[Q(D)]`` over the real semiring (linearity of expectation).

        *binding* restricts to the section ``σ_{X=c}`` exactly as in
        :meth:`pqe`.
        """
        annotated = self._probability_annotated("expected_count", exact)
        binding = canonical_binding(binding)
        if binding is None:
            return self._run(annotated)
        return self._run_bound(annotated, binding)

    def _masked_database(self, annotated: KDatabase, binding) -> KDatabase:
        """A throwaway copy of *annotated* restricted to a binding's section.

        The serial fallback of constant lifting when the columnar tier is
        unavailable: keeps exactly the support tuples matching the binding,
        with their annotations, preserving insertion order.  Deliberately
        not cached on the session — distinct bindings are unbounded; the
        result memo caches the *answers* instead.
        """
        values = dict(binding)
        occurrences = binding_occurrences(self.query, tuple(values))
        masked = KDatabase(self.query, annotated.monoid)
        for relation in annotated.relations():
            positions = occurrences.get(relation.atom.relation, ())
            keys: list = []
            annotations: list = []
            for key, annotation in relation._annotations.items():
                if all(key[pos] == values[var] for pos, var in positions):
                    keys.append(key)
                    annotations.append(annotation)
            masked.relation(relation.atom.relation).bulk_load(
                keys, annotations
            )
        return masked

    def _bound_task(
        self, annotated: KDatabase, binding
    ) -> FusedTask:
        """One shared-scan task answering this query under *binding*."""
        plan = compile_for_database(self.query, annotated, self.engine.policy)
        return FusedTask(
            plan=plan,
            annotated=annotated,
            binding=binding,
            fallback=lambda: execute_plan(
                plan,
                self._masked_database(annotated, binding),
                kernel_mode=self.kernel_mode,
            ).result,
        )

    def _run_bound(self, annotated: KDatabase, binding):
        """Serve one bound request: a width-1 fused run (or its fallback)."""
        self._metrics["evaluations"].inc()
        task = self._bound_task(annotated, binding)
        return execute_fused(
            [task], kernel_mode=self.kernel_mode
        ).results[0]

    # ------------------------------------------------------------------
    # Shapley / Banzhaf (exogenous/endogenous splits)
    # ------------------------------------------------------------------
    def shapley_instance(self) -> ShapleyInstance:
        """The bound Definition 5.12 split (validated against the query)."""
        with self._lock:
            instance = self._instances.get("shapley")
            if instance is None:
                endogenous = self._require(
                    self._endogenous, "endogenous database", "endogenous=…"
                )
                instance = ShapleyInstance(
                    exogenous=self._exogenous or Database(),
                    endogenous=endogenous,
                )
                instance.validate_against(self.query)
                self._instances["shapley"] = instance
            return instance

    def _shapley_state(self):
        instance = self.shapley_instance()
        monoid = self._monoid_for(
            "shapley", "shapley", instance.endogenous_count + 1
        )
        psi = _shapley_psi(instance, monoid)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        annotated = self._annotated_for(
            "shapley",
            lambda: self._annotate(monoid, facts, psi),
        )
        return instance, monoid, annotated

    def sat_vector(self):
        """The full ``#Sat`` vector (Theorem 5.16)."""
        _instance, _monoid, annotated = self._shapley_state()
        # Serialized with the _sat_pair ψ-flips: a concurrent per-fact
        # computation must never observe this run mid-flip (or vice versa).
        with self._shapley_lock:
            return self._run(annotated)

    def sat_counts(self) -> tuple[int, ...]:
        """``#Sat(k)`` for ``k = 0 .. |Dn|``."""
        return self.sat_vector().true_counts

    def _sat_pair(self, fact: Fact):
        """``#Sat`` true-slices with *fact* forced in, then removed.

        Flips the fact's ψ on the shared annotated database instead of
        building the two shifted instances of the reduction from scratch.
        The session monoid is one entry longer than the shifted instances
        need (``|Dn|+1`` vs ``|Dn|``); truncated convolutions agree on every
        common entry, so the counts consumed below are bit-identical.

        The whole flip-run-restore cycle holds the Shapley lock, and the
        relation's version counter is restored along with the annotation:
        the content ends bit-identical to the start, so version-keyed state
        (memo fingerprints, columnar views, decline verdicts) derived from
        it stays valid across the transient flips.

        The pair itself is memoized per fact (validated by the annotated
        database's version fingerprint): the Shapley value and the Banzhaf
        index of one fact consume the same two runs, so whichever is asked
        second pays nothing.
        """
        instance, monoid, annotated = self._shapley_state()
        if fact not in instance.endogenous:
            raise ReproError(
                f"{fact} is not an endogenous fact of the instance"
            )
        name = fact.relation
        relation = annotated.relation(name)
        with self._shapley_lock:
            fingerprint = annotated._version_fingerprint()
            cached = self._sat_pairs.get(fact)
            if cached is not None and cached[0] == fingerprint:
                return cached[1]
            original = relation.annotation(fact.values)
            version = annotated.relation_version(name)
            try:
                relation.set(fact.values, monoid.one)
                with_f = self._run(annotated).true_counts
                relation.set(fact.values, monoid.zero)
                without_f = self._run(annotated).true_counts
            finally:
                relation.set(fact.values, original)
                annotated.restore_relation_version(name, version)
            # The restore put the fingerprint back to its entry value, so
            # the memoized pair is keyed by the state it was computed from.
            self._sat_pairs[fact] = (fingerprint, (with_f, without_f))
        return with_f, without_f

    def shapley_value(self, fact: Fact) -> Fraction:
        """Exact Shapley value of *fact* (the Section 5.6 reduction)."""
        with_f, without_f = self._sat_pair(fact)
        n = self.shapley_instance().endogenous_count
        n_factorial = math.factorial(n)
        total = Fraction(0)
        for k in range(n):
            weight = Fraction(
                math.factorial(k) * math.factorial(n - k - 1), n_factorial
            )
            total += weight * (with_f[k] - without_f[k])
        return total

    def shapley_values(self) -> dict[Fact, Fraction]:
        """Shapley values of all endogenous facts over one shared database."""
        return {
            fact: self.shapley_value(fact)
            for fact in self.shapley_instance().endogenous.facts()
        }

    def banzhaf_value(self, fact: Fact) -> Fraction:
        """The Banzhaf power index of *fact* (same two #Sat runs)."""
        with_f, without_f = self._sat_pair(fact)
        n = self.shapley_instance().endogenous_count
        flips = sum(with_f[k] - without_f[k] for k in range(n))
        return Fraction(flips, 2 ** (n - 1)) if n > 0 else Fraction(0)

    def banzhaf_values(self) -> dict[Fact, Fraction]:
        """Banzhaf indices of all endogenous facts."""
        return {
            fact: self.banzhaf_value(fact)
            for fact in self.shapley_instance().endogenous.facts()
        }

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------
    def resilience_instance(self) -> ResilienceInstance:
        """The bound deletable/undeletable split.

        Uses the ``exogenous``/``endogenous`` sources when given, otherwise
        treats the plain ``database`` as fully endogenous (the classical
        setting).
        """
        with self._lock:
            instance = self._instances.get("resilience")
            if instance is None:
                if self._endogenous is not None:
                    endogenous = self._endogenous
                else:
                    endogenous = self._require(
                        self._database,
                        "database for resilience",
                        "database=… or endogenous=…",
                    )
                instance = ResilienceInstance(
                    exogenous=self._exogenous or Database(),
                    endogenous=endogenous,
                )
                instance.validate_against(self.query)
                self._instances["resilience"] = instance
            return instance

    def resilience(self):
        """Minimum endogenous deletions falsifying the query (∞ if none)."""
        instance = self.resilience_instance()
        monoid = self._monoid_for("resilience", "resilience")
        psi = _resilience_psi(instance, monoid)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        annotated = self._annotated_for(
            "resilience",
            lambda: self._annotate(monoid, facts, psi),
        )
        return self._run(annotated)

    # ------------------------------------------------------------------
    # Bag-set maximization
    # ------------------------------------------------------------------
    def bagset_profile(
        self, budget: int, vector_length: int | None = None
    ):
        """The full budget profile of ``(D, Dr, θ=budget)`` (Theorem 5.11).

        Many budgets can be served from one session; the annotated database
        is cached per vector length (ψ depends only on the truncation).
        """
        database = self._require(self._database, "base database", "database=…")
        repair = self._require(self._repair, "repair database", "repair=…")
        instance = BagSetInstance(
            database=database, repair_database=repair, budget=budget
        )
        instance.validate_against(self.query)
        length = _bagset_length(budget, vector_length)
        monoid = self._monoid_for(("bagset", length), "bagset", length)
        psi = _bagset_psi(instance, monoid)
        facts = [*instance.database.facts(), *instance.addable_facts()]
        annotated = self._annotated_for(
            ("bagset", length),
            lambda: self._annotate(monoid, facts, psi),
        )
        return self._run(annotated)

    def maximize(self, budget: int) -> int:
        """The Bag-Set Maximization answer ``q(θ)`` at *budget*."""
        profile = self.bagset_profile(budget)
        return profile[min(budget, len(profile) - 1)]

    # ------------------------------------------------------------------
    # Grouped (free-variable) evaluation
    # ------------------------------------------------------------------
    def grouped_plan(self, free_variables: Iterable[Variable]) -> GroupedPlan:
        """The compiled free-variable plan (memoized per free set)."""
        free = frozenset(free_variables)
        with self._lock:
            plan = self._grouped_plans.get(free)
            if plan is None:
                plan = compile_grouped_plan(self.query, free)
                self._grouped_plans[free] = plan
            return plan

    def grouped(
        self,
        free_variables: Iterable[Variable],
        monoid: TwoMonoid[K],
        annotation_of: Callable[[Fact], K] | None = None,
        facts: Iterable[Fact] | None = None,
    ) -> KRelation[K]:
        """Per-answer K-annotations over the free variables.

        Defaults to the session's plain database with the ⊗-identity
        annotation; pass *facts*/*annotation_of* for other carriers.
        """
        plan = self.grouped_plan(free_variables)
        if facts is None:
            facts = self._require(
                self._database, "database", "database=…"
            ).facts()
        fn = annotation_of or (lambda _fact: monoid.one)
        annotated = self._annotate(monoid, facts, fn)
        self._metrics["annotation_builds"].inc()
        return execute_grouped_plan(
            plan, annotated, kernel_mode=self.kernel_mode
        )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def incremental(
        self,
        monoid: TwoMonoid[K],
        annotation_of: Callable[[Fact], K] | None = None,
        facts: Iterable[Fact] | None = None,
    ) -> IncrementalEvaluator[K]:
        """An update-maintained evaluator seeded from the session's data.

        The evaluator copies the annotated input, so later updates never
        disturb the session's cached state.
        """
        if facts is None:
            facts = self._require(
                self._database, "database", "database=…"
            ).facts()
        fn = annotation_of or (lambda _fact: monoid.one)
        annotated = self._annotate(monoid, facts, fn)
        self._metrics["annotation_builds"].inc()
        return IncrementalEvaluator(
            self.query,
            annotated,
            policy=self.engine.policy,
            kernel_mode=self.kernel_mode,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The session state's metric registry (shared across pool siblings).

        The HTTP front-end composes this with the scheduler's registry into
        one ``/metrics`` exposition; :meth:`stats` is a dict view over the
        same counters.
        """
        return self._registry

    def stats(self) -> dict:
        """Cached-state sizes and work counters for this session.

        Every counter value is read from :attr:`metrics_registry` — the
        keys predate the registry and keep their historical names and
        meanings, but there is only one underlying count.
        """
        metrics = self._metrics
        with self._lock:
            annotated_databases = list(self._annotated.values())
            if self._raw_annotated is not None:
                annotated_databases.append(self._raw_annotated)
            info: dict = {
                "evaluations": metrics["evaluations"].value,
                "annotation_builds": metrics["annotation_builds"].value,
                "fused_batches": metrics["fused_batches"].value,
                "fused_queries": metrics["fused_queries"].value,
                "annotated_databases": len(annotated_databases),
                # Columnar (array-tier) views cached across this session's
                # requests, summed over the session's annotated databases.
                "columnar_relations": sum(
                    database.columnar_cache_info()["relations"]
                    for database in annotated_databases
                ),
                "monoids": len(self._monoids),
                "grouped_plans": len(self._grouped_plans),
                "memo": {
                    "entries": len(self._results),
                    "hits": metrics["memo_hits"].value,
                    "misses": metrics["memo_misses"].value,
                    "limit": self._results.limit,
                    "evictions": (
                        self._results.evictions + self._sat_pairs.evictions
                    ),
                },
                "kernel_mode": self.kernel_mode,
                "plan_cache": plan_cache_info(),
            }
            shapley = self._monoids.get("shapley")
        if shapley is not None:
            from repro.core.kernels import kernel_for

            kernel = kernel_for(shapley)
            cache_info = getattr(kernel, "cache_info", None)
            if cache_info is not None:
                info["shapley_kernel"] = cache_info()
        return info

    def clear(self) -> None:
        """Drop every cached annotated database, monoid, plan and result."""
        with self._lock:
            self._annotated.clear()
            self._build_locks.clear()
            self._monoids.clear()
            self._grouped_plans.clear()
            self._sources.clear()
            self._instances.clear()
            self._results.clear()
            self._sat_pairs.clear()

    def __repr__(self) -> str:
        bound = [
            name
            for name, value in (
                ("database", self._database),
                ("probabilistic", self._probabilistic),
                ("exogenous", self._exogenous),
                ("endogenous", self._endogenous),
                ("repair", self._repair),
                ("annotated", self._raw_annotated),
            )
            if value is not None
        ]
        return f"EngineSession({self.query}, bound={bound})"
