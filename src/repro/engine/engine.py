"""Engine configuration: monoid registry, policy, kernel mode, cache limits.

An :class:`Engine` is cheap to construct and stateless apart from its
configuration; all heavy, reusable state lives on the
:class:`~repro.engine.session.EngineSession` objects it opens (and in the
process-wide plan cache, which the engine exposes and can resize).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.algebra.bagset import BagSetMonoid
from repro.algebra.base import TwoMonoid
from repro.algebra.probability import ExactProbabilityMonoid, ProbabilityMonoid
from repro.algebra.real import RealSemiring
from repro.algebra.resilience import ResilienceMonoid
from repro.algebra.shapley import ShapleyMonoid
from repro.core.algorithm import KERNEL_MODES
from repro.core.plan import (
    clear_plan_cache,
    plan_cache_info,
    set_plan_cache_size,
)
from repro.exceptions import ReproError
from repro.query.bcq import BCQ
from repro.query.elimination import Policy, policy_names

MonoidFactory = Callable[..., TwoMonoid]


def _probability_monoid(exact: bool = False) -> TwoMonoid:
    return ExactProbabilityMonoid() if exact else ProbabilityMonoid()


def _expectation_semiring(exact: bool = False) -> TwoMonoid:
    return RealSemiring(exact=exact)


#: The built-in monoid registry: one factory per problem family.  Factories
#: receive the family's parameters (``exact`` for the probability carriers,
#: the vector ``length`` for Shapley/bag-set).  Engines copy this mapping, so
#: :meth:`Engine.register_monoid` never mutates the defaults.
DEFAULT_MONOID_FACTORIES: dict[str, MonoidFactory] = {
    "probability": _probability_monoid,
    "expectation": _expectation_semiring,
    "shapley": ShapleyMonoid,
    "bagset": BagSetMonoid,
    "resilience": ResilienceMonoid,
}


class Engine:
    """Evaluation-engine configuration; open sessions with :meth:`open`.

    Parameters
    ----------
    policy:
        Elimination policy used by every session this engine opens — a name
        from :func:`repro.query.elimination.policy_names` or a callable
        policy (callables bypass the plan cache).
    kernel_mode:
        Execution tier for every session this engine opens (see
        :data:`repro.core.algorithm.KERNEL_MODES`): ``"auto"`` runs
        flat-carrier monoids on the columnar numpy tier (falling back
        to the batched kernels for exact carriers or when numpy is not
        installed), ``"batched"`` forces the batched kernels, and ``"scalar"`` forces
        per-element monoid dispatch (the benchmark baseline).  Sessions
        cache each annotated database's columnar views, so repeated
        requests skip the dict → column conversion.
    plan_cache_size:
        When given, resizes the compiled-plan LRU cache.  The cache is
        **process-wide** (shared by every engine and the legacy one-shot
        entry points; equivalent to calling
        :func:`repro.core.plan.set_plan_cache_size` yourself), so the last
        configured size wins — set it once at application startup.
    memo_limit:
        Entry cap for each session's result memo (and per-fact #Sat pair
        memo).  ``None`` (the default) keeps the memos unbounded; with a
        limit, the least-recently-used entry is evicted past capacity and
        counted in ``session.stats()["memo"]["evictions"]``.  Long-running
        serving deployments set this to bound memory.
    monoids:
        Extra/overriding monoid factories merged over
        :data:`DEFAULT_MONOID_FACTORIES`.

    Examples
    --------
    >>> from repro import Engine, ProbabilisticDatabase, Fact, parse_query
    >>> q = parse_query("Q() :- R(X), S(X,Y)")
    >>> pdb = ProbabilisticDatabase({Fact("R", (1,)): 0.5,
    ...                              Fact("S", (1, 2)): 1.0})
    >>> session = Engine().open(q, probabilistic=pdb)
    >>> session.pqe()
    0.5
    """

    def __init__(
        self,
        *,
        policy: Policy | str = "rule1_first",
        kernel_mode: str = "auto",
        plan_cache_size: int | None = None,
        memo_limit: int | None = None,
        monoids: Mapping[str, MonoidFactory] | None = None,
    ):
        if kernel_mode not in KERNEL_MODES:
            raise ReproError(
                f"unknown kernel mode {kernel_mode!r}; "
                f"expected one of {KERNEL_MODES}"
            )
        if memo_limit is not None and memo_limit < 1:
            raise ReproError(
                f"memo_limit must be a positive integer or None, "
                f"got {memo_limit}"
            )
        if isinstance(policy, str) and policy not in policy_names():
            raise ReproError(
                f"unknown elimination policy {policy!r}; "
                f"expected one of {policy_names()} or a callable"
            )
        self.policy = policy
        self.kernel_mode = kernel_mode
        self.memo_limit = memo_limit
        self._factories: dict[str, MonoidFactory] = dict(
            DEFAULT_MONOID_FACTORIES
        )
        if monoids:
            self._factories.update(monoids)
        if plan_cache_size is not None:
            set_plan_cache_size(plan_cache_size)

    # ------------------------------------------------------------------
    # Monoid registry
    # ------------------------------------------------------------------
    def register_monoid(self, family: str, factory: MonoidFactory) -> None:
        """Register (or override) the monoid factory for *family*."""
        self._factories[family] = factory

    def create_monoid(self, family: str, *args, **kwargs) -> TwoMonoid:
        """Instantiate the monoid serving *family* with the given params."""
        try:
            factory = self._factories[family]
        except KeyError:
            raise ReproError(
                f"no monoid registered for family {family!r}; "
                f"registered families: {self.monoid_families()}"
            ) from None
        return factory(*args, **kwargs)

    def monoid_families(self) -> list[str]:
        """The registered family names, sorted."""
        return sorted(self._factories)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open(self, query: BCQ, **data) -> "EngineSession":
        """Open a session binding *query* to the given data sources.

        Keyword data sources (all optional; each request validates that the
        sources it needs are present):

        ``database``
            A plain :class:`~repro.db.database.Database` — resilience,
            bag-set maximization (as the base ``D``), grouped evaluation,
            incremental maintenance.
        ``probabilistic``
            A tuple-independent probabilistic database — PQE and expected
            answer count.
        ``exogenous`` / ``endogenous``
            The Definition 5.12 split — Shapley/Banzhaf and resilience.
        ``repair``
            The repair database ``Dr`` — bag-set maximization.
        ``annotated``
            A pre-built :class:`~repro.db.annotated.KDatabase` for raw
            Algorithm 1 runs via :meth:`EngineSession.run`.
        """
        from repro.engine.session import EngineSession

        return EngineSession(self, query, **data)

    # ------------------------------------------------------------------
    # Plan-cache observability (the CLI `repro cache` surface)
    # ------------------------------------------------------------------
    def plan_cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the shared compiled-plan cache."""
        return plan_cache_info()

    def clear_plan_cache(self) -> None:
        """Drop every memoized compiled plan."""
        clear_plan_cache()

    def __repr__(self) -> str:
        policy = (
            self.policy if isinstance(self.policy, str)
            else getattr(self.policy, "__name__", "<callable>")
        )
        return (
            f"Engine(policy={policy!r}, kernel_mode={self.kernel_mode!r}, "
            f"families={self.monoid_families()})"
        )
