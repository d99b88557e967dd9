"""Algorithm 1: the unifying algorithm for hierarchical queries (Section 5.3).

Given a hierarchical SJF-BCQ ``Q`` and a K-annotated database, the algorithm
replays the elimination procedure of Proposition 5.1 over annotated relations:

* **Rule 1** (private variable ``Y`` of atom ``R``) becomes the ⊕-aggregation
  ``R'(x') = ⊕_y R(x', y)`` (line 4 of Algorithm 1);
* **Rule 2** (duplicate-variable-set atoms ``R1``, ``R2``) becomes the ⊗-join
  ``R'(x) = R1(x) ⊗ R2(x)`` (line 7).

When the query reaches the form ``Q() :- R()``, the annotation of the nullary
tuple ``()`` in ``R`` is the output.  The *same* code runs probabilistic query
evaluation, bag-set maximization, Shapley value computation, and any other
2-monoid instantiation — only the monoid and the input annotations change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from contextlib import nullcontext

from repro.algebra.base import K, TwoMonoid
from repro.core.kernels import array_kernel_for, scalar_kernels
from repro.db.annotated import ColumnarKRelation, KDatabase, KRelation
from repro.db.fact import Fact
from repro.exceptions import ReproError
from repro.obs import global_registry
from repro.query.bcq import BCQ
from repro.query.elimination import Policy
from repro.core.plan import (
    AbsorbStep,
    MergeStep,
    Plan,
    PlanStep,
    ProjectStep,
    compile_plan,
)

_TIER_EXECUTIONS = global_registry().counter(
    "repro_tier_executions_total",
    "Plan executions answered by each execution tier.",
    labels=("tier",),
)
_TIER_FALLBACKS = global_registry().counter(
    "repro_tier_fallbacks_total",
    "Columnar-tier declines by reason (the run fell back to batched kernels).",
    labels=("reason",),
)
_PLAN_SECONDS = global_registry().histogram(
    "repro_plan_execution_seconds",
    "Wall-clock seconds per plan execution, by answering tier.",
    labels=("tier",),
)
_STEP_SECONDS = global_registry().histogram(
    "repro_plan_step_seconds",
    "Wall-clock seconds per executed plan step, by elimination rule.",
    labels=("rule",),
)
# Per-rule children resolved once: the step loop pays two clock reads and
# one striped-lock add per step, nothing else.
_STEP_PROJECT = _STEP_SECONDS.labels(rule="project")
_STEP_MERGE = _STEP_SECONDS.labels(rule="merge")
_STEP_ABSORB = _STEP_SECONDS.labels(rule="absorb")

StepHook = Callable[[PlanStep, KRelation], None]
"""Optional observer invoked after each executed step with its output relation."""

KERNEL_MODES = ("auto", "batched", "scalar")
"""The three execution tiers' modes:

* ``"auto"`` — the columnar (numpy) tier, reported as ``"array"``, when the
  monoid's carrier is a flat numeric scalar with a registered array kernel
  and numpy is importable, otherwise the batched kernels;
* ``"batched"`` — registered batched kernels only, never the columnar tier
  (the PR 2 engine; the baseline the array tier is measured against);
* ``"scalar"`` — per-element ``monoid.add``/``mul`` dispatch (the original
  baseline).
"""


def _check_kernel_mode(kernel_mode: str) -> None:
    if kernel_mode not in KERNEL_MODES:
        raise ReproError(
            f"unknown kernel mode {kernel_mode!r}; "
            f"expected one of {KERNEL_MODES}"
        )


def selects_columnar(kernel_mode: str) -> bool:
    """Whether *kernel_mode* selects the columnar tier (``auto``).

    The one home of that decision: plan execution, fusion, the session's
    eager columnar builds and the circuit breaker's degradable-mode check
    all ask here.
    """
    return kernel_mode == "auto"


def _kernel_context(kernel_mode: str):
    _check_kernel_mode(kernel_mode)
    if kernel_mode == "scalar":
        return scalar_kernels()
    return nullcontext()


def _array_kernel_if_selected(kernel_mode: str, monoid):
    """The monoid's array kernel when *kernel_mode* selects the columnar
    tier, else ``None`` (also validates the mode string)."""
    _check_kernel_mode(kernel_mode)
    if selects_columnar(kernel_mode):
        return array_kernel_for(monoid)
    return None


@dataclass
class ExecutionReport:
    """Bookkeeping produced alongside the answer by :func:`execute_plan`.

    Attributes
    ----------
    result:
        The K-annotation of the terminal nullary tuple.
    steps_executed:
        Number of plan steps run.
    max_live_support:
        The largest total support size observed across live relations — the
        Lemma 6.6 quantity (it never exceeds the input size).
    """

    result: object
    steps_executed: int
    max_live_support: int


def _merge_operands(first, second, annihilates: bool):
    """Order the two Rule 2 operands so the smaller support drives the probe.

    ``merge`` iterates/probes from its receiver, so for annihilating monoids
    (output = support intersection) building from the smaller side does less
    work.  ⊗ is commutative by the 2-monoid laws, so swapping operands never
    changes the result; non-annihilating merges walk the support union
    either way and keep the plan's order.
    """
    if annihilates and len(second) < len(first):
        return second, first
    return first, second


def _identity_view(_name: str, relation):
    return relation


def _run_steps(
    plan, live: dict, annihilates: bool, view=_identity_view, on_step=None
):
    """Algorithm 1's step loop, shared by every executor and every layout.

    Replays ``plan.steps`` over *live* (relation name → relation): Rule 1
    as ``project_out``, Rule 2 as ``merge`` with the smaller support
    driving the probe, and the grouped engine's free-connex rule as
    ``absorb``.  Each input is popped and read through
    ``view(name, relation)`` — the identity for dict layouts and for the
    fused stacked views, the lazy columnar-view lookup on the array tier —
    so inputs convert in step-consumption order.  That order is part of
    the answer: the database's one value interner assigns codes in
    first-conversion order, which fixes lexsort order and with it the
    order of float ⊕-folds.

    Returns ``(final relation, max live support)``; *on_step* observes
    every step's output.
    """
    max_live = sum(len(relation) for relation in live.values())
    for step in plan.steps:
        step_started = time.perf_counter()
        if isinstance(step, ProjectStep):
            name = step.source.relation
            source = view(name, live.pop(name))
            produced = source.project_out(step.variable, step.target)
            histogram = _STEP_PROJECT
        elif isinstance(step, MergeStep):
            first = view(step.first.relation, live.pop(step.first.relation))
            second = view(
                step.second.relation, live.pop(step.second.relation)
            )
            build, probe = _merge_operands(first, second, annihilates)
            produced = build.merge(probe, step.target)
            histogram = _STEP_MERGE
        else:
            assert isinstance(step, AbsorbStep)
            small = view(step.small.relation, live.pop(step.small.relation))
            big = view(step.big.relation, live.pop(step.big.relation))
            produced = big.absorb(small, step.target)
            histogram = _STEP_ABSORB
        histogram.observe(time.perf_counter() - step_started)
        live[step.target.relation] = produced
        max_live = max(
            max_live, sum(len(relation) for relation in live.values())
        )
        if on_step is not None:
            on_step(step, produced)
    return live[plan.final_relation], max_live


def _input_relations(annotated: KDatabase) -> dict:
    return {
        relation.atom.relation: relation for relation in annotated.relations()
    }


def _attempt_columnar(plan, annotated: KDatabase, kernel_mode: str):
    """Run *plan* on the columnar tier, or return ``None`` to fall back.

    The tier-selection/fallback policy: selects the array kernel, honors a
    memoized not-representable verdict, and on ``OverflowError`` records
    that verdict on the database.  Input relations are materialized lazily
    into cached :class:`~repro.db.annotated.ColumnarKRelation` views (one
    dict → column conversion per relation per database, amortized across
    executions); every step then runs entirely inside numpy.
    """
    if not selects_columnar(kernel_mode):
        return None
    array_kernel = array_kernel_for(annotated.monoid)
    if array_kernel is None:
        _TIER_FALLBACKS.labels(reason="no_kernel").inc()
        return None
    if annotated.columnar_declined(array_kernel):
        _TIER_FALLBACKS.labels(reason="declined").inc()
        return None

    def columnar(name: str, relation):
        if isinstance(relation, ColumnarKRelation):
            return relation  # a step output
        return annotated.columnar_relation(name, array_kernel)

    try:
        return _run_steps(
            plan,
            _input_relations(annotated),
            annotated.monoid.annihilates,
            columnar,
        )
    except OverflowError:
        # Annotations outside the kernel dtype: not columnar-representable.
        # Memoized (until a mutation) so repeated executions skip the
        # doomed encode attempt.
        annotated.decline_columnar(array_kernel)
        _TIER_FALLBACKS.labels(reason="overflow").inc()
        return None


def _execute_tiered(
    plan, annotated: KDatabase, kernel_mode: str, decode, on_step=None
):
    """Run *plan* on the tier *kernel_mode* selects; ``(decode(final), max live)``.

    The one tier wrapper of the Boolean and grouped executors: the columnar
    tier first (unless *on_step* observes, which needs dict-layout
    relations), else the batched kernels — or the scalar baseline under
    ``"scalar"`` — and the tier counters either way.
    """
    started = time.perf_counter()
    with _kernel_context(kernel_mode):  # validates kernel_mode
        outcome = None
        if on_step is None:
            outcome = _attempt_columnar(plan, annotated, kernel_mode)
        tier = "array"
        if outcome is None:
            tier = "scalar" if kernel_mode == "scalar" else "batched"
            outcome = _run_steps(
                plan,
                _input_relations(annotated),
                annotated.monoid.annihilates,
                on_step=on_step,
            )
        final, max_live = outcome
        result = decode(final)
    _TIER_EXECUTIONS.labels(tier=tier).inc()
    _PLAN_SECONDS.labels(tier=tier).observe(time.perf_counter() - started)
    return result, max_live


def _nullary_annotation(final):
    if isinstance(final, ColumnarKRelation):
        return final.nullary_annotation()
    return final.annotation(())  # dict layout, or a step-free plan's input


def execute_plan(
    plan: Plan,
    annotated: KDatabase[K],
    on_step: StepHook | None = None,
    *,
    kernel_mode: str = "auto",
) -> ExecutionReport:
    """Execute *plan* over *annotated* and return the result with bookkeeping.

    ``kernel_mode`` picks the execution tier (see :data:`KERNEL_MODES`).
    Under ``"auto"`` flat-carrier monoids run on the columnar (numpy)
    tier; exact carriers — and every run when numpy is absent — fall back
    to the batched kernels, and ``"scalar"`` forces per-element monoid
    dispatch (the paper-faithful oracle).  Step observers (*on_step*)
    receive dict-layout relations, so instrumented runs stay on the batched
    tier.  The columnar tier agrees with the batched one bit-identically
    for int/bool carriers and within the monoid tolerance for floats
    (⊕-fold order follows the key sort instead of the insertion order).

    Every execution reports to the process-wide observability registry
    (:func:`repro.obs.global_registry`): ``repro_tier_executions_total``
    counts which tier answered, ``repro_plan_execution_seconds`` records
    its wall clock, and ``repro_tier_fallbacks_total`` classifies columnar
    declines.
    """
    result, max_live = _execute_tiered(
        plan, annotated, kernel_mode, _nullary_annotation, on_step
    )
    return ExecutionReport(
        result=result,
        steps_executed=len(plan.steps),
        max_live_support=max_live,
    )


def compile_for_database(
    query: BCQ,
    annotated: KDatabase[K],
    policy: Policy | str = "rule1_first",
):
    """Compile *query* with data statistics when the policy is cost-based.

    For ``"min_support"`` this reads the support sizes out of *annotated* and
    tells the policy whether Rule 2 merges run over support unions (the
    non-annihilating case, e.g. Shapley) or intersections.
    """
    if policy == "min_support":
        sizes = {
            relation.atom.relation: len(relation)
            for relation in annotated.relations()
        }
        return compile_plan(
            query,
            policy,
            relation_sizes=sizes,
            union_merges=not annotated.monoid.annihilates,
        )
    return compile_plan(query, policy=policy)


def run_algorithm(
    query: BCQ,
    annotated: KDatabase[K],
    policy: Policy | str = "rule1_first",
    on_step: StepHook | None = None,
    *,
    kernel_mode: str = "auto",
) -> K:
    """Run Algorithm 1 on *query* and the K-annotated database *annotated*.

    A thin adapter over the engine subsystem: opens a throwaway
    :class:`~repro.engine.session.EngineSession` bound to the pre-annotated
    database.  Raises :class:`~repro.exceptions.NotHierarchicalError` for
    non-hierarchical queries (line 10 of Algorithm 1 / Proposition 5.1).
    """
    from repro.engine import Engine

    session = Engine(policy=policy, kernel_mode=kernel_mode).open(
        query, annotated=annotated
    )
    return session.run(on_step=on_step)  # type: ignore[return-value]


def evaluate_hierarchical(
    query: BCQ,
    monoid: TwoMonoid[K],
    facts: Iterable[Fact],
    annotation_of: Callable[[Fact], K],
    policy: Policy | str = "rule1_first",
    *,
    kernel_mode: str = "auto",
) -> K:
    """Convenience wrapper: annotate *facts* with ψ = *annotation_of* and run.

    This is the shape all the problem front-ends reduce to — build the
    ψ-annotated database of Definitions 5.10/5.15 (bulk path) and execute
    the compiled plan — expressed as a one-shot
    :meth:`~repro.engine.session.EngineSession.evaluate` request.
    """
    from repro.engine import Engine

    session = Engine(policy=policy, kernel_mode=kernel_mode).open(query)
    return session.evaluate(monoid, facts, annotation_of)
