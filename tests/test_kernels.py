"""Kernel-vs-scalar equivalence: the batched engine must match the scalar one.

Three layers of checks:

* **Kronecker convolution** ≡ the naive ``_convolve`` on random non-negative
  vectors, including truncation edge cases (empty operands, all-zero
  operands, truncation shorter/longer than the full product).
* **Kernel ≡ scalar relation ops** for every bundled monoid on randomized
  relations: ``project_out`` and ``merge`` (with mismatched variable orders,
  and one-sided support tuples to exercise the Shapley union-merge).
* **End-to-end smoke**: the Figure 1 instance gives identical results under
  ``kernel_mode="auto"`` and ``"scalar"``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import math
import pytest

from repro.algebra.bagset import BagSetMonoid
from repro.algebra.boolean import BooleanSemiring
from repro.algebra.counting import CountingSemiring
from repro.algebra.probability import ExactProbabilityMonoid, ProbabilityMonoid
from repro.algebra.provenance import ProvenanceMonoid, leaf
from repro.algebra.real import RealSemiring
from repro.algebra.resilience import ResilienceMonoid
from repro.algebra.shapley import (
    SatVector,
    ShapleyKernel,
    ShapleyMonoid,
    _convolve,
    kron_convolve,
)
from repro.algebra.tropical import (
    MaxPlusSemiring,
    MaxTimesSemiring,
    MinPlusSemiring,
)
from repro.core.algorithm import execute_plan, run_algorithm
from repro.core.instrument import CountingMonoid
from repro.core.kernels import (
    GenericKernel,
    kernel_for,
    kernels_forced_scalar,
    scalar_kernels,
)
from repro.core.plan import clear_plan_cache, compile_plan, plan_cache_info
from repro.db.annotated import KDatabase, KRelation
from repro.exceptions import ReproError
from repro.query.atoms import make_atom
from repro.query.families import q_eq1


# ----------------------------------------------------------------------
# Kronecker convolution ≡ naive convolution
# ----------------------------------------------------------------------
class TestKronConvolve:
    def test_matches_naive_on_random_vectors(self):
        rng = random.Random(42)
        for _ in range(500):
            left = [rng.randrange(0, 1000) for _ in range(rng.randrange(0, 10))]
            right = [rng.randrange(0, 1000) for _ in range(rng.randrange(0, 10))]
            length = rng.randrange(1, 14)
            assert kron_convolve(left, right, length) == _convolve(
                left, right, length
            ), (left, right, length)

    def test_huge_coefficients_stay_exact(self):
        rng = random.Random(7)
        left = [rng.randrange(0, 2**200) for _ in range(6)]
        right = [rng.randrange(0, 2**200) for _ in range(6)]
        assert kron_convolve(left, right, 11) == _convolve(left, right, 11)

    @pytest.mark.parametrize(
        "left,right,length",
        [
            ([], [], 3),
            ([], [1, 2], 3),
            ([0, 0, 0], [1, 2], 4),
            ([1], [5], 1),
            ([3], [1, 2, 3], 2),
            ([1, 2, 3], [4], 5),
            ([1, 1], [1, 1], 1),       # truncation below the product degree
            ([1, 1], [1, 1], 3),       # exact product length
            ([1, 1], [1, 1], 9),       # zero-padded beyond the product
            ([0, 0, 7], [0, 5], 6),    # leading zeros
            ([2, 0, 0], [3, 0], 6),    # trailing zeros get trimmed
        ],
    )
    def test_truncation_edge_cases(self, left, right, length):
        assert kron_convolve(left, right, length) == _convolve(
            left, right, length
        )


# ----------------------------------------------------------------------
# Shapley kernel internals
# ----------------------------------------------------------------------
class TestShapleyKernel:
    def test_resolves_to_specialized_kernel(self):
        monoid = ShapleyMonoid(4)
        assert isinstance(kernel_for(monoid), ShapleyKernel)
        with scalar_kernels():
            assert isinstance(kernel_for(monoid), GenericKernel)
            assert kernels_forced_scalar()
        assert not kernels_forced_scalar()

    def test_wrapped_monoid_keeps_generic_kernel(self):
        # CountingMonoid must stay on the generic kernel so its ⊕/⊗ counters
        # keep observing every application.
        wrapped = CountingMonoid(ShapleyMonoid(3))
        assert isinstance(kernel_for(wrapped), GenericKernel)

    @pytest.mark.parametrize("length", [1, 2, 3, 7])
    def test_add_mul_match_scalar_on_random_vectors(self, length):
        monoid = ShapleyMonoid(length)
        kernel = ShapleyKernel(monoid)
        rng = random.Random(length)

        def vector():
            pool = [monoid.zero, monoid.one, monoid.star]
            if rng.random() < 0.5:
                return rng.choice(pool)
            return SatVector(
                tuple(rng.randrange(0, 6) for _ in range(length)),
                tuple(rng.randrange(0, 6) for _ in range(length)),
            )

        for _ in range(300):
            left, right = vector(), vector()
            assert kernel._add(left, right) == monoid.add(left, right)
            assert kernel._mul(left, right) == monoid.mul(left, right)

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_spike_fold_closed_form(self, length):
        monoid = ShapleyMonoid(length)
        kernel = ShapleyKernel(monoid)
        for ones in range(4):
            for stars in range(7):
                if not (ones or stars):
                    continue
                items = [monoid.one] * ones + [monoid.star] * stars
                expected = items[0]
                for item in items[1:]:
                    expected = monoid.add(expected, item)
                assert kernel._spike_fold(ones, stars) == expected

    def test_identity_fast_paths_in_monoid(self):
        monoid = ShapleyMonoid(4)
        dense = monoid.add(monoid.star, monoid.mul(monoid.star, monoid.star))
        assert monoid.add(monoid.zero, dense) == dense
        assert monoid.add(dense, monoid.zero) == dense
        assert monoid.mul(monoid.one, dense) == dense
        assert monoid.mul(dense, monoid.one) == dense
        # 0 ⊗ a is NOT 0 — the non-annihilating collapse.
        collapsed = monoid.mul(monoid.zero, dense)
        assert collapsed != monoid.zero
        totals = [
            f + t for f, t in zip(dense.false_counts, dense.true_counts)
        ]
        assert list(collapsed.false_counts) == totals
        assert all(t == 0 for t in collapsed.true_counts)


# ----------------------------------------------------------------------
# Kernel ≡ scalar on randomized relations, every bundled monoid
# ----------------------------------------------------------------------
def _samplers():
    """(monoid, annotation sampler) pairs covering every bundled carrier."""
    bagset = BagSetMonoid(4)
    shapley = ShapleyMonoid(4)
    provenance = ProvenanceMonoid()

    def monotone(rng):
        total, out = 0, []
        for _ in range(4):
            total += rng.randrange(0, 3)
            out.append(total)
        return tuple(out)

    def sat(rng):
        if rng.random() < 0.4:
            return rng.choice([shapley.zero, shapley.one, shapley.star])
        return SatVector(
            tuple(rng.randrange(0, 5) for _ in range(4)),
            tuple(rng.randrange(0, 5) for _ in range(4)),
        )

    return [
        (ProbabilityMonoid(), lambda rng: rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()])),
        (ExactProbabilityMonoid(), lambda rng: Fraction(rng.randrange(0, 5), 4)),
        (CountingSemiring(), lambda rng: rng.randrange(0, 6)),
        (RealSemiring(), lambda rng: rng.choice([0.0, 1.0, rng.random() * 3])),
        (BooleanSemiring(), lambda rng: rng.random() < 0.6),
        (MinPlusSemiring(), lambda rng: rng.choice([math.inf, 0, 1, rng.randrange(0, 9)])),
        (MaxTimesSemiring(), lambda rng: rng.randrange(0, 6)),
        (MaxPlusSemiring(), lambda rng: rng.choice([-math.inf, 0, rng.randrange(0, 9)])),
        (ResilienceMonoid(), lambda rng: rng.choice([math.inf, 0, 1, rng.randrange(0, 5)])),
        (bagset, lambda rng: monotone(rng)),
        (shapley, sat),
        (provenance, lambda rng: rng.choice(
            [provenance.zero, provenance.one, leaf("a"), leaf("b"), leaf("c")]
        )),
    ]


def _random_relation(atom, monoid, sampler, rng, tuples=12, domain=4):
    relation = KRelation(atom, monoid)
    for _ in range(tuples):
        values = tuple(rng.randrange(0, domain) for _ in range(atom.arity))
        relation.set(values, sampler(rng))
    return relation


def _assert_equal_relations(monoid, kernel_rel, scalar_rel):
    assert kernel_rel.support() == scalar_rel.support()
    for values, annotation in kernel_rel.items():
        assert monoid.eq(annotation, scalar_rel.annotation(values)), (
            monoid.name,
            values,
            annotation,
            scalar_rel.annotation(values),
        )


@pytest.mark.parametrize(
    "monoid,sampler", _samplers(), ids=lambda m: getattr(m, "name", None)
)
class TestKernelScalarEquivalence:
    def test_project_out(self, monoid, sampler):
        rng = random.Random(2024)
        atom = make_atom("R", ("X", "Y"))
        target = make_atom("R'", ("X",))
        for trial in range(6):
            relation = _random_relation(atom, monoid, sampler, rng)
            kernel_out = relation.project_out("Y", target)
            with scalar_kernels():
                scalar_out = relation.project_out("Y", target)
            _assert_equal_relations(monoid, kernel_out, scalar_out)

    def test_merge_with_reordered_variables(self, monoid, sampler):
        rng = random.Random(77)
        first_atom = make_atom("R", ("X", "Y"))
        second_atom = make_atom("S", ("Y", "X"))
        target = make_atom("R'", ("X", "Y"))
        for trial in range(6):
            first = _random_relation(first_atom, monoid, sampler, rng)
            # Disjoint-ish supports: one-sided tuples exercise the Shapley
            # union-merge (a ⊗ 0 ≠ 0) on every trial.
            second = _random_relation(second_atom, monoid, sampler, rng, domain=5)
            kernel_out = first.merge(second, target)
            with scalar_kernels():
                scalar_out = first.merge(second, target)
            _assert_equal_relations(monoid, kernel_out, scalar_out)

    def test_merge_identity_alignment(self, monoid, sampler):
        rng = random.Random(5)
        first_atom = make_atom("R", ("X", "Y"))
        second_atom = make_atom("S", ("X", "Y"))
        target = make_atom("R'", ("X", "Y"))
        first = _random_relation(first_atom, monoid, sampler, rng)
        second = _random_relation(second_atom, monoid, sampler, rng)
        kernel_out = first.merge(second, target)
        with scalar_kernels():
            scalar_out = first.merge(second, target)
        _assert_equal_relations(monoid, kernel_out, scalar_out)


def test_shapley_union_merge_keeps_one_sided_tuples():
    """a ⊗ 0 ≠ 0: tuples on one side only must survive a Shapley merge."""
    monoid = ShapleyMonoid(3)
    left = KRelation(make_atom("R", ("X",)), monoid, {(1,): monoid.star})
    right = KRelation(make_atom("S", ("X",)), monoid, {(2,): monoid.star})
    target = make_atom("R'", ("X",))
    merged = left.merge(right, target)
    with scalar_kernels():
        scalar_merged = left.merge(right, target)
    assert merged.support() == scalar_merged.support() == frozenset({(1,), (2,)})
    assert merged.annotation((1,)) == monoid.mul(monoid.star, monoid.zero)
    assert merged.annotation((2,)) == monoid.mul(monoid.zero, monoid.star)


def test_absorb_matches_scalar():
    monoid = CountingSemiring()
    rng = random.Random(9)
    big_atom = make_atom("R", ("X", "Y"))
    small_atom = make_atom("S", ("X",))
    target = make_atom("R'", ("X", "Y"))
    big = _random_relation(big_atom, monoid, lambda r: r.randrange(0, 5), rng)
    small = _random_relation(small_atom, monoid, lambda r: r.randrange(0, 5), rng)
    kernel_out = big.absorb(small, target)
    with scalar_kernels():
        scalar_out = big.absorb(small, target)
    _assert_equal_relations(monoid, kernel_out, scalar_out)


# ----------------------------------------------------------------------
# Plan cache and policy plumbing
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_repeat_compiles_hit_the_cache(self):
        clear_plan_cache()
        query = q_eq1()
        first = compile_plan(query)
        for _ in range(4):
            assert compile_plan(query) is first
        info = plan_cache_info()
        assert info["hits"] == 4 and info["misses"] == 1

    def test_policies_and_sizes_are_distinct_entries(self):
        clear_plan_cache()
        query = q_eq1()
        compile_plan(query, "rule1_first")
        compile_plan(query, "rule2_first")
        compile_plan(query, "min_support", relation_sizes={"R": 3, "S": 9, "T": 1})
        assert plan_cache_info()["size"] == 3

    def test_min_support_is_a_valid_policy_everywhere(self):
        from repro.query.elimination import eliminate, policy_names

        query = q_eq1()
        assert "min_support" in policy_names()
        assert eliminate(query, "min_support").success
        plan = compile_plan(query, "min_support")
        assert plan.final_relation
        monoid = CountingSemiring()
        annotated = KDatabase(query, monoid)
        assert run_algorithm(query, annotated, policy="min_support") == 0

    def test_min_support_prefers_small_intermediates(self):
        from repro.query.elimination import (
            Rule1Step,
            applicable_rule1_steps,
            make_min_support_policy,
            _FreshNames,
        )

        query = q_eq1()
        fresh = _FreshNames({atom.relation for atom in query.atoms})
        rule1 = applicable_rule1_steps(query, fresh)
        # Applicable Rule 1 moves on q_eq1: B (private in R), D (private in T).
        assert {step.source.relation for step in rule1} == {"R", "T"}
        policy = make_min_support_policy({"R": 1000, "S": 2, "T": 5})
        chosen = policy(rule1, [])
        assert isinstance(chosen, Rule1Step)
        assert chosen.source.relation == "T"

    def test_unknown_policy_message_lists_min_support(self):
        from repro.exceptions import QueryError
        from repro.query.elimination import eliminate

        with pytest.raises(QueryError, match="min_support"):
            eliminate(q_eq1(), "no_such_policy")


# ----------------------------------------------------------------------
# End-to-end smoke: kernel engine ≡ scalar engine
# ----------------------------------------------------------------------
class TestEndToEndSmoke:
    def test_figure1_bagset_identical(self, fig1_query, fig1_instance):
        from repro.problems.bagset_max import maximize_profile

        kernel_profile = maximize_profile(fig1_query, fig1_instance)
        scalar_profile = maximize_profile(
            fig1_query, fig1_instance, kernel_mode="scalar"
        )
        assert kernel_profile == scalar_profile
        assert kernel_profile[fig1_instance.budget] == 4  # the paper's optimum

    def test_figure1_all_policies_agree(self, fig1_query, fig1_instance):
        from repro.problems.bagset_max import maximize_profile

        profiles = {
            policy: maximize_profile(fig1_query, fig1_instance, policy=policy)
            for policy in ("rule1_first", "rule2_first", "min_support")
        }
        assert len(set(profiles.values())) == 1

    def test_invalid_kernel_mode_raises(self, fig1_query):
        annotated = KDatabase(fig1_query, CountingSemiring())
        plan = compile_plan(fig1_query)
        with pytest.raises(ReproError, match="kernel mode"):
            execute_plan(plan, annotated, kernel_mode="vectorized")

    def test_cli_accepts_min_support_policy(self, capsys):
        from repro.cli import main

        code = main(["check", "Q() :- R(A,B), S(A,C)", "--policy", "min_support"])
        assert code == 0
        out = capsys.readouterr().out
        assert "min_support" in out and "hierarchical: True" in out
