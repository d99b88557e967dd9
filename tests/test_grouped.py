"""Tests for free-variable (grouped) evaluation — per-answer K-annotations."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.boolean import BooleanSemiring
from repro.algebra.counting import CountingSemiring
from repro.algebra.probability import ExactProbabilityMonoid, ProbabilityMonoid
from repro.core.algorithm import KERNEL_MODES
from repro.core.grouped import (
    compile_grouped_plan,
    evaluate_grouped,
)
from repro.core.plan import AbsorbStep, MergeStep, ProjectStep
from repro.db.database import Database
from repro.db.evaluation import satisfying_assignments
from repro.db.fact import Fact
from repro.exceptions import NotHierarchicalError, QueryError
from repro.query.families import q_eq1, q_h, star_query
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.query.parser import parse_query
from repro.workloads.generators import (
    random_database,
    random_probabilistic_database,
)


class TestCompilation:
    def test_root_variable_is_free(self):
        plan = compile_grouped_plan(q_eq1(), {"A"})
        assert plan.free_variables == {"A"}
        assert "A" not in {
            getattr(step, "variable", None) for step in plan.steps
        }

    def test_empty_free_set_matches_boolean_plan(self):
        plan = compile_grouped_plan(q_eq1(), set())
        from repro.core.plan import compile_plan

        boolean = compile_plan(q_eq1())
        assert len(plan.steps) == len(boolean.steps)

    def test_unknown_free_variable_rejected(self):
        with pytest.raises(QueryError):
            compile_grouped_plan(q_eq1(), {"Z"})

    def test_non_upward_closed_free_set_rejected(self):
        # C sits below A in the hierarchy; freeing C alone strands A.
        with pytest.raises(NotHierarchicalError):
            compile_grouped_plan(q_eq1(), {"C"})

    def test_upward_closed_pair_accepted(self):
        plan = compile_grouped_plan(q_eq1(), {"A", "C"})
        assert plan.free_variables == {"A", "C"}

    def test_rendering(self):
        plan = compile_grouped_plan(q_eq1(), {"A"})
        assert "free variables (A)" in str(plan)


class TestGroupedCounting:
    """Counting semiring → GROUP BY COUNT of satisfying assignments."""

    def _grouped_counts(self, query, free, database):
        result = evaluate_grouped(
            query, free, CountingSemiring(), database.facts(), lambda _f: 1
        )
        order = result.atom.variables
        return {values: count for values, count in result.items()}, order

    def test_fig1_grouped_by_a(self):
        database = Database.from_relations(
            {
                "R": [(1, 5), (2, 6)],
                "S": [(1, 1), (1, 2), (2, 3)],
                "T": [(1, 2, 4), (2, 3, 7), (2, 3, 8)],
            }
        )
        counts, order = self._grouped_counts(q_eq1(), {"A"}, database)
        assert order == ("A",)
        assert counts == {(1,): 1, (2,): 2}

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_assignment_grouping(self, seed):
        rng = random.Random(seed)
        query = star_query(rng.randint(1, 3))
        database = random_database(
            query, facts_per_relation=4, domain_size=3, seed=rng
        )
        counts, order = self._grouped_counts(query, {"X"}, database)
        expected = Counter(
            tuple(assignment[v] for v in order)
            for assignment in satisfying_assignments(query, database)
        )
        assert counts == dict(expected)

    def test_two_free_variables(self):
        database = Database.from_relations(
            {"R": [(1, 5)], "S": [(1, 1), (1, 2)], "T": [(1, 2, 4), (1, 2, 9)]}
        )
        counts, order = self._grouped_counts(q_eq1(), {"A", "C"}, database)
        expected = Counter(
            tuple(assignment[v] for v in order)
            for assignment in satisfying_assignments(q_eq1(), database)
        )
        assert counts == dict(expected)


class TestGroupedProbability:
    """Probability 2-monoid → per-answer marginal probability."""

    def test_against_possible_worlds(self):
        query = q_h()
        pdb = random_probabilistic_database(
            query, facts_per_relation=2, domain_size=2, seed=3, exact=True
        )
        result = evaluate_grouped(
            query, {"Y"}, ExactProbabilityMonoid(), pdb.facts(),
            lambda fact: pdb.probability(fact),
        )
        order = result.atom.variables
        # Reference: enumerate worlds, accumulate probability per Y-answer.
        from repro.problems.possible_worlds import ProbabilisticDatabase

        reference: dict[tuple, Fraction] = {}
        for world, probability in pdb.possible_worlds():
            answers = {
                tuple(assignment[v] for v in order)
                for assignment in satisfying_assignments(query, world)
            }
            for answer in answers:
                reference[answer] = reference.get(answer, Fraction(0)) + probability
        computed = {values: p for values, p in result.items()}
        assert computed == reference

    def test_probabilities_bounded(self):
        query = star_query(2)
        pdb = random_probabilistic_database(
            query, facts_per_relation=6, domain_size=3, seed=9
        )
        result = evaluate_grouped(
            query, {"X"}, ExactProbabilityMonoid().__class__(), pdb.facts(),
            lambda fact: Fraction(pdb.probability(fact)).limit_denominator(10**6),
        )
        for _values, probability in result.items():
            assert 0 <= probability <= 1


#: (query, free variables, the step kinds its grouped plan runs).
_STEP_KIND_PLANS = [
    ("Q() :- R(X), S(X, Y)", {"X"}, [ProjectStep, MergeStep]),
    ("Q() :- R(X), S(X, Y)", {"X", "Y"}, [AbsorbStep]),
    ("Q() :- R(X, Y)", {"X", "Y"}, []),  # the answer is an input relation
]


class TestGroupedTiers:
    """Every kernel mode answers every grouped step kind like the scalar
    baseline: exactly for counting and Boolean carriers, within the
    monoid tolerance for float probabilities."""

    @pytest.fixture(params=_STEP_KIND_PLANS, ids=["merge", "absorb", "step_free"])
    def case(self, request):
        text, free, kinds = request.param
        query = parse_query(text)
        assert [type(step) for step in compile_grouped_plan(query, free).steps] == kinds
        # A sparse unary R leaves X values of S unmatched, so merges and
        # absorbs drop rows rather than pass S through.
        rng = random.Random(17)
        probabilities = {
            Fact(atom.relation, tuple(rng.randrange(10) for _ in atom.variables)):
            rng.uniform(0.05, 0.95)
            for atom in query.atoms
            for _ in range(5 if len(atom.variables) == 1 else 30)
        }
        return query, free, ProbabilisticDatabase(probabilities)

    @staticmethod
    def _answers(query, free, monoid, facts, annotation_of, mode):
        result = evaluate_grouped(
            query, free, monoid, facts, annotation_of, kernel_mode=mode
        )
        return result.atom.variables, dict(result.items())

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    @pytest.mark.parametrize(
        "monoid, annotation_of",
        [
            (CountingSemiring(), lambda fact: 1 + sum(fact.values) % 3),
            (BooleanSemiring(), lambda fact: sum(fact.values) % 4 != 0),
        ],
        ids=["counting", "boolean"],
    )
    def test_exact_carriers_match_scalar(self, case, mode, monoid, annotation_of):
        query, free, pdb = case
        facts = list(pdb.facts())
        tier = self._answers(query, free, monoid, facts, annotation_of, mode)
        scalar = self._answers(
            query, free, monoid, facts, annotation_of, "scalar"
        )
        assert tier == scalar
        assert scalar[1]  # a non-empty answer relation

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_counting_matches_assignment_grouping(self, case, mode):
        query, free, pdb = case
        order, counts = self._answers(
            query, free, CountingSemiring(), pdb.facts(), lambda _f: 1, mode
        )
        expected = Counter(
            tuple(assignment[v] for v in order)
            for assignment in satisfying_assignments(
                query, pdb.support_database()
            )
        )
        assert counts == dict(expected)

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_probability_matches_scalar(self, case, mode):
        query, free, pdb = case
        monoid = ProbabilityMonoid()
        facts = list(pdb.facts())
        order, tier = self._answers(
            query, free, monoid, facts, pdb.probability, mode
        )
        scalar_order, scalar = self._answers(
            query, free, monoid, facts, pdb.probability, "scalar"
        )
        assert order == scalar_order
        assert tier.keys() == scalar.keys()
        for values, probability in scalar.items():
            assert monoid.eq(tier[values], probability)
