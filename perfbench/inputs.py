"""Seeded inputs shared by every workload.

Everything a run feeds the program is derived here from ``--seed`` with
the program's own generators (:mod:`repro.workloads.generators`), before
any timing starts; the program only ever receives the generated data.

* q_eq1 (``Q() :- R(A,B), S(A,C), T(A,C,D)``) over a Zipf(0.8) TID with
  |D| ≈ *scale* facts;
* a Shapley/resilience split: 32 random support facts endogenous, the
  rest exogenous;
* a bag-set repair database: a second random database minus the support,
  repaired under budget θ = 16;
* binding values of ``A`` ranked by frequency (hottest first) and drawn
  with Zipf weights over that ranking.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.io import database_to_dict, probabilistic_to_dict
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.query.families import q_eq1
from repro.workloads.generators import (
    random_database,
    random_probabilistic_database,
)

QUERY_TEXT = "Q() :- R(A,B), S(A,C), T(A,C,D)"
SKEW = 0.8
ENDOGENOUS = 32
BUDGET = 16
SWEEP_WIDTH = 16
#: Endogenous facts whose Shapley values the HTTP clients repeat.
HOT_SHAPLEY_FACTS = 8


def zipf_sampler(rng: random.Random, size: int, skew: float = SKEW):
    """A ``() → index`` draw over ``range(size)`` with weight ``1/(k+1)^skew``."""
    cumulative = list(accumulate(1.0 / (k + 1) ** skew for k in range(size)))
    total = cumulative[-1]
    return lambda: min(bisect_right(cumulative, rng.random() * total), size - 1)


def block_schedule(rng: random.Random, block: list[str]):
    """Endless op kinds: each block of ``len(block)`` ops is a seeded
    shuffle of *block*, so every op kind keeps its exact share of a run."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


@dataclass
class Inputs:
    seed: int
    query: object
    probabilistic: ProbabilisticDatabase
    support: Database
    exogenous: Database
    endogenous: Database
    repair: Database
    #: Values of ``A`` by frequency in ``R``, hottest first.
    hot_values: list

    def binding_sampler(self, rng: random.Random):
        """Zipf-ranked ``{"A": value}`` bindings, hottest value likeliest."""
        draw = zipf_sampler(rng, len(self.hot_values))
        return lambda: {"A": self.hot_values[draw()]}

    def sources(self) -> dict:
        """Every data source, as ``Engine.open`` keyword arguments."""
        return {
            "probabilistic": self.probabilistic,
            "database": self.support,
            "exogenous": self.exogenous,
            "endogenous": self.endogenous,
            "repair": self.repair,
        }

    def hot_shapley_facts(self) -> list[Fact]:
        return sorted(self.endogenous.facts(), key=repr)[:HOT_SHAPLEY_FACTS]

    def probabilistic_document(self) -> str:
        """The TID as the JSON text a cold client would send."""
        return json.dumps(probabilistic_to_dict(self.probabilistic))

    def stream_document(self, warmup: list[dict]) -> str:
        """A ``repro serve --requests`` document over every source."""
        return json.dumps({
            "query": QUERY_TEXT,
            "data": {
                "probabilistic": probabilistic_to_dict(self.probabilistic),
                "database": database_to_dict(self.support),
                "exogenous": database_to_dict(self.exogenous),
                "endogenous": database_to_dict(self.endogenous),
                "repair": database_to_dict(self.repair),
            },
            "requests": warmup,
        })


def make_inputs(seed: int, scale: int) -> Inputs:
    """Generate one run's inputs from *seed* at |D| ≈ *scale*."""
    query = q_eq1()
    probabilistic = random_probabilistic_database(
        query, scale // 3, max(4, scale // 6), seed, skew=SKEW
    )
    support = probabilistic.support_database()
    facts = sorted(support.facts(), key=repr)
    rng = random.Random(seed)
    endogenous = set(rng.sample(facts, min(ENDOGENOUS, len(facts) - 1)))
    repair_pool = random_database(
        query, max(1, scale // 6), max(4, scale // 6), seed + 1
    )
    frequency: dict = {}
    for fact in facts:
        if fact.relation == "R":
            frequency[fact.values[0]] = frequency.get(fact.values[0], 0) + 1
    return Inputs(
        seed=seed,
        query=query,
        probabilistic=probabilistic,
        support=support,
        exogenous=Database(f for f in facts if f not in endogenous),
        endogenous=Database(endogenous),
        repair=Database(
            f for f in repair_pool.facts() if f not in support
        ),
        hot_values=sorted(frequency, key=lambda v: (-frequency[v], v)),
    )
