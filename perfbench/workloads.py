"""The in-process workloads: cold ingest, warm paper problems, writes.

Each workload sets itself up (timed as ``setup_s``), yields closed-loop
ops, checks the answers it recorded, and reads the program's counters so
the run can report deltas.  The HTTP workload lives in :mod:`serving`.
"""

from __future__ import annotations

import gc
import random
import resource
import subprocess
import sys
from json import loads
from pathlib import Path
from time import perf_counter

import repro.db.io as dbio
from repro.algebra.probability import ProbabilityMonoid
from repro.core.algorithm import compile_for_database, execute_plan
from repro.core.incremental import IncrementalEvaluator
from repro.core.plan import plan_cache_info
from repro.db.annotated import KDatabase
from repro.engine import Engine
from repro.obs import global_registry

from inputs import BUDGET, SWEEP_WIDTH, Inputs, block_schedule, zipf_sampler

#: Float PQE answers may differ from the scalar tier in the last bits
#: (the tiers fold in different orders); ``bench/perf.py`` E2 uses 1e-9.
FLOAT_TOLERANCE = 1e-9


def close_enough(left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return left == right or abs(left - right) <= FLOAT_TOLERANCE
    return left == right


def rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fallbacks_total() -> float:
    family = global_registry().snapshot().get("repro_tier_fallbacks_total", {})
    return float(sum(family.values())) if isinstance(family, dict) else float(family)


def core_counters() -> dict:
    plans = plan_cache_info()
    return {
        "plan_hits": plans["hits"],
        "plan_misses": plans["misses"],
        "fallbacks": fallbacks_total(),
    }


def session_counters(session) -> dict:
    stats = session.stats()
    return {
        **core_counters(),
        "memo_hits": stats["memo"]["hits"],
        "memo_misses": stats["memo"]["misses"],
    }


def last_of(records, kind: str):
    """The last record of *kind*, or ``None``."""
    return next((r for r in reversed(records) if r.kind == kind), None)


def mark_wrong(record, expected) -> None:
    record.ok = False
    record.error = f"answer {record.answer!r} != expected {expected!r}"


class InProcess:
    """Shared shape of the workloads that call the library directly."""

    clients = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5
    #: Op kinds in one seeded block; each run keeps these exact shares.
    block: list[str] = []

    def __init__(self, inputs: Inputs, root: Path):
        self.inputs = inputs
        self.root = root
        self.query = inputs.query

    def ops(self, client: int):
        rng = random.Random(self.inputs.seed * 7919 + client)
        kinds = block_schedule(rng, self.block)
        makers = self.op_makers(rng)
        for kind in kinds:
            yield makers[kind]()

    def peak_rss_mb(self) -> float:
        return rss_mb()

    def close(self) -> None:
        pass


class ColdIngest(InProcess):
    """JSON text → decode → fresh session → ``pqe()``, every op."""

    name = "cold_ingest"
    block = ["cold_pqe"]
    setups = 7

    #: A fresh interpreter: import the program, answer one cold request.
    CHILD = (
        "import sys, time\n"
        "document = open(sys.argv[1], encoding='utf-8').read()\n"
        "start = time.perf_counter()\n"
        "import json\n"
        "from repro.db.io import probabilistic_from_dict\n"
        "from repro.engine import Engine\n"
        "from repro.query.parser import parse_query\n"
        "query = parse_query(sys.argv[2])\n"
        "pdb = probabilistic_from_dict(json.loads(document))\n"
        "Engine().open(query, probabilistic=pdb).pqe()\n"
        "print(time.perf_counter() - start)\n"
    )

    def __init__(self, inputs, root):
        super().__init__(inputs, root)
        self.document = inputs.probabilistic_document()

    def setup(self, scratch: Path) -> float:
        from inputs import QUERY_TEXT

        path = scratch / "cold.json"
        path.write_text(self.document, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(path), QUERY_TEXT],
            capture_output=True, text=True, timeout=120,
            env=child_env(self.root),
        )
        if result.returncode != 0:
            raise RuntimeError(f"cold set-up failed: {result.stderr}")
        return float(result.stdout.strip().splitlines()[-1])

    def op_makers(self, rng):
        def cold():
            pdb = dbio.probabilistic_from_dict(loads(self.document))
            return Engine().open(self.query, probabilistic=pdb).pqe()

        return {"cold_pqe": lambda: ("cold_pqe", cold, None)}

    def counters(self) -> dict:
        return core_counters()

    def verify(self, records, rng) -> None:
        expected = Engine(kernel_mode="scalar").open(
            self.query, probabilistic=self.inputs.probabilistic
        ).pqe()
        for record in records:
            if record.ok and not close_enough(record.answer, expected):
                mark_wrong(record, expected)


class WarmMix(InProcess):
    """One warm session over every source; direct calls skip the memo."""

    name = "warm_mix"
    # 35% pqe(binding), 30% 16-binding sweeps, 10% resilience, 10%
    # sat_vector, 15% bagset_profile(16): the shares keep the p50 inside
    # the sweep ops and the p90 inside the bag-set ops, so neither
    # percentile sits on the edge between two op kinds.
    block = (
        ["pqe"] * 7 + ["sweep16"] * 6 + ["resilience"] * 2
        + ["shapley"] * 2 + ["bsm"] * 3
    )

    def setup(self, scratch: Path) -> float:
        inputs = self.inputs
        self.session = None
        gc.collect()
        start = perf_counter()
        session = Engine().open(self.query, **inputs.sources())
        hot = {"A": inputs.hot_values[0]}
        session.pqe()
        session.pqe(binding=hot)
        session.evaluate_many(
            [("pqe", {"binding": {"A": v}})
             for v in inputs.hot_values[:SWEEP_WIDTH]],
            use_memo=False,
        )
        session.sat_vector()
        session.resilience()
        session.bagset_profile(BUDGET)
        elapsed = perf_counter() - start
        self.session = session
        return elapsed

    def op_makers(self, rng):
        session = self.session
        binding = self.inputs.binding_sampler(rng)

        def pqe():
            chosen = binding()
            return "pqe", lambda: session.pqe(binding=chosen), chosen

        def sweep():
            chosen = [binding() for _ in range(SWEEP_WIDTH)]
            requests = [("pqe", {"binding": b}) for b in chosen]
            return (
                "sweep16",
                lambda: session.evaluate_many(requests, use_memo=False),
                chosen,
            )

        return {
            "pqe": pqe,
            "sweep16": sweep,
            "resilience": lambda: ("resilience", session.resilience, None),
            "shapley": lambda: ("shapley", session.sat_vector, None),
            "bsm": lambda: (
                "bsm", lambda: session.bagset_profile(BUDGET), None
            ),
        }

    def counters(self) -> dict:
        return session_counters(self.session)

    def verify(self, records, rng) -> None:
        """Every vector-carrier answer against the scalar tier's; a seeded
        sample of the binding ops, and the last of each binding kind,
        within 1e-9."""
        scalar = Engine(kernel_mode="scalar").open(
            self.query, **self.inputs.sources()
        )
        exact = {}
        bound = {}

        def scalar_pqe(chosen):
            key = chosen["A"]
            if key not in bound:
                bound[key] = scalar.pqe(binding=chosen)
            return bound[key]

        compute = {
            "resilience": scalar.resilience,
            "shapley": scalar.sat_vector,
            "bsm": lambda: scalar.bagset_profile(BUDGET),
        }
        binding_ops = [r for r in records if r.kind in ("pqe", "sweep16")]
        sample = rng.sample(binding_ops, min(12, len(binding_ops)))
        sample += [last_of(records, kind) for kind in ("pqe", "sweep16")]
        for record in records:
            if not record.ok:
                continue
            if record.kind in compute:
                if record.kind not in exact:
                    exact[record.kind] = compute[record.kind]()
                if record.answer != exact[record.kind]:
                    mark_wrong(record, exact[record.kind])
        for record in sample:
            if record is None or not record.ok:
                continue
            if record.kind == "pqe":
                expected = scalar_pqe(record.params)
                good = close_enough(record.answer, expected)
            else:
                expected = [scalar_pqe(b) for b in record.params]
                good = len(record.answer) == len(expected) and all(
                    close_enough(a, e) for a, e in zip(record.answer, expected)
                )
            if not good:
                mark_wrong(record, expected)


class UpdateMix(InProcess):
    """Writes beside reads: refreshes of a bound annotated database, and
    incremental updates of an evaluator over its own copy."""

    name = "update_mix"
    # One refresh per four incremental updates keeps the p50 inside the
    # incremental ops and the p90 near the middle of the refreshes of R
    # and S, below those of T (about a third of the refreshes, 1.6x
    # slower).  At one refresh per two updates the p90 sat on the edge
    # between the two groups, and at one per three in the tail of R and S.
    block = ["refresh"] + ["incremental"] * 4
    setups = 7
    #: Refresh answers re-checked against a scalar replay per run.
    CHECKED_REFRESHES = 12

    def _annotate(self) -> KDatabase:
        pdb = self.inputs.probabilistic
        return KDatabase.annotate(
            self.query, ProbabilityMonoid(), pdb.facts(), pdb.probability
        )

    def setup(self, scratch: Path) -> float:
        self.session = None
        gc.collect()
        start = perf_counter()
        annotated = self._annotate()
        session = Engine().open(self.query, annotated=annotated)
        session.request("run")
        evaluator = IncrementalEvaluator(self.query, self._annotate())
        elapsed = perf_counter() - start
        self.annotated, self.session, self.evaluator = (
            annotated, session, evaluator
        )
        return elapsed

    def op_makers(self, rng):
        # Writes go to hot keys: facts ranked by the frequency of their A
        # value (hottest first, seeded order within a value), then drawn
        # Zipf over that ranking.
        rank = {v: i for i, v in enumerate(self.inputs.hot_values)}
        facts = sorted(self.inputs.probabilistic.facts(), key=repr)
        rng.shuffle(facts)
        facts.sort(key=lambda f: rank.get(f.values[0], len(rank)))
        draw = zipf_sampler(rng, len(facts))
        annotated, session, evaluator = (
            self.annotated, self.session, self.evaluator
        )

        def write():
            return facts[draw()], rng.uniform(0.01, 0.99)

        def refresh():
            fact, probability = write()

            def op():
                annotated.set(fact, probability)
                return session.request("run")

            return "refresh", op, (fact, probability)

        def incremental():
            fact, probability = write()
            return (
                "incremental",
                lambda: evaluator.update(fact, probability),
                (fact, probability),
            )

        return {"refresh": refresh, "incremental": incremental}

    def counters(self) -> dict:
        return session_counters(self.session)

    def verify(self, records, rng) -> None:
        """Replay the writes on fresh copies: a seeded sample of refresh
        answers, the last refresh and the final incremental result
        against scalar runs."""
        refreshes = [r for r in records if r.kind == "refresh"]
        checked = set(map(id, rng.sample(
            refreshes, min(self.CHECKED_REFRESHES, len(refreshes))
        )))
        checked.add(id(last_of(records, "refresh")))
        replay = self._annotate()
        plan = compile_for_database(self.query, replay)

        def scalar(database):
            return execute_plan(plan, database, kernel_mode="scalar").result

        for record in refreshes:
            replay.set(*record.params)
            if id(record) in checked and record.ok:
                expected = scalar(replay)
                if not close_enough(record.answer, expected):
                    mark_wrong(record, expected)
        updates = [r for r in records if r.kind == "incremental"]
        if not updates:
            return
        mirror = self._annotate()
        for record in updates:
            mirror.set(*record.params)
        expected = scalar(mirror)
        final = updates[-1]
        if final.ok and not close_enough(final.answer, expected):
            mark_wrong(final, expected)


def child_env(root: Path) -> dict:
    """Environment for program subprocesses: the checkout's sources."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


IN_PROCESS = {cls.name: cls for cls in (ColdIngest, WarmMix, UpdateMix)}
