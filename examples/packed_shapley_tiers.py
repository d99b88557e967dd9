"""The packed columnar tier on an E6-style Shapley workload, tier by tier.

The Shapley/``#Sat`` 2-monoid carries *vectors* — degree-indexed exact
integer polynomials — which the columnar array tier historically declined,
leaving the paper's flagship attribution workload on the batched kernels.
The packed columnar tier closes that gap: a relation's annotations become
one trimmed ``(n, 2, w)`` int64 array (one row per fact, the false/true
slices along the middle axis), ψ-spike ⊕-folds reduce to per-slot
``reduceat`` counting, ⊗ runs as batched sliding-window convolutions, and
rows whose coefficients outgrow int64 route through the Kronecker kernel's
packed-operand caches — exactly, so every tier returns bit-identical
``#Sat`` vectors.

This script builds an E6-style instance (a 2-branch star query over a
random exogenous/endogenous split, like ``repro experiments E6``), runs the full
``#Sat`` computation once per execution tier, verifies the answers agree
bit-for-bit, and prints the timings — the packed tier is typically 2–3×
the batched kernels and well over 100× the scalar baseline on the largest
configuration.

Usage::

    python examples/packed_shapley_tiers.py [endogenous_count]
"""

import sys
import time

from repro.algebra.shapley import ShapleyMonoid
from repro.bench.experiments import _split_instance
from repro.core.algorithm import execute_plan
from repro.core.kernels import array_kernel_for, numpy_or_none
from repro.core.plan import compile_plan
from repro.db.annotated import KDatabase
from repro.problems.shapley import annotation_psi
from repro.query.families import star_query


def best_of(run, repeats: int = 5) -> float:
    """Best wall time of *repeats* runs (seconds) — amortized-cache timing."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def main() -> None:
    endogenous = int(sys.argv[1]) if len(sys.argv) > 1 else 192
    query = star_query(2)
    instance = _split_instance(
        query, exogenous=40, endogenous=endogenous, seed=endogenous
    )
    monoid = ShapleyMonoid(instance.endogenous_count + 1)
    facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]

    # One ψ-annotated database serves every tier: the tiers differ only in
    # how the elimination steps execute, never in what they compute.
    annotated = KDatabase.annotate(
        query, monoid, facts, annotation_psi(instance, monoid)
    )
    plan = compile_plan(query)
    print(f"query: {query}")
    print(
        f"|Dx|={len(instance.exogenous)}, |Dn|={instance.endogenous_count} "
        f"(#Sat vectors have {monoid.length} budget slots)"
    )

    tiers = {"scalar": "scalar", "batched": "batched"}  # tier -> kernel_mode
    if numpy_or_none() is not None:
        tiers["array"] = "auto"
        kernel = array_kernel_for(monoid)
        print(f"array tier kernel: {kernel!r} (packed 2-D rows)")
    else:
        print("numpy not installed: the array tier would fall back, skipping")

    results, timings = {}, {}
    for tier, mode in tiers.items():
        run = lambda mode=mode: execute_plan(
            plan, annotated, kernel_mode=mode
        ).result
        results[tier] = run()  # warm caches and columnar views first
        timings[tier] = best_of(run)

    baseline = results["scalar"]
    print(f"\n#Sat(k) head: {baseline.true_counts[:5]} ...")
    print(f"{'tier':<10} {'kernel time':>12} {'vs scalar':>10} {'identical':>10}")
    for tier in tiers:
        identical = results[tier] == baseline
        speedup = timings["scalar"] / timings[tier]
        print(
            f"{tier:<10} {timings[tier] * 1e3:>10.2f}ms "
            f"{speedup:>9.1f}x {str(identical):>10}"
        )
        assert identical, f"tier {tier} diverged from the scalar baseline"
    if "array" in timings:
        ratio = timings["batched"] / timings["array"]
        print(f"\npacked columnar vs batched: {ratio:.1f}x")


if __name__ == "__main__":
    main()
