"""Probabilistic query evaluation on an unreliable sensor network.

Scenario: a monitoring deployment stores which *zones* each gateway covers
and which *sensors* report into each gateway.  Hardware is flaky, so each
fact is present only with a probability (a tuple-independent probabilistic
database).  The operations question — "what is the probability that some
zone has a gateway with at least one live sensor?" — is the hierarchical
query

    Alive() :- Covers(G, Z) ∧ Reports(G, S')

(hierarchical because at(Z) ⊆ at(G) ⊇ at(S')).  Algorithm 1 with the
probability 2-monoid answers it in linear time; the script cross-checks
against exact possible-world enumeration and shows the exponential baseline
blowing up.

Usage::

    python examples/probabilistic_sensors.py
"""

import random
import time
from fractions import Fraction

from repro import (
    ProbabilisticDatabase,
    marginal_probability,
    marginal_probability_brute_force,
    parse_query,
)
from repro.db.fact import Fact


def build_network(
    gateways: int, zones_per_gateway: int, sensors_per_gateway: int, seed: int
) -> ProbabilisticDatabase:
    """Random coverage/reporting facts with heterogeneous reliabilities."""
    rng = random.Random(seed)
    probabilities = {}
    for gateway in range(gateways):
        for zone in rng.sample(range(100), zones_per_gateway):
            probabilities[Fact("Covers", (gateway, zone))] = Fraction(
                rng.randint(40, 85), 100
            )
        for sensor in rng.sample(range(1000), sensors_per_gateway):
            probabilities[Fact("Reports", (gateway, sensor))] = Fraction(
                rng.randint(2, 20), 100
            )
    return ProbabilisticDatabase(probabilities)


def main() -> None:
    query = parse_query("Alive() :- Covers(G, Z), Reports(G, S)")
    print(f"query: {query} (hierarchical)")
    print()

    print("exact agreement with possible-world enumeration (small network):")
    small = build_network(
        gateways=2, zones_per_gateway=2, sensors_per_gateway=2, seed=1
    )
    unified = marginal_probability(query, small, exact=True)
    brute = marginal_probability_brute_force(query, small, exact=True)
    print(f"  unified algorithm : {unified}")
    print(f"  brute force       : {brute}")
    assert unified == brute
    print()

    print("scaling (the brute force enumerates 2^|D| worlds):")
    print(f"{'|D|':>6} | {'unified [s]':>12} | {'brute force [s]':>16}")
    for gateways, sensors in ((2, 2), (2, 4), (3, 3)):
        network = build_network(gateways, 2, sensors, seed=gateways)
        start = time.perf_counter()
        marginal_probability(query, network)
        unified_time = time.perf_counter() - start
        start = time.perf_counter()
        marginal_probability_brute_force(query, network)
        brute_time = time.perf_counter() - start
        print(f"{len(network):>6} | {unified_time:>12.5f} | {brute_time:>16.5f}")
    print()

    print("larger network (brute force would need 2^|D| world evaluations):")
    big = build_network(
        gateways=6, zones_per_gateway=2, sensors_per_gateway=4, seed=7
    )
    start = time.perf_counter()
    probability = marginal_probability(query, big)
    elapsed = time.perf_counter() - start
    print(
        f"  |D| = {len(big)} facts → P[Alive] = {float(probability):.6f} "
        f"in {elapsed:.4f}s"
    )


if __name__ == "__main__":
    main()
