"""The observability layer: metric primitives, traces, exposition.

Covers the dependency-free :mod:`repro.obs` package in isolation —
counters/gauges/histograms and their registry, the shared ``quantile``
definition the benchmark reports, Prometheus text rendering (and its
scrape-side inverse), request traces and the JSONL event log — plus the
integration seams: instrumented scheduler/session stats staying exactly
as they were, and every stats() key now being a view over a registry.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.exceptions import ReproError
from repro.obs import (
    DEFAULT_BUCKETS,
    EventLog,
    MetricsRegistry,
    Trace,
    global_registry,
    parse_exposition,
    quantile,
    render_prometheus,
    trace_of,
)


# ----------------------------------------------------------------------
# quantile: the one percentile definition in the repo
# ----------------------------------------------------------------------
class TestQuantile:
    def test_matches_the_historical_bench_formula(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        ordered = sorted(values)
        for fraction in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            index = min(
                len(ordered) - 1, round(fraction * (len(ordered) - 1))
            )
            assert quantile(values, fraction) == ordered[index]

    def test_empty_input_yields_zero(self):
        assert quantile([], 0.95) == 0.0

    def test_single_value(self):
        assert quantile([7.5], 0.5) == 7.5
        assert quantile([7.5], 0.99) == 7.5

    def test_does_not_mutate_input(self):
        values = [3.0, 1.0, 2.0]
        quantile(values, 0.5)
        assert values == [3.0, 1.0, 2.0]


# ----------------------------------------------------------------------
# Counter / Gauge / Histogram children
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_value(self):
        child = MetricsRegistry().counter("repro_t_total", "t").labels()
        child.inc()
        child.inc(4)
        assert child.value == 5

    def test_negative_increment_rejected(self):
        child = MetricsRegistry().counter("repro_t_total", "t").labels()
        with pytest.raises(ReproError):
            child.inc(-1)

    def test_concurrent_increments_are_exact(self):
        child = MetricsRegistry().counter("repro_t_total", "t").labels()

        def bump():
            for _ in range(5000):
                child.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert child.value == 40_000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_g", "g").labels()
        gauge.set(10)
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 12

    def test_callback_wins_over_stored_value(self):
        gauge = MetricsRegistry().gauge("repro_g", "g").labels()
        gauge.set(1)
        gauge.set_function(lambda: 42)
        assert gauge.value == 42


class TestHistogram:
    def test_counts_and_sum(self):
        hist = MetricsRegistry().histogram(
            "repro_h_seconds", "h", buckets=(0.1, 1.0)
        ).labels()
        for value in (0.05, 0.5, 0.5, 2.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(3.05)
        # le-semantics: cumulative over (0.1, 1.0, +Inf)
        assert hist.cumulative_counts() == [1, 3, 4]

    def test_boundary_observation_lands_in_its_bucket(self):
        hist = MetricsRegistry().histogram(
            "repro_h_seconds", "h", buckets=(0.1, 1.0)
        ).labels()
        hist.observe(0.1)  # le="0.1" must include exactly-0.1
        assert hist.cumulative_counts()[0] == 1

    def test_quantile_within_one_bucket_width(self):
        hist = MetricsRegistry().histogram(
            "repro_h_seconds", "h", buckets=DEFAULT_BUCKETS
        ).labels()
        for _ in range(100):
            hist.observe(0.03)
        estimate = hist.quantile(0.5)
        assert 0.025 <= estimate <= 0.05

    def test_quantile_of_empty_histogram_is_zero(self):
        hist = MetricsRegistry().histogram("repro_h_seconds", "h").labels()
        assert hist.quantile(0.99) == 0.0

    def test_rejects_empty_or_infinite_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            registry.histogram("repro_bad_a", "h", buckets=())
        with pytest.raises(ReproError):
            registry.histogram(
                "repro_bad_b", "h", buckets=(1.0, math.inf)
            )


# ----------------------------------------------------------------------
# Families and the registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x", labels=("tier",))
        second = registry.counter("repro_x_total", "other help", labels=("tier",))
        assert first is second

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ReproError):
            registry.gauge("repro_x_total", "x")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x", labels=("tier",))
        with pytest.raises(ReproError):
            registry.counter("repro_x_total", "x", labels=("family",))

    def test_labels_must_match_declared_names(self):
        family = MetricsRegistry().counter(
            "repro_x_total", "x", labels=("tier",)
        )
        with pytest.raises(ReproError):
            family.labels(family="pqe")

    def test_invalid_metric_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "9starts_with_digit", "has space", "has-dash"):
            with pytest.raises(ReproError):
                registry.counter(bad, "x")

    def test_same_label_values_share_one_child(self):
        family = MetricsRegistry().counter(
            "repro_x_total", "x", labels=("tier",)
        )
        family.labels(tier="array").inc(2)
        family.labels(tier="array").inc(3)
        assert family.labels(tier="array").value == 5
        assert len(family.children()) == 1

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("repro_plain_total", "p").labels().inc(7)
        registry.counter(
            "repro_labeled_total", "l", labels=("tier",)
        ).labels(tier="array").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["repro_plain_total"] == 7
        assert snapshot["repro_labeled_total"][("array",)] == 2

    def test_global_registry_is_a_singleton(self):
        assert global_registry() is global_registry()


# ----------------------------------------------------------------------
# Exposition rendering and parsing
# ----------------------------------------------------------------------
class TestExposition:
    def test_counter_rendering(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_req_total", "Requests.", labels=("family",)
        ).labels(family="pqe").inc(3)
        text = render_prometheus([registry])
        assert "# HELP repro_req_total Requests.\n" in text
        assert "# TYPE repro_req_total counter\n" in text
        assert 'repro_req_total{family="pqe"} 3\n' in text

    def test_histogram_rendering_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0)
        ).labels()
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        text = render_prometheus([registry])
        assert 'repro_lat_seconds_bucket{le="0.1"} 1\n' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2\n' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3\n' in text
        assert "repro_lat_seconds_count 3\n" in text

    def test_merging_registries_sums_same_label_children(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for registry, amount in ((left, 2), (right, 5)):
            registry.counter(
                "repro_req_total", "Requests.", labels=("family",)
            ).labels(family="pqe").inc(amount)
        parsed = parse_exposition(render_prometheus([left, right]))
        assert parsed[("repro_req_total", (("family", "pqe"),))] == 7.0

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_req_total", "r", labels=("family",)
        ).labels(family='we"ird\\name').inc()
        text = render_prometheus([registry])
        assert 'family="we\\"ird\\\\name"' in text

    def test_parse_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_req_total", "r", labels=("family", "outcome")
        ).labels(family="pqe", outcome="ok").inc(9)
        registry.gauge("repro_depth", "d").labels().set(4)
        parsed = parse_exposition(render_prometheus([registry]))
        key = ("repro_req_total", (("family", "pqe"), ("outcome", "ok")))
        assert parsed[key] == 9.0
        assert parsed[("repro_depth", ())] == 4.0

    def test_callback_gauge_read_at_render_time(self):
        registry = MetricsRegistry()
        state = {"depth": 1}
        registry.gauge("repro_depth", "d").labels().set_function(
            lambda: state["depth"]
        )
        state["depth"] = 11
        parsed = parse_exposition(render_prometheus([registry]))
        assert parsed[("repro_depth", ())] == 11.0


# ----------------------------------------------------------------------
# Traces and the event log
# ----------------------------------------------------------------------
class TestTrace:
    def test_lifecycle_durations(self):
        trace = Trace("pqe")
        trace.mark("submitted")
        trace.mark("claimed")
        trace.mark("executed", kernel_mode="auto")
        trace.mark("resolved", outcome="ok")
        assert trace.queue_wait is not None and trace.queue_wait >= 0
        assert trace.total is not None and trace.total >= trace.queue_wait
        assert trace.outcome == "ok"

    def test_unresolved_trace_has_no_total(self):
        trace = Trace("pqe")
        trace.mark("submitted")
        assert trace.total is None
        assert trace.outcome is None

    def test_to_dict_uses_relative_timestamps(self):
        trace = Trace("pqe")
        trace.mark("submitted")
        trace.mark("resolved", outcome="ok")
        payload = trace.to_dict()
        assert payload["family"] == "pqe"
        assert payload["marks"][0]["t"] == 0.0
        assert payload["marks"][1]["stage"] == "resolved"
        assert payload["marks"][1]["outcome"] == "ok"
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_trace_of_reads_future_attribute_and_request_field(self):
        class Stub:
            pass

        future = Stub()
        future._repro_trace = Trace("pqe")
        assert trace_of(future) is future._repro_trace
        request = Stub()
        request.trace = Trace("resilience")
        assert trace_of(request) is request.trace
        assert trace_of(object()) is None


class TestEventLog:
    def test_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            for family in ("pqe", "resilience"):
                trace = Trace(family)
                trace.mark("submitted")
                trace.mark("resolved", outcome="ok")
                log.record(trace)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["family"] for line in lines] == [
            "pqe", "resilience",
        ]

    def test_close_is_idempotent(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.close()
        log.close()


# ----------------------------------------------------------------------
# Integration: instrumented layers keep their stats() contracts
# ----------------------------------------------------------------------
class TestInstrumentationSeams:
    def test_scheduler_stats_keys_are_registry_views(self):
        from fractions import Fraction

        from repro import Fact, ProbabilisticDatabase, Request, Server, parse_query

        query = parse_query("Q() :- R(X), S(X)")
        pdb = ProbabilisticDatabase({
            Fact("R", (1,)): Fraction(1, 2),
            Fact("S", (1,)): Fraction(1, 2),
        })
        with Server(query, probabilistic=pdb, workers=2) as server:
            server.map([
                Request.make("pqe"),
                Request.make("pqe"),          # memo hit
                Request.make("expected_count"),
            ])
            stats = server.stats()["scheduler"]
            snapshot = server.scheduler.metrics_registry.snapshot()
        # The flat keys agree with the registry; batching counters live
        # only under the nested "batching" view.
        events = snapshot["repro_scheduler_events_total"]
        assert stats["submitted"] == events[("submitted",)] == 3
        assert stats["executed"] == events[("executed",)]
        for name in ("sweeps", "swept_requests", "fused_batches"):
            assert stats["batching"][name] == events[(name,)]
            assert name not in stats

    def test_requests_total_accounts_every_submission(self):
        from fractions import Fraction

        from repro import Fact, ProbabilisticDatabase, Request, Server, parse_query

        query = parse_query("Q() :- R(X), S(X)")
        pdb = ProbabilisticDatabase({
            Fact("R", (1,)): Fraction(1, 2),
            Fact("S", (1,)): Fraction(1, 2),
        })
        with Server(query, probabilistic=pdb, workers=2) as server:
            server.map([Request.make("pqe"), Request.make("expected_count")])
            parsed = parse_exposition(server.render_metrics())
        ok = sum(
            value for (name, labels), value in parsed.items()
            if name == "repro_requests_total"
            and ("outcome", "ok") in labels
        )
        assert ok == 2
        # Latency histogram observed once per resolved request.
        count = sum(
            value for (name, labels), value in parsed.items()
            if name == "repro_request_latency_seconds_count"
        )
        assert count == 2

    def test_session_memo_metrics_match_stats(self):
        from fractions import Fraction

        from repro import Engine, Fact, ProbabilisticDatabase, parse_query

        query = parse_query("Q() :- R(X), S(X)")
        pdb = ProbabilisticDatabase({
            Fact("R", (1,)): Fraction(1, 2),
            Fact("S", (1,)): Fraction(1, 2),
        })
        session = Engine().open(query, probabilistic=pdb)
        session.request("pqe")
        session.request("pqe")
        stats = session.stats()
        snapshot = session.metrics_registry.snapshot()
        assert snapshot["repro_memo_hits_total"] == stats["memo"]["hits"] == 1
        assert (
            snapshot["repro_memo_misses_total"]
            == stats["memo"]["misses"]
            == 1
        )
        assert snapshot["repro_memo_entries"] == 1

    def test_grouped_absorb_run_reports_step_and_tier(self):
        from repro import Database, parse_query
        from repro.algebra.counting import CountingSemiring
        from repro.core.grouped import compile_grouped_plan, evaluate_grouped
        from repro.core.plan import AbsorbStep

        query = parse_query("Q() :- R(X), S(X, Y)")
        plan = compile_grouped_plan(query, {"X", "Y"})
        assert [type(step) for step in plan.steps] == [AbsorbStep]
        database = Database.from_relations(
            {"R": [(1,), (2,)], "S": [(1, 5), (2, 6), (3, 7)]}
        )

        def recorded():
            snapshot = global_registry().snapshot()
            steps = snapshot["repro_plan_step_seconds"]
            tiers = snapshot["repro_tier_executions_total"]
            return (
                steps.get(("absorb",), (0, 0.0))[0],
                tiers.get(("batched",), 0),
            )

        absorbs, executions = recorded()
        result = evaluate_grouped(
            query, {"X", "Y"}, CountingSemiring(), database.facts(),
            lambda _fact: 1, kernel_mode="batched",
        )
        assert sorted(result.items()) == [((1, 5), 1), ((2, 6), 1)]
        assert recorded() == (absorbs + 1, executions + 1)
