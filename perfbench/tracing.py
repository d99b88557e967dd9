"""Span tracing from outside the program, for the per-layer breakdown.

:func:`install` wraps the public functions of each layer at the site the
caller imports them from (``repro.engine.session.execute_plan``,
``KDatabase.annotate``, ...) with a span recorder, and returns an undo
callable that puts the originals back.  A span is ``(trace, span, parent,
name, start_ns, end_ns)``; spans nest per thread, and every span under
one root shares the root's id as its trace id.  Spans stay in memory
until :meth:`Recorder.dump`.

A layer's self time is the time its spans cover minus the time their
child spans cover (:func:`layer_self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter_ns

#: Span-name prefix → layer (no prefix is a prefix of another).
LAYERS = {
    "bench.op": "bench",
    "db.io": "db.io",
    "db.annotated.annotate": "db.annotated.annotate",
    "db.annotated.columnar_relation": "db.annotated.columnar",
    "db.annotated.set": "db.annotated.set",
    "problems": "problems",
    "engine.session": "engine.session",
    "core.plan": "core.plan",
    "core.algorithm": "core.algorithm",
    "core.fused": "core.fused",
    "core.incremental": "core.incremental",
    "serve.http": "serve.http",
}


def layer_of(name: str) -> str:
    return next(
        (layer for prefix, layer in LAYERS.items() if name.startswith(prefix)),
        name,
    )


class Recorder:
    """In-memory span store plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.columnar_calls = 0
        self.columnar_reused = 0
        self.fused_batches = 0
        self.fused_queries = 0

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. a server's warm-up)."""
        self.spans = []
        self.columnar_calls = self.columnar_reused = 0
        self.fused_batches = self.fused_queries = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        trace_id, parent = (stack[-1][0], stack[-1][1]) if stack else (span_id, 0)
        stack.append((trace_id, span_id))
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((trace_id, span_id, parent, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "columnar_calls": self.columnar_calls,
                "columnar_reused": self.columnar_reused,
                "fused_batches": self.fused_batches,
                "fused_queries": self.fused_queries,
            }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    @classmethod
    def load(cls, path) -> "Recorder":
        recorder = cls()
        with open(path, encoding="utf-8") as handle:
            counts = json.loads(handle.readline())
            for key, value in counts.items():
                setattr(recorder, key, value)
            recorder.spans = [tuple(json.loads(line)) for line in handle]
        return recorder


def _targets():
    """``(owner, attribute, span name)`` for every wrapped layer entry."""
    import repro.core.incremental as incremental
    import repro.db.io as dbio
    import repro.engine.session as session
    import repro.serve.http as http
    from repro.db.annotated import KDatabase
    from repro.engine.engine import Engine
    from repro.problems.bagset_max import BagSetInstance
    from repro.problems.resilience import ResilienceInstance
    from repro.problems.shapley import ShapleyInstance

    targets = [
        (dbio, "probabilistic_from_dict", "db.io.probabilistic_from_dict"),
        (KDatabase, "annotate", "db.annotated.annotate"),
        (KDatabase, "set", "db.annotated.set"),
        (session, "BagSetInstance", "problems.instance"),
        (session, "ShapleyInstance", "problems.instance"),
        (session, "ResilienceInstance", "problems.instance"),
        (BagSetInstance, "validate_against", "problems.validate_against"),
        (ShapleyInstance, "validate_against", "problems.validate_against"),
        (ResilienceInstance, "validate_against", "problems.validate_against"),
        (BagSetInstance, "addable_facts", "problems.addable_facts"),
        (session, "_bagset_psi", "problems.annotation_psi"),
        (session, "_shapley_psi", "problems.annotation_psi"),
        (session, "_resilience_psi", "problems.annotation_psi"),
        (session, "compile_for_database", "core.plan.compile"),
        (session, "execute_plan", "core.algorithm.execute_plan"),
        (incremental.IncrementalEvaluator, "update", "core.incremental.update"),
        (Engine, "open", "engine.session.open"),
        (http, "decode_body", "serve.http.decode_body"),
        (http, "encode_value", "serve.http.encode_value"),
    ]
    for method in (
        "request", "evaluate_many", "run", "pqe", "expected_count",
        "sat_vector", "resilience", "bagset_profile", "shapley_value",
    ):
        targets.append(
            (session.EngineSession, method, f"engine.session.{method}")
        )
    return targets


def _columnar_wrapper(recorder: Recorder, fn):
    """Time ``KDatabase.columnar_relation`` and count calls answered by
    the view already cached for the relation's current version."""

    @functools.wraps(fn)
    def traced(self, name, kernel):
        cached = self._columnar.get(name)
        with recorder.span("db.annotated.columnar_relation"):
            view = fn(self, name, kernel)
        recorder.columnar_calls += 1
        if cached is not None and view is cached[1]:
            recorder.columnar_reused += 1
        return view

    return traced


def _fused_wrapper(recorder: Recorder, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span("core.fused.execute_fused"):
            report = fn(*args, **kwargs)
        recorder.fused_batches += report.fused_batches
        recorder.fused_queries += report.fused_queries
        return report

    return traced


def install(recorder: Recorder, extra=()):
    """Wrap every layer entry point; returns a callable that undoes it."""
    import repro.engine.session as session
    from repro.db.annotated import KDatabase

    undo = []

    def patch(owner, attribute, replacement_of):
        raw = (
            owner.__dict__[attribute] if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        if isinstance(raw, classmethod):
            replacement = classmethod(replacement_of(raw.__func__))
        else:
            replacement = replacement_of(raw)
        setattr(owner, attribute, replacement)
        undo.append((owner, attribute, raw))

    for owner, attribute, name in [*_targets(), *extra]:
        patch(owner, attribute, functools.partial(recorder.wrap, name))
    patch(KDatabase, "columnar_relation",
          functools.partial(_columnar_wrapper, recorder))
    patch(session, "execute_fused",
          functools.partial(_fused_wrapper, recorder))

    def uninstall():
        for owner, attribute, raw in reversed(undo):
            setattr(owner, attribute, raw)

    return uninstall


def layer_self_times(spans) -> dict[str, float]:
    """Total self time (ns) per layer over *spans*."""
    children: dict[int, int] = {}
    for _trace, _span, parent, _name, start, end in spans:
        if parent:
            children[parent] = children.get(parent, 0) + (end - start)
    totals: dict[str, float] = {}
    for _trace, span_id, _parent, name, start, end in spans:
        layer = layer_of(name)
        own = (end - start) - children.get(span_id, 0)
        totals[layer] = totals.get(layer, 0) + own
    return totals


def span_stats(spans, prefix: str) -> tuple[int, int]:
    """``(calls, total ns)`` of the spans whose name starts with *prefix*."""
    calls = total = 0
    for span in spans:
        if span[3].startswith(prefix):
            calls += 1
            total += span[5] - span[4]
    return calls, total
