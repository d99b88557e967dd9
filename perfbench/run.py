"""End-to-end and per-layer benchmark of the hierarchical-query engine.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``BENCHMARK.json`` for why each exists): ``cold_ingest``,
``warm_mix``, ``serve_http`` and ``update_mix``.  Every run generates its
inputs from ``--seed`` first, sets the program up several times (the
median is ``setup_s``), runs closed-loop clients for ``--seconds`` and
checks the answers.  Times are reported on a reference CPU: each is
divided by the host's speed measured beside it (see :mod:`measure`).
Throughput and latency percentiles are taken over the whole run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
``--trace 1`` run alternates one-second blocks untraced and with span
wrappers installed, and reports layer self times from the traced blocks.
Results, spans and the environment are also written under
``.perfbench/``.  The exit code is non-zero when any answer is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import sys
from pathlib import Path
from time import perf_counter

from measure import (
    calibrated_setup, closed_loop, histogram_quantile, latency_ms, median,
)
from tracing import Recorder, install, layer_self_times, span_stats

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
DEFAULT_SCALE = 32000
OP_KINDS = (
    "pqe", "sweep16", "bsm", "shapley", "resilience", "refresh", "incremental",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=int, default=DEFAULT_SCALE,
        help="|D| of the generated database (the self-test shrinks it)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="alter the last recorded answer before checking (self-test)",
    )
    return parser.parse_args(argv)


def load_program():
    """Import the program from the checkout, or exit without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def run_phase(workload, seconds, recorder=None, switch=None):
    clients = [workload.ops(c) for c in range(workload.clients)]
    gc.collect()
    return closed_loop(clients, seconds, recorder, switch)


def end_to_end(phase, setups, peak_rss_mb) -> dict:
    records = phase.records
    failed = sum(not r.ok for r in records)
    return {
        "setup_s": metric(median(s for s, _ in setups), "s"),
        "throughput_ops_s": metric(
            len(records) / phase.reference_elapsed(), "ops/s"
        ),
        "latency_p50_ms": metric(latency_ms(records, 0.5), "ms"),
        "latency_p90_ms": metric(latency_ms(records, 0.9), "ms"),
        "ok_ratio": metric(1 - ratio(failed, len(records)), "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
    }


def mean_speed(records) -> float:
    return ratio(sum(r.speed for r in records), len(records)) or 1.0


def per_layer(phase, recorder, before, after, serve=None) -> dict:
    """Layer metrics from the traced blocks (per op unless a count or a
    per-call mean, on the reference CPU), op-kind medians from the
    untraced blocks, and the tracing overhead between the two."""
    traced = [r for r in phase.records if r.traced]
    untraced = [r for r in phase.records if not r.traced]
    ops = max(len(traced), 1)
    speed = mean_speed(traced)
    spans = recorder.spans
    self_ns = layer_self_times(spans)

    def per_op_ms(layer):
        return self_ns.get(layer, 0) / 1e6 / ops / speed

    def mean_us(prefix):
        calls, total = span_stats(spans, prefix)
        return total / 1e3 / calls / speed if calls else 0.0

    _, columnar_ns = span_stats(spans, "db.annotated.columnar_relation")
    executions, _ = span_stats(spans, "core.algorithm.")
    builds, _ = span_stats(spans, "db.annotated.annotate")
    memo = delta(before, after, "memo_hits") + delta(before, after, "memo_misses")
    plans = delta(before, after, "plan_hits") + delta(before, after, "plan_misses")
    metrics = {
        "db.io.decode_ms": metric(per_op_ms("db.io"), "ms"),
        "db.annotated.annotate_ms": metric(
            per_op_ms("db.annotated.annotate"), "ms"
        ),
        "db.annotated.columnar_build_ms": metric(
            columnar_ns / 1e6 / ops / speed, "ms"
        ),
        "db.annotated.view_reuse_ratio": metric(
            ratio(recorder.columnar_reused, recorder.columnar_calls), "ratio"
        ),
        "db.annotated.set_us": metric(mean_us("db.annotated.set"), "us"),
        "problems.instance_ms": metric(per_op_ms("problems"), "ms"),
        "engine.session.self_ms": metric(per_op_ms("engine.session"), "ms"),
        "engine.session.memo_hit_ratio": metric(
            ratio(delta(before, after, "memo_hits"), memo), "ratio"
        ),
        "engine.session.annotation_builds": metric(builds / ops, "count/op"),
        "core.plan.compile_us": metric(mean_us("core.plan.compile"), "us"),
        "core.plan.cache_hit_ratio": metric(
            ratio(delta(before, after, "plan_hits"), plans), "ratio"
        ),
        "core.algorithm.execute_ms": metric(
            per_op_ms("core.algorithm"), "ms"
        ),
        "core.algorithm.executions": metric(executions / ops, "count/op"),
        "core.algorithm.tier_fallbacks": metric(
            delta(before, after, "fallbacks"), "count"
        ),
        "core.fused.execute_ms": metric(per_op_ms("core.fused"), "ms"),
        "core.fused.mean_width": metric(
            ratio(recorder.fused_queries, recorder.fused_batches), "queries"
        ),
        "core.incremental.update_us": metric(
            mean_us("core.incremental.update"), "us"
        ),
        "trace.overhead_ms": metric(
            latency_ms(traced, 0.5) - latency_ms(untraced, 0.5), "ms"
        ),
        "trace.unattributed_ms": metric(per_op_ms("bench"), "ms"),
        "env.cpu_count": metric(os.cpu_count() or 0, "count"),
    }
    for kind in OP_KINDS:
        metrics[f"op.{kind}_p50_ms"] = metric(
            latency_ms(untraced, 0.5, kind), "ms"
        )
    server = serve or {}
    metrics.update({
        "serve.scheduler.server_p50_ms": metric(
            server.get("server_p50_ms", 0.0), "ms"
        ),
        "serve.scheduler.coalesced_ratio": metric(
            server.get("coalesced_ratio", 0.0), "ratio"
        ),
        "serve.scheduler.sweeps": metric(server.get("sweeps", 0.0), "count"),
        "serve.http.overhead_mean_ms": metric(
            server.get("overhead_mean_ms", 0.0), "ms"
        ),
    })
    return metrics


def serve_figures(records, before: dict, after: dict) -> dict:
    """Scheduler and HTTP figures from two /metrics scrapes around
    *records*, server times on the reference CPU like the client's."""
    speed = mean_speed(records)
    count = delta(before, after, "latency_count")
    server_mean_ms = 1e3 * ratio(delta(before, after, "latency_sum"), count)
    # Per request on both sides: each request of a sweep waited for its
    # whole HTTP exchange.
    weights = [len(r.params.get("bindings", [None])) for r in records]
    client_mean_ms = 1e3 * ratio(
        sum(r.seconds * w for r, w in zip(records, weights)), sum(weights)
    )
    return {
        "server_p50_ms": 1e3 * histogram_quantile(
            before["latency_buckets"], after["latency_buckets"], 0.5
        ) / speed,
        "coalesced_ratio": ratio(
            delta(before, after, "coalesced"), delta(before, after, "submitted")
        ),
        "sweeps": delta(before, after, "sweeps"),
        "overhead_mean_ms": (client_mean_ms - server_mean_ms) / speed,
        "fused_mean_width": ratio(
            delta(before, after, "fused_queries"),
            delta(before, after, "fused_batches"),
        ),
    }


def layer_split(recorder, phase) -> dict:
    """Mean self ms per traced op by layer, as measured, and their sum
    against the traced ops' measured time."""
    traced = [r for r in phase.records if r.traced]
    ops = max(len(traced), 1)
    layers = {
        layer: ns / 1e6 / ops
        for layer, ns in sorted(layer_self_times(recorder.spans).items())
    }
    op_ms = 1e3 * sum(r.seconds for r in traced) / ops
    return {"op_ms": op_ms, "layer_sum_ms": sum(layers.values()),
            "layers_ms": layers, "host_speed": mean_speed(traced)}


def traced_run(workload, seconds, trace_file: Path, serve: bool):
    """Alternate one-second untraced and traced blocks for *seconds*, so
    both sides see the same host.

    In process, the span wrappers are installed for each traced block and
    removed after it.  For ``serve_http`` a second server, started through
    the launcher with the wrappers installed, answers the traced blocks.
    Returns the phase, the recorder, the counters around the phase (of
    the traced server for ``serve_http``) and, for ``serve_http``, the
    scheduler and HTTP figures of the untraced server.
    """
    if serve:
        traced_server = workload.traced_server(trace_file)
        try:
            plain_before = workload.counters()
            before = workload.counters(traced_server)
            phase = run_phase(workload, seconds, switch=workload.use_traced)
            after = workload.counters(traced_server)
            plain_after = workload.counters()
        finally:
            traced_server.stop()
        figures = serve_figures(
            [r for r in phase.records if not r.traced],
            plain_before, plain_after,
        )
        return phase, Recorder.load(trace_file), before, after, figures
    recorder = Recorder()
    installed = []

    def switch(traced):
        if traced:
            installed.append(install(recorder, extra=[
                (sys.modules["workloads"], "loads", "db.io.json_loads"),
            ]))
        else:
            installed.pop()()

    before = workload.counters()
    phase = run_phase(workload, seconds, recorder=recorder, switch=switch)
    after = workload.counters()
    recorder.dump(trace_file)
    return phase, recorder, before, after, None


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from inputs import make_inputs
    from serving import ServeHttp
    from workloads import IN_PROCESS

    registry = {**IN_PROCESS, ServeHttp.name: ServeHttp}
    if args.workload not in registry:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(registry)}", file=sys.stderr)
        return 2
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    started = perf_counter()
    inputs = make_inputs(args.seed, args.scale)
    workload = registry[args.workload](inputs, ROOT)
    artifact: dict = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "scale": args.scale,
        "environment": environment(), "inputs_s": perf_counter() - started,
    }
    # The benchmark's own inputs stay alive all run; keep the cyclic
    # collector from re-scanning them inside the program's timed ops.
    gc.collect()
    gc.freeze()
    serve = args.workload == ServeHttp.name
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Only the untraced run reports ``setup_s``; a traced run sets up once.
    setups = workload.setups if args.trace == 0 else 1
    try:
        setups = [
            calibrated_setup(lambda: workload.setup(scratch))
            for _ in range(setups)
        ]
        if args.trace == 0:
            before = workload.counters()
            phase = run_phase(workload, args.seconds)
            after = workload.counters()
            peak_rss = workload.peak_rss_mb()
            if serve:
                artifact["serve"] = serve_figures(phase.records, before, after)
        else:
            phase, recorder, before, after, figures = traced_run(
                workload, args.seconds, OUT / f"trace-{tag}.jsonl", serve
            )
            artifact["split"] = layer_split(recorder, phase)
            artifact["serve"] = figures
        records = phase.records
        if args.corrupt and records:
            # Every workload checks its last op (besides its sample).
            records[-1].answer = ("corrupted",)
        started = perf_counter()
        workload.verify(records, random.Random(args.seed))
        artifact["verify_s"] = perf_counter() - started
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace == 0:
        metrics = end_to_end(phase, setups, peak_rss)
    else:
        metrics = per_layer(phase, recorder, before, after, figures)
    failed = sum(not r.ok for r in records)
    errors = sorted({r.error for r in records if not r.ok})[:5]
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    artifact.update(
        result, errors=errors, setups_s=setups,
        measured={
            "throughput_ops_s": len(records) / phase.elapsed,
            "latency_p50_ms": latency_ms(records, 0.5, reference=False),
            "latency_p90_ms": latency_ms(records, 0.9, reference=False),
            "host_speed": mean_speed(records),
        },
        counters={"before": _scalars(before), "after": _scalars(after)},
        probes=[[round(t, 4), round(s, 7)] for t, s in phase.probes],
        ops=[[r.kind, round(r.start, 6), round(r.seconds, 7), int(r.traced)]
             for r in records],
    )
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps({"environment": artifact["environment"],
                      "errors": errors, "split": artifact.get("split"),
                      "measured": artifact["measured"]}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _scalars(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if not isinstance(v, dict)}


if __name__ == "__main__":
    sys.exit(main())
