"""The ``serve_http`` workload: closed-loop HTTP clients against a
``python -m repro serve --http`` process.

Each run spawns fresh server processes, so the result memo starts from
the same state every time.  The server's warm-up stream is part of its
request document; ``setup_s`` is spawn until ``listening on``.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from repro.engine import Engine
from repro.obs.metrics import parse_exposition
from repro.serve.http import encode_value
from repro.serve.io import request_from_dict

from inputs import BUDGET, SWEEP_WIDTH, Inputs, block_schedule
from workloads import child_env, close_enough, mark_wrong

WORKERS = 2
MEMO_LIMIT = 512
CLIENTS = 2
#: Seconds a server may take to print ``listening on`` before it is killed.
START_TIMEOUT = 60


def fact_payload(fact) -> dict:
    return {"relation": fact.relation, "values": list(fact.values)}


class ServerProcess:
    """One ``repro serve`` process, up once it prints ``listening on``."""

    def __init__(self, root: Path, stream: Path, launcher_trace: Path | None):
        argv = [
            "serve", "--requests", str(stream), "--http", "0",
            "--workers", str(WORKERS), "--memo-limit", str(MEMO_LIMIT),
        ]
        if launcher_trace is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            command = [sys.executable, str(launcher), str(launcher_trace), *argv]
        start = perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=child_env(root),
        )
        self.url = None
        watchdog = threading.Timer(START_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                if line.startswith("listening on"):
                    self.url = line.split()[-1]
                    break
        finally:
            watchdog.cancel()
        self.startup = perf_counter() - start
        if self.url is None:
            self.stop()
            raise RuntimeError("server exited before listening")
        host, port = self.url.split("//", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def call(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def query(self, payload: dict) -> list:
        status, body = self.call(
            "POST", "/v1/query", json.dumps(payload).encode("utf-8")
        )
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {body[:200]!r}")
        document = json.loads(body)
        if document["failed"]:
            raise RuntimeError(f"request failed: {document['results']}")
        return [entry["value"] for entry in document["results"]]

    def scrape(self) -> dict:
        status, body = self.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered HTTP {status}")
        return parse_exposition(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def counter_view(parsed: dict) -> dict:
    """The scraped series the run reports as deltas."""

    def total(name, **labels):
        wanted = set(labels.items())
        return sum(
            value for (series, series_labels), value in parsed.items()
            if series == name and wanted <= set(series_labels)
        )

    buckets: dict[float, float] = {}
    for (series, labels), value in parsed.items():
        if series == "repro_request_latency_seconds_bucket":
            bound = float(dict(labels)["le"])
            buckets[bound] = buckets.get(bound, 0.0) + value
    return {
        "memo_hits": total("repro_memo_hits_total"),
        "memo_misses": total("repro_memo_misses_total"),
        "plan_hits": total("repro_plan_cache_hits"),
        "plan_misses": total("repro_plan_cache_misses"),
        "fallbacks": total("repro_tier_fallbacks_total"),
        "annotation_builds": total("repro_annotation_builds_total"),
        "executions": total("repro_tier_executions_total"),
        "submitted": total("repro_scheduler_events_total", event="submitted"),
        "coalesced": total("repro_scheduler_events_total", event="coalesced"),
        "sweeps": total("repro_scheduler_events_total", event="sweeps"),
        "fused_batches": total("repro_session_fused_batches_total"),
        "fused_queries": total("repro_session_fused_queries_total"),
        "latency_sum": total("repro_request_latency_seconds_sum"),
        "latency_count": total("repro_request_latency_seconds_count"),
        "latency_buckets": buckets,
    }


class ServeHttp:
    """Two closed-loop clients, one connection per request."""

    name = "serve_http"
    clients = CLIENTS
    setups = 3
    # 55% single-binding pqe, 15% 16-binding sweeps, 30% hot repeats.
    # The sweep share keeps the p90 inside the sweeps rather than on the
    # edge between them and the single-binding requests.
    block = ["pqe"] * 11 + ["sweep16"] * 3 + ["hot"] * 6

    def __init__(self, inputs: Inputs, root: Path):
        self.inputs = inputs
        self.root = root
        self.hot = [
            {"family": "pqe"},
            {"family": "expected_count"},
            {"family": "resilience"},
            *(
                {"family": "shapley_value", "fact": fact_payload(fact)}
                for fact in inputs.hot_shapley_facts()
            ),
        ]
        warmup = [
            *self.hot,
            {"family": "pqe", "bindings": [
                {"A": v} for v in inputs.hot_values[:SWEEP_WIDTH]
            ]},
            {"family": "sat_vector"},
            {"family": "bagset_profile", "budget": BUDGET},
        ]
        self.document = inputs.stream_document(warmup)
        self.server: ServerProcess | None = None
        self.stream: Path | None = None
        #: The server of the traced blocks (``--trace 1``), and each
        #: client thread's side.
        self.traced: ServerProcess | None = None
        self._side = threading.local()

    def setup(self, scratch: Path) -> float:
        if self.stream is None:
            self.stream = scratch / "stream.json"
            self.stream.write_text(self.document, encoding="utf-8")
        if self.server is not None:
            self.server.stop()
        self.server = ServerProcess(self.root, self.stream, None)
        return self.server.startup

    def traced_server(self, trace_path: Path) -> ServerProcess:
        """Start a second server whose process records spans (its warm-up
        spans dropped); :meth:`use_traced` sends the calling client
        thread's requests to it."""
        self.traced = ServerProcess(self.root, self.stream, trace_path)
        self.traced.process.send_signal(signal.SIGUSR1)
        return self.traced

    def use_traced(self, traced: bool) -> None:
        self._side.traced = traced

    def current(self) -> ServerProcess:
        traced = getattr(self._side, "traced", False)
        return self.traced if traced else self.server

    def ops(self, client: int):
        rng = random.Random(self.inputs.seed * 7919 + 101 + client)
        binding = self.inputs.binding_sampler(rng)
        for kind in block_schedule(rng, self.block):
            if kind == "pqe":
                payload = {"family": "pqe", "binding": binding()}
            elif kind == "sweep16":
                payload = {"family": "pqe", "bindings": [
                    binding() for _ in range(SWEEP_WIDTH)
                ]}
            else:
                payload = rng.choice(self.hot)
            yield kind, (lambda p=payload: self.current().query(p)), payload

    def counters(self, server: ServerProcess | None = None) -> dict:
        return counter_view((server or self.server).scrape())

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        for server in (self.server, self.traced):
            if server is not None:
                server.stop()
        self.server = self.traced = None

    def verify(self, records, rng) -> None:
        """Every answer against ``encode_value`` of the in-process answer;
        a seeded sample of those against the scalar tier."""
        sources = self.inputs.sources()
        session = Engine().open(self.inputs.query, **sources)
        expected: dict[str, object] = {}
        keys_of = {}
        for record in records:
            keys_of[id(record)] = keys = [
                json.dumps(entry, sort_keys=True)
                for entry in expand(record.params)
            ]
            for key in keys:
                expected.setdefault(key, None)
        bound = [k for k in expected if '"binding"' in k]
        for start in range(0, len(bound), SWEEP_WIDTH):
            chunk = bound[start:start + SWEEP_WIDTH]
            expected.update(zip(chunk, session.evaluate_many(
                [("pqe", {"binding": json.loads(k)["binding"]}) for k in chunk]
            )))
        for key in expected:
            if key not in bound:
                expected[key] = answer_in_process(session, json.loads(key))
        scalar = Engine(kernel_mode="scalar").open(
            self.inputs.query, **sources
        )
        hot = [k for k in expected if k not in bound]
        sample = rng.sample(bound, min(8, len(bound))) + hot[:4]
        bad = set()
        for key in sample:
            want = answer_in_process(scalar, json.loads(key))
            if not close_enough(expected[key], want):
                bad.add(key)
        for record in records:
            if not record.ok:
                continue
            keys = keys_of[id(record)]
            want = [encode_value(expected[k]) for k in keys]
            if record.answer != want or bad.intersection(keys):
                mark_wrong(record, want)


def expand(payload: dict) -> list[dict]:
    """One request object per answer (a ``bindings`` sweep is many)."""
    if "bindings" in payload:
        template = {k: v for k, v in payload.items() if k != "bindings"}
        return [{**template, "binding": b} for b in payload["bindings"]]
    return [payload]


def answer_in_process(session, entry: dict):
    request = request_from_dict(entry)
    return session.request(request.family, **request.kwargs)
