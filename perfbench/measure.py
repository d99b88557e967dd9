"""Closed-loop timing, host-speed calibration and the statistics every
workload reports.

The CPUs this benchmark was tuned on are shared with other machines and
switch between phases whose speeds differ by up to 2x, each lasting from
seconds to minutes.  A run that falls into a slow phase is slower as a
whole, and no statistic over its own timings can tell that apart from a
slower program.  So every run also times a fixed piece of pure-Python
work (the *probe*) on the thread that drives the ops, about every
:data:`PROBE_EVERY` seconds, and reports its timings on a reference CPU:
each measured time is divided by the host's slowdown at that moment, the
probe's thread time over :data:`REFERENCE_PROBE_S`.

The probe builds and sorts a dict of tuples and lists, like the program's
fact handling, because the phases slow allocation-heavy code more than
arithmetic: across phases, the log-time of the program's ingest, problem
and update ops moved 0.93-1.07x as much as this probe's, but 1.23-1.46x
as much as an arithmetic loop's.  Binding sweeps and single-binding PQE
move less (0.66x and 0.74x), so those are over-corrected.  The probe
measures thread CPU time with the cyclic collector off, so it sees how
fast the CPU runs, not how busy the benchmark's own processes keep it or
what garbage the program left.  It runs in the benchmark's process, so
it does not see a slowdown confined to the CPU a separate server process
runs on.
"""

from __future__ import annotations

import gc
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from statistics import median as _median
from time import perf_counter, thread_time

#: Entries of the probe's dict, about two milliseconds of CPU.
PROBE_ENTRIES = 3000
#: About the probe's thread time in the quiet phases of the reference host
#: (a 2-CPU x86-64 virtual machine, CPython 3.11).
REFERENCE_PROBE_S = 2.0e-3
#: Seconds between probes while ops run (about 1% of the run).
PROBE_EVERY = 0.2
#: Probes within this many seconds of an op set its host speed.
PROBE_REACH = 1.0
#: Probes in one burst around a set-up.
BURST = 15
#: Seconds of each untraced or traced block of a ``--trace 1`` run.
TRACE_BLOCK = 1.0


def probe() -> float:
    """Thread seconds of one fixed piece of allocation-heavy work."""
    gc.disable()
    try:
        start = thread_time()
        table = {}
        for i in range(PROBE_ENTRIES):
            table[(i, str(i))] = [i, i + 1]
        sorted(table, key=repr)
        return thread_time() - start
    finally:
        gc.enable()


def host_speed() -> float:
    """The host's slowdown against the reference CPU, right now: the
    median of a burst of probes over :data:`REFERENCE_PROBE_S`."""
    return _median(probe() for _ in range(BURST)) / REFERENCE_PROBE_S


def calibrated_setup(setup) -> tuple[float, float]:
    """Run *setup* (returns its own measured seconds) between two probe
    bursts; returns ``(reference-CPU seconds, measured seconds)``."""
    before = host_speed()
    seconds = setup()
    after = host_speed()
    return seconds / ((before + after) / 2), seconds


@dataclass
class Record:
    """One timed op: its kind, latency, answer and what it asked for."""

    kind: str
    seconds: float
    #: Issue and answer times, seconds from the start of the phase.
    start: float = 0.0
    end: float = 0.0
    answer: object = None
    params: object = None
    ok: bool = True
    error: str = ""
    #: Whether span wrappers were on for this op (``--trace 1``).
    traced: bool = False
    #: Host slowdown against the reference CPU while the op ran.
    speed: float = 1.0

    @property
    def reference_seconds(self) -> float:
        return self.seconds / self.speed


@dataclass
class Phase:
    """The records of one closed-loop phase, its probes and wall time."""

    records: list = field(default_factory=list)
    elapsed: float = 0.0
    #: ``(seconds from the start of the phase, probe thread seconds)``.
    probes: list = field(default_factory=list)

    def calibrate(self) -> None:
        """Give every record the host speed of the probes near it."""
        times = [t for t, _ in self.probes]
        for record in self.records:
            middle = (record.start + record.end) / 2
            record.speed = self.speed_at(times, middle)

    def speed_at(self, times, moment: float) -> float:
        if not times:
            return 1.0
        low = bisect_left(times, moment - PROBE_REACH)
        high = bisect_right(times, moment + PROBE_REACH)
        if low == high:  # no probe that close: take the nearest one
            index = min(bisect_left(times, moment), len(times) - 1)
            low, high = index, index + 1
        return _median(s for _, s in self.probes[low:high]) / REFERENCE_PROBE_S

    def reference_elapsed(self) -> float:
        """The phase's wall time on the reference CPU: each stretch
        between probes divided by the host speed around it."""
        times = [t for t, _ in self.probes]
        edges = [0.0, *times, self.elapsed]
        return sum(
            (right - left) / self.speed_at(times, (left + right) / 2)
            for left, right in zip(edges, edges[1:])
            if right > left
        )


def closed_loop(clients, seconds: float, recorder=None, switch=None) -> Phase:
    """Run each client's ops back to back for *seconds*.

    Every client is an iterator of ``(kind, thunk, params)``; it issues
    its next op only once the previous one answered.  One client runs on
    the calling thread, more each get a thread.  The first client's thread
    runs the probe between ops.

    With a *switch*, the phase alternates untraced and traced blocks of
    :data:`TRACE_BLOCK` seconds: before each op whose block differs from
    the driving thread's last one, ``switch(traced)`` is called on that
    thread, and with a *recorder* each traced op is a root ``bench.op``
    span.
    """
    lists = [[] for _ in clients]
    probes: list = []

    def drive(ops, records, deadline, probing):
        traced = False
        last_probe = float("-inf")
        while True:
            now = perf_counter()
            if now >= deadline:
                break
            if probing and now - last_probe >= PROBE_EVERY:
                probes.append((now - origin, probe()))
                last_probe = now
            if switch is not None:
                wanted = int((now - origin) / TRACE_BLOCK) % 2 == 1
                if wanted != traced:
                    switch(wanted)
                    traced = wanted
            kind, thunk, params = next(ops)
            record = Record(kind, 0.0, params=params, traced=traced)
            start = perf_counter()
            record.start = start - origin
            try:
                if recorder is None or not traced:
                    record.answer = thunk()
                else:
                    with recorder.span("bench.op"):
                        record.answer = thunk()
            except Exception as error:  # every failure counts, none stops the loop
                record.ok = False
                record.error = f"{type(error).__name__}: {error}"
            record.seconds = perf_counter() - start
            record.end = record.start + record.seconds
            records.append(record)
        if switch is not None and traced:
            switch(False)

    origin = perf_counter()
    deadline = origin + seconds
    if len(clients) == 1:
        drive(clients[0], lists[0], deadline, True)
    else:
        threads = [
            threading.Thread(
                target=drive, args=(ops, records, deadline, index == 0)
            )
            for index, (ops, records) in enumerate(zip(clients, lists))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = perf_counter() - origin
    phase = Phase(
        [record for records in lists for record in records], elapsed, probes
    )
    phase.calibrate()
    return phase


def latency_ms(records, fraction: float, kind: str | None = None,
               reference: bool = True) -> float:
    """Latency percentile (ms) of *records*, optionally of one op kind,
    on the reference CPU or as measured, by the program's nearest-rank
    :func:`repro.obs.metrics.quantile`."""
    from repro.obs.metrics import quantile

    return 1e3 * quantile(
        [
            r.reference_seconds if reference else r.seconds
            for r in records if kind is None or r.kind == kind
        ],
        fraction,
    )


def histogram_quantile(before: dict, after: dict, fraction: float) -> float:
    """Quantile (seconds) of the difference of two scrapes of one
    histogram's cumulative buckets (``le`` bound → count), estimated the
    way :meth:`repro.obs.metrics.Histogram.quantile` estimates it."""
    from repro.obs.metrics import Histogram

    finite = sorted(b for b in after if b != float("inf"))
    if not finite:
        return 0.0
    delta = Histogram(threading.Lock(), finite)
    below = 0.0
    for bound in sorted(after):
        reached = after[bound] - before.get(bound, 0.0)
        value = bound if bound != float("inf") else 2 * finite[-1]
        for _ in range(int(round(reached - below))):
            delta.observe(value)
        below = reached
    return delta.quantile(fraction)


def median(values) -> float:
    values = list(values)
    return _median(values) if values else 0.0
