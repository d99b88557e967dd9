"""Metric primitives: counters, gauges, histograms, and their registry.

The observability layer's data model follows the Prometheus one — a
*metric family* has a name, a help string, a type, and a tuple of label
names; each distinct label-value assignment owns one *child* holding the
actual numbers — but the implementation is dependency-free and tuned for
this repo's serving stack:

* **lock striping** — children take their locks from a small fixed pool
  striped by child identity, so eight scheduler workers bumping eight
  different counters almost never contend, and a concurrent ``/metrics``
  scrape (which visits every child) holds each stripe only briefly;
* **passive collection** — a :class:`Gauge` may carry a *callback*
  evaluated at collection time (queue depth, breaker state, cache sizes),
  so steady-state instrumentation costs nothing between scrapes;
* **bucketed quantiles** — :class:`Histogram` keeps fixed cumulative
  buckets (the Prometheus ``le`` convention); :meth:`Histogram.quantile`
  answers p50/p95/p99 from the bucket counts, and the module-level
  :func:`quantile` helper is the *exact* sorted-list definition the
  benchmark reports, so runtime and benchmark percentiles share one home.

Registries render to the Prometheus text exposition format via
:func:`render_prometheus`, and :func:`parse_exposition` reads that format
back (the scrape-side helper the examples and tests use).

>>> registry = MetricsRegistry()
>>> requests = registry.counter(
...     "repro_requests_total", "Requests by family.", labels=("family",)
... )
>>> requests.labels(family="pqe").inc()
>>> requests.labels(family="pqe").inc(2)
>>> requests.labels(family="pqe").value
3
>>> print(render_prometheus([registry]).splitlines()[-1])
repro_requests_total{family="pqe"} 3
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterable, Sequence

from repro.exceptions import ReproError

#: Default latency buckets (seconds): the Prometheus convention, spanning
#: sub-millisecond memo hits up to multi-second Shapley sweeps.  The
#: implicit ``+Inf`` bucket is always appended.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size of the shared lock pool children stripe over.  16 stripes keep the
#: probability of two hot children colliding low while a full scrape still
#: only acquires 16 locks total.
LOCK_STRIPES = 16

_stripe_counter = [0]
_stripe_lock = threading.Lock()


def _next_stripe_index() -> int:
    with _stripe_lock:
        _stripe_counter[0] += 1
        return _stripe_counter[0] % LOCK_STRIPES


def quantile(values: Iterable[float], fraction: float) -> float:
    """The exact nearest-rank percentile the benchmark reports.

    Sorts a copy of *values* and indexes at ``round(fraction · (n-1))``.
    The benchmark (``perfbench/``) and anything else reporting exact
    percentiles share this definition, so every p50/p95 in the repo means
    the same thing.  An empty input yields 0.0.

    >>> quantile([3.0, 1.0, 2.0], 0.5)
    2.0
    >>> quantile([], 0.95)
    0.0
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _validate_name(name: str) -> str:
    if not name or not all(
        ch.isalnum() or ch in "_:" for ch in name
    ) or name[0].isdigit():
        raise ReproError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _labels_suffix(label_names: Sequence[str], label_values: Sequence[str]) -> str:
    if not label_names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(label_names, label_values)
    )
    return "{" + inner + "}"


class Counter:
    """One monotonically increasing child (one label-value assignment).

    >>> child = MetricsRegistry().counter("repro_demo_total", "demo").labels()
    >>> child.inc(); child.inc(4); child.value
    5
    """

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock):
        self._value = 0
        self._lock = lock

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ReproError(
                f"counters are monotone; cannot add {amount!r}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self):
        """The current count."""
        with self._lock:
            return self._value


class Gauge:
    """One settable child, optionally backed by a scrape-time callback.

    >>> gauge = MetricsRegistry().gauge("repro_demo", "demo").labels()
    >>> gauge.set(3); gauge.value
    3
    >>> gauge.set_function(lambda: 7); gauge.value
    7
    """

    __slots__ = ("_value", "_lock", "_callback")

    def __init__(self, lock: threading.Lock):
        self._value = 0
        self._lock = lock
        self._callback: Callable[[], float] | None = None

    def set(self, value) -> None:
        """Set the gauge to *value*."""
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (gauges may go both ways)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        """Subtract *amount*."""
        with self._lock:
            self._value -= amount

    def set_function(self, callback: Callable[[], float]) -> None:
        """Evaluate *callback* at every collection instead of a stored value.

        The passive-instrumentation hook: queue depth, breaker state and
        cache sizes are read from their owners only when a scrape asks.
        """
        self._callback = callback

    @property
    def value(self):
        """The current value (the callback's answer when one is set)."""
        callback = self._callback
        if callback is not None:
            return callback()
        with self._lock:
            return self._value


class Histogram:
    """One fixed-bucket histogram child with derivable quantiles.

    Observations land in cumulative buckets (Prometheus ``le`` semantics:
    ``counts[i]`` counts observations ≤ ``upper_bounds[i]``, stored here
    non-cumulatively and accumulated at read time).  ``quantile`` answers
    percentile estimates at bucket resolution — exact whenever every
    observation in the target bucket shares a value, and never off by more
    than one bucket width.

    >>> hist = MetricsRegistry().histogram(
    ...     "repro_demo_seconds", "demo", buckets=(0.1, 1.0)
    ... ).labels()
    >>> for value in (0.05, 0.05, 0.5, 2.0): hist.observe(value)
    >>> hist.count, round(hist.sum, 2)
    (4, 2.6)
    >>> hist.quantile(0.5) <= 0.1
    True
    """

    __slots__ = ("upper_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]):
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ReproError("a histogram needs at least one finite bucket")
        if any(b != b or b == float("inf") for b in bounds):
            raise ReproError("histogram buckets must be finite numbers")
        self.upper_bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.upper_bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def cumulative_counts(self) -> list[int]:
        """Per-bucket cumulative counts (``le`` semantics, +Inf last)."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        cumulative = []
        for count in counts:
            total += count
            cumulative.append(total)
        return cumulative

    def quantile(self, fraction: float) -> float:
        """The *fraction*-quantile estimated from the bucket counts.

        Returns the upper bound of the first bucket whose cumulative count
        reaches ``fraction · count``, linearly interpolated within the
        bucket; the +Inf bucket answers with the largest finite bound.
        Zero observations yield 0.0.
        """
        cumulative = self.cumulative_counts()
        total = cumulative[-1]
        if total == 0:
            return 0.0
        rank = fraction * total
        previous = 0
        lower = 0.0
        for index, reached in enumerate(cumulative):
            if reached >= rank:
                if index >= len(self.upper_bounds):
                    return self.upper_bounds[-1]
                upper = self.upper_bounds[index]
                in_bucket = reached - previous
                if in_bucket <= 0:
                    return upper
                return lower + (upper - lower) * (rank - previous) / in_bucket
            previous = reached
            lower = self.upper_bounds[min(index, len(self.upper_bounds) - 1)]
        return self.upper_bounds[-1]


class MetricFamily:
    """One named metric: a type, label names, and its per-label children.

    Children are created lazily by :meth:`labels` and cached, so the hot
    path — ``family.labels(family="pqe").inc()`` — is one dict lookup.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        label_names: Sequence[str],
        stripes: Sequence[threading.Lock],
        buckets: Sequence[float] | None = None,
    ):
        self.name = _validate_name(name)
        self.help = help_text
        self.type = metric_type
        self.label_names = tuple(label_names)
        self._stripes = stripes
        if metric_type == "histogram":
            bounds = tuple(sorted(buckets or ()))
            if not bounds:
                raise ReproError(
                    "a histogram needs at least one finite bucket"
                )
            if any(b != b or b == float("inf") for b in bounds):
                raise ReproError("histogram buckets must be finite numbers")
            buckets = bounds
        self._buckets = buckets
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def labels(self, **label_values) -> object:
        """The child for this label-value assignment (created on first use)."""
        if set(label_values) != set(self.label_names):
            raise ReproError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    stripe = self._stripes[_next_stripe_index()]
                    if self.type == "counter":
                        child = Counter(stripe)
                    elif self.type == "gauge":
                        child = Gauge(stripe)
                    else:
                        child = Histogram(stripe, self._buckets)
                    self._children[key] = child
        return child

    def children(self) -> list[tuple[tuple, object]]:
        """A point-in-time ``(label values, child)`` listing."""
        with self._lock:
            return list(self._children.items())

    def __repr__(self) -> str:
        return (
            f"MetricFamily({self.name!r}, type={self.type!r}, "
            f"labels={self.label_names})"
        )


class MetricsRegistry:
    """A named collection of metric families, renderable for Prometheus.

    One registry per instrumented component (a scheduler, a session's
    shared state, the process-wide core-engine registry) — the HTTP
    front-end renders several registries into one exposition.  Family
    constructors are idempotent: asking for an existing name returns the
    existing family (and raises on a type/label mismatch), so modules can
    declare their metrics unconditionally.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self._stripes = tuple(
            threading.Lock() for _ in range(LOCK_STRIPES)
        )

    def _family(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        labels: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.type != metric_type or family.label_names != tuple(
                    labels
                ):
                    raise ReproError(
                        f"metric {name!r} already registered as "
                        f"{family.type} with labels {family.label_names}"
                    )
                return family
            family = MetricFamily(
                name, help_text, metric_type, labels, self._stripes, buckets
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._family(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family with fixed *buckets*."""
        return self._family(name, help_text, "histogram", labels, buckets)

    def collect(self) -> list[MetricFamily]:
        """A point-in-time listing of every registered family."""
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> dict:
        """Every child's current value as one plain nested mapping.

        ``{name: value}`` for unlabeled single-child families and
        ``{name: {label values tuple: value}}`` for labeled ones;
        histograms report ``(count, sum)``.  This is the single source the
        scheduler's ``stats()`` and the CLI printer both read, so their
        numbers can never disagree.
        """
        snapshot: dict = {}
        for family in self.collect():
            entries = {}
            for key, child in family.children():
                if isinstance(child, Histogram):
                    entries[key] = (child.count, child.sum)
                else:
                    entries[key] = child.value
            if not family.label_names:
                snapshot[family.name] = entries.get((), 0)
            else:
                snapshot[family.name] = entries
        return snapshot


def render_prometheus(registries: Iterable[MetricsRegistry]) -> str:
    """Render *registries* into the Prometheus text exposition format.

    Families appearing in several registries are merged under one
    ``HELP``/``TYPE`` header; children with identical label sets are
    summed, so two sessions sharing a metric name scrape coherently.
    """
    merged: dict[str, tuple[MetricFamily, dict]] = {}
    for registry in registries:
        for family in registry.collect():
            entry = merged.get(family.name)
            if entry is None:
                merged[family.name] = (family, dict(family.children()))
                continue
            _first, children = entry
            for key, child in family.children():
                present = children.get(key)
                if present is None:
                    children[key] = child
                else:
                    children[key] = _MergedChild(present, child)
    lines: list[str] = []
    for name in sorted(merged):
        family, children = merged[name]
        lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.type}")
        for key in sorted(children):
            child = children[key]
            if family.type == "histogram":
                _render_histogram(lines, family, key, child)
            else:
                suffix = _labels_suffix(family.label_names, key)
                lines.append(
                    f"{name}{suffix} {_format_value(child.value)}"
                )
    return "\n".join(lines) + "\n"


class _MergedChild:
    """Sums two same-label children from different registries at render."""

    def __init__(self, left, right):
        self._left = left
        self._right = right

    @property
    def value(self):
        return self._left.value + self._right.value

    @property
    def count(self):
        return self._left.count + self._right.count

    @property
    def sum(self):
        return self._left.sum + self._right.sum

    @property
    def upper_bounds(self):
        return self._left.upper_bounds

    def cumulative_counts(self):
        left = self._left.cumulative_counts()
        right = self._right.cumulative_counts()
        return [a + b for a, b in zip(left, right)]


def _render_histogram(lines, family, key, child) -> None:
    cumulative = child.cumulative_counts()
    bounds = [*child.upper_bounds, float("inf")]
    for bound, reached in zip(bounds, cumulative):
        suffix = _labels_suffix(
            (*family.label_names, "le"), (*key, _format_value(bound))
        )
        lines.append(f"{family.name}_bucket{suffix} {reached}")
    suffix = _labels_suffix(family.label_names, key)
    lines.append(f"{family.name}_sum{suffix} {_format_value(child.sum)}")
    lines.append(f"{family.name}_count{suffix} {child.count}")


def parse_exposition(text: str) -> dict[tuple[str, tuple], float]:
    """Parse Prometheus text exposition back into ``{(name, labels): value}``.

    The scrape-side inverse of :func:`render_prometheus` for the tests and
    examples: labels are ``(name, value)`` pairs sorted by name.  Comment
    and blank lines are skipped; malformed sample lines raise.

    >>> parsed = parse_exposition('demo_total{family="pqe"} 3\\n')
    >>> parsed[("demo_total", (("family", "pqe"),))]
    3.0
    """
    parsed: dict[tuple[str, tuple], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels = []
            for part in _split_labels(label_text):
                key, raw = part.split("=", 1)
                labels.append((key, raw.strip('"')))
            labels.sort()
        else:
            name, value_text = line.rsplit(None, 1)
            labels = []
        parsed[(name.strip(), tuple(labels))] = float(value_text)
    return parsed


def _split_labels(label_text: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts: list[str] = []
    current: list[str] = []
    quoted = False
    for ch in label_text:
        if ch == '"':
            quoted = not quoted
        if ch == "," and not quoted:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return [part for part in parts if part]
