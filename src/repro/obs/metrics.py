"""Labeled metrics: counters, gauges and histograms with exposition.

The service layer's first telemetry cut (:mod:`repro.service.telemetry`)
was a flat counter bag — good enough to prove the pipeline worked, not
good enough to answer "how many writes were *remapped* under *this*
scheme".  :class:`MetricsRegistry` generalizes it: every metric is keyed
by ``(name, labels)`` where the labels are a frozen set of ``key=value``
pairs, so ``writes_total{scheme="aegis_rw", outcome="remapped"}`` and
``writes_total{scheme="aegis_rw", outcome="ok"}`` are independent series
that still share a name for exposition.

Three metric kinds, mirroring the Prometheus data model:

* **counters** — monotonically increasing integers (``inc``);
* **gauges** — last-set numeric values that *sum* on merge (per-shard
  gauges of additive quantities such as free blocks merge to the fleet
  total; non-additive gauges should live per-shard);
* **histograms** — fixed-bucket :class:`Histogram` series.

Determinism contract (shared with the rest of the observability layer):
no wall-clock, plain-int/float state, and a :meth:`MetricsRegistry.merge`
that is commutative for every metric kind, so sharded runs merge to a
snapshot that is bit-identical for any worker count and shard order.
:meth:`MetricsRegistry.to_prometheus_text` renders the standard text
exposition format for scraping-shaped tooling.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: label tuple as stored in registry keys: sorted ``(key, value)`` pairs
LabelItems = tuple[tuple[str, str], ...]

#: the label tuple of a label-less series (shared to skip sorting on the
#: hot no-label path)
NO_LABELS: LabelItems = ()

#: default bucket edges for registry histograms created without explicit
#: edges (coarse powers-of-two ladder)
DEFAULT_EDGES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class Histogram:
    """A fixed-bucket histogram with an unbounded overflow bucket.

    ``edges`` are inclusive upper bounds; a value larger than the last edge
    lands in the overflow bucket.  Buckets are plain counts, so merging two
    histograms (same edges) is element-wise addition.
    """

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        if not self.edges or list(self.edges) != sorted(self.edges):
            raise ConfigurationError("histogram edges must be non-empty and sorted")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)
        elif len(self.counts) != len(self.edges) + 1:
            raise ConfigurationError("histogram counts do not match edges")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: "np.ndarray") -> None:
        """Observe a whole batch of integer-valued observations at once.

        Equivalent to calling :meth:`observe` per element: the bucket for
        each value comes from ``searchsorted(..., side="left")`` (the same
        rule as ``bisect_left``), and because the observations are integers
        well below 2**53 the float ``sum`` accumulates exactly, so a batch
        observation is bit-identical to the sequential loop.
        """
        values = np.asarray(values)
        if values.size == 0:
            return
        buckets = np.searchsorted(self.edges, values, side="left")
        counts = self.counts
        for index, count in enumerate(np.bincount(buckets).tolist()):
            if count:
                counts[index] += count
        self.total += int(values.size)
        self.sum += float(values.sum())

    def observe_repeat(self, value: float, count: int) -> None:
        """Observe the same value ``count`` times (exact for integers)."""
        if count <= 0:
            return
        self.counts[bisect.bisect_left(self.edges, value)] += count
        self.total += count
        self.sum += value * count

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-quantile.

        The usual bucketed-histogram estimate, with two honest edge cases:
        a quantile that lands in the unbounded overflow bucket returns
        ``math.inf`` (the histogram genuinely cannot bound it — reporting
        the last finite edge would *under*-estimate the tail), and the
        rank is clamped to the first observation so ``q=0`` returns the
        lowest populated bucket rather than depending on empty leading
        buckets.
        """
        if not 0 <= q <= 1:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if index >= len(self.edges):
                    return math.inf
                return float(self.edges[index])
        raise AssertionError("histogram counts do not sum to total")  # pragma: no cover

    def quantile_label(self, q: float) -> str:
        """Human-readable quantile: ``">640"`` when it overflows the edges."""
        value = self.quantile(q)
        if math.isinf(value):
            return f">{self.edges[-1]:g}"
        return f"{value:g}"

    def merge(self, other: "Histogram") -> None:
        if other.edges != self.edges:
            raise ConfigurationError("cannot merge histograms with different edges")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum

    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": round(self.sum, 6),
            "mean": round(self.mean, 4),
        }


def _label_items(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


#: exposition escape sequences, decoded by :func:`_unescape`
_UNESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def _unescape(value: str) -> str:
    """Invert :func:`_escape` in a single left-to-right pass.

    A sequential ``.replace`` chain is wrong here: ``\\\\n`` (an escaped
    backslash followed by ``n``) would collapse to a newline.  Scanning
    left to right consumes each escape pair exactly once.
    """
    return re.sub(r"\\(\\|\"|n)", lambda m: _UNESCAPES[m.group(0)], value)


def render_series(name: str, labels: LabelItems | dict[str, object]) -> str:
    """The exposition-style series id: ``name{key="value",...}``.

    Accepts either pre-sorted label items (the registry's internal key
    form) or a plain mapping, which is normalised through
    :func:`_label_items` so :func:`parse_series` is an exact inverse.
    """
    if not labels:
        return name
    if isinstance(labels, dict):
        labels = _label_items(labels)
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Counters, gauges and histograms keyed by ``(name, labels)``.

    Deliberately dict-of-plain-values inside (picklable, mergeable); the
    per-series access cost is one tuple build + dict lookup, cheap enough
    for the service hot path.
    """

    def __init__(self) -> None:
        self.counters: dict[tuple[str, LabelItems], int] = {}
        self.gauges: dict[tuple[str, LabelItems], float] = {}
        self.histograms: dict[tuple[str, LabelItems], Histogram] = {}

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels: object) -> None:
        """Add ``amount`` to the counter series ``name{labels}``."""
        key = (name, _label_items(labels)) if labels else (name, NO_LABELS)
        counters = self.counters
        counters[key] = counters.get(key, 0) + amount

    def series_key(self, name: str, **labels: object) -> tuple[str, LabelItems]:
        """The registry key of a counter series, for precomputation.

        Hot call sites (the service write path) build their series keys
        once and bump them with :meth:`inc_key`, skipping the per-call
        label sort of :meth:`inc`.
        """
        return (name, _label_items(labels))

    def inc_key(self, key: tuple[str, LabelItems], amount: int = 1) -> None:
        """Add ``amount`` to a counter series by precomputed key."""
        counters = self.counters
        counters[key] = counters.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_items(labels))
        self.gauges[key] = value

    def observe(
        self,
        name: str,
        value: float,
        *,
        edges: tuple[float, ...] = DEFAULT_EDGES,
        **labels: object,
    ) -> None:
        key = (name, _label_items(labels))
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(edges)
        histogram.observe(value)

    def observe_many(
        self,
        name: str,
        values: "np.ndarray",
        *,
        edges: tuple[float, ...] = DEFAULT_EDGES,
        **labels: object,
    ) -> None:
        """Batch counterpart of :meth:`observe` (see
        :meth:`Histogram.observe_many` for the equivalence contract)."""
        key = (name, _label_items(labels))
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(edges)
        histogram.observe_many(values)

    # -- reading ------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> int:
        return self.counters.get((name, _label_items(labels)), 0)

    def counter_total(self, name: str, **labels: object) -> int:
        """Sum of every counter series of ``name`` whose labels include
        the given ones (e.g. ``counter_total("writes_total",
        outcome="remapped")`` across all schemes)."""
        wanted = set(_label_items(labels))
        return sum(
            value
            for (series, items), value in self.counters.items()
            if series == name and wanted.issubset(items)
        )

    def flat_counters(self) -> dict[str, int]:
        """The label-less counters as a plain name→value dict (the
        ``counters`` block of a
        :meth:`~repro.service.telemetry.ServiceTelemetry.snapshot`)."""
        return {
            name: value for (name, items), value in self.counters.items() if not items
        }

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters/gauges add, histograms merge
        bucket-wise — commutative in every part."""
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in other.gauges.items():
            self.gauges[key] = self.gauges.get(key, 0.0) + value
        for key, histogram in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = Histogram(
                    histogram.edges,
                    list(histogram.counts),
                    histogram.total,
                    histogram.sum,
                )
            else:
                mine.merge(histogram)

    def snapshot(self) -> dict:
        """Deterministic series→value mapping, sorted by series id."""

        def rendered(table: dict) -> dict:
            return {
                render_series(name, items): table[(name, items)]
                for name, items in sorted(table)
            }

        return {
            "counters": rendered(self.counters),
            "gauges": rendered(self.gauges),
            "histograms": {
                render_series(name, items): self.histograms[(name, items)].to_dict()
                for name, items in sorted(self.histograms)
            },
        }

    # -- exposition ---------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for name, items in sorted(self.counters):
            type_line(name, "counter")
            lines.append(f"{render_series(name, items)} {self.counters[(name, items)]}")
        for name, items in sorted(self.gauges):
            type_line(name, "gauge")
            lines.append(f"{render_series(name, items)} {self.gauges[(name, items)]:g}")
        for name, items in sorted(self.histograms):
            type_line(name, "histogram")
            histogram = self.histograms[(name, items)]
            cumulative = 0
            for edge, count in zip(histogram.edges, histogram.counts):
                cumulative += count
                bucket = items + (("le", f"{edge:g}"),)
                lines.append(f"{render_series(name + '_bucket', bucket)} {cumulative}")
            bucket = items + (("le", "+Inf"),)
            lines.append(f"{render_series(name + '_bucket', bucket)} {histogram.total}")
            lines.append(f"{render_series(name + '_sum', items)} {histogram.sum:g}")
            lines.append(f"{render_series(name + '_count', items)} {histogram.total}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> int:
        """Write the text exposition to ``path``; returns the line count."""
        text = self.to_prometheus_text()
        with open(path, "w") as handle:
            handle.write(text)
        return text.count("\n")


#: process-wide registry for call sites too deep to parameterize (the
#: Monte Carlo study drivers under ``repro run --metrics``); unlike the
#: service path's per-shard registries this is parent-process only
_GLOBAL: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry | None:
    return _GLOBAL


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install the process-wide registry; returns the previous one so
    callers can restore it."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


#: one ``key="value"`` pair inside a series id; the value body matches
#: escape pairs or any non-special character, so escaped quotes do not
#: terminate the value early
_LABEL_RE = re.compile(r'(\w+)="((?:\\.|[^"\\])*)"')
_SERIES_RE = re.compile(r"^([\w:]+)(?:\{(.*)\})?$")


def parse_series(series: str) -> tuple[str, dict[str, str]]:
    """Split a rendered series id back into ``(name, labels)``.

    The inverse of :func:`render_series`, including unescaping — a label
    value containing ``"`` or ``\\`` survives the round trip.  Raises
    :class:`ConfigurationError` on series that were not produced by
    :func:`render_series`.
    """
    match = _SERIES_RE.match(series)
    if not match:
        raise ConfigurationError(f"unparseable series id: {series!r}")
    name, body = match.group(1), match.group(2)
    labels: dict[str, str] = {}
    if body:
        consumed = 0
        for pair in _LABEL_RE.finditer(body):
            labels[pair.group(1)] = _unescape(pair.group(2))
            consumed = pair.end()
            if consumed < len(body) and body[consumed] == ",":
                consumed += 1
        if consumed != len(body):
            raise ConfigurationError(f"unparseable series labels: {series!r}")
    return name, labels


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse a text exposition back into a series→value dict.

    The inverse of :meth:`MetricsRegistry.to_prometheus_text` for the
    ``obs-report`` renderer; comment/blank lines are skipped and values
    are returned as floats (counters included).
    """
    series: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)
        except ValueError:
            continue
    return series
