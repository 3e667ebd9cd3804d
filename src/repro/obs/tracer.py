"""Deterministic write-path tracing: op-clock-stamped span trees.

A :class:`Tracer` records *why a particular operation cost what it did*:
every stage of the service write pipeline (buffer drain → fail-cache
consult → differential write → verify → repartition escalation → spare
remap) and the Monte Carlo study phases open a span, annotate it with the
stage's deterministic costs (cell writes, verification reads, repartition
count — the quantities "Codes for Partially Stuck-at Memory Cells" shows
vary per write), and close it.  Nested stages become child spans, so one
serviced write exports as a span *tree* attributing its total cost.

Determinism contract
--------------------
Spans are stamped with a monotonically increasing *tick* counter (one
tick per span open/close) and with whatever operation-counter attributes
the caller supplies — never wall-clock.  A shard's tracer is therefore a
pure function of the shard's inputs, and :meth:`Tracer.merge` appends
shard-tagged roots in shard order, so the exported JSONL is bit-identical
for every worker count — the same contract
:class:`~repro.service.telemetry.ServiceTelemetry` honors.  Wall-clock
per-layer timing is perfbench's ``--trace`` recorder, outside ``src/``.

Sampling
--------
Tracing every op of a million-op load run would swamp the artifact, so
root spans are sampled: every ``sample_every``-th root is kept, and —
because failures are exactly the ops worth attributing — any root whose
tree contains an error span is *always* kept.  Both
decisions depend only on deterministic state, so sampling never breaks
the merge contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: attr keys that identify rather than cost — excluded from snapshot totals
_NUMERIC = (int, float)


@dataclass(slots=True)
class Span:
    """One traced stage: name, tick interval, annotations, cost, children."""

    name: str
    start: int
    attrs: dict = field(default_factory=dict)
    costs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    end: int | None = None
    error: bool = False

    def set(self, **attrs: object) -> None:
        """Annotate with identifying attributes (address, op, attempt...)."""
        self.attrs.update(attrs)

    def cost(self, **costs: float) -> None:
        """Accumulate named cost quantities (summed in the trace snapshot)."""
        for key, value in costs.items():
            self.costs[key] = self.costs.get(key, 0) + value

    def fail(self) -> None:
        self.error = True

    def subtree_error(self) -> bool:
        return self.error or any(child.subtree_error() for child in self.children)

    def subtree_cost(self, key: str) -> float:
        return self.costs.get(key, 0) + sum(
            child.subtree_cost(key) for child in self.children
        )

    def to_dict(self) -> dict:
        record: dict = {"name": self.name, "start": self.start, "end": self.end}
        if self.attrs:
            record["attrs"] = dict(sorted(self.attrs.items()))
        if self.costs:
            record["costs"] = dict(sorted(self.costs.items()))
        if self.error:
            record["error"] = True
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record


class _NullSpan:
    """Reusable do-nothing span, so the untraced hot path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        pass

    def cost(self, **costs: float) -> None:
        pass

    def fail(self) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Hand-rolled span context manager.

    The traced service hot path opens a span per buffered write request;
    ``contextlib.contextmanager`` costs a generator frame plus three
    delegating calls per span, which profiled as ~15% of a traced load
    run.  This class keeps the exact open/close tick semantics of the
    original generator version (one tick on open, one on close, errors
    re-raised after marking) with a single allocation.
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        tracer.clock += 1
        span = Span(name=self._name, start=tracer.clock, attrs=self._attrs)
        stack = tracer._stack
        self._parent = stack[-1] if stack else None
        if self._parent is not None:
            self._parent.children.append(span)
        stack.append(span)
        self._span = span
        return span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        tracer = self._tracer
        span = self._span
        if exc_type is not None:
            span.error = True
        tracer._stack.pop()
        tracer.clock += 1
        span.end = tracer.clock
        if self._parent is None:
            tracer._close_root(span)
        return False


class NullTracer:
    """The default tracer: every span is the shared no-op span."""

    enabled = False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def merge(self, other: object, *, shard: int | None = None) -> None:
        pass


class Tracer:
    """Collects sampled root span trees with a deterministic tick clock.

    Parameters
    ----------
    sample_every:
        Keep every N-th root span (1 = trace everything).  A root whose
        tree contains an error span is kept regardless of the sampling
        phase ("always trace failed writes").
    """

    enabled = True

    def __init__(self, *, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be positive, got {sample_every}"
            )
        self.sample_every = sample_every
        self.clock = 0
        self.roots: list[Span] = []
        self.sampled_out = 0
        self.root_count = 0
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a span around a stage; exceptions mark it (and are re-raised).

        The ``attrs`` kwargs dict is fresh per call, so the span adopts it
        without copying.
        """
        return _SpanContext(self, name, attrs)

    def _close_root(self, span: Span) -> None:
        keep = self.root_count % self.sample_every == 0
        self.root_count += 1
        if not keep and span.subtree_error():
            keep = True
        if keep:
            self.roots.append(span)
        else:
            self.sampled_out += 1

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "Tracer | NullTracer", *, shard: int | None = None) -> None:
        """Append another tracer's roots (tagged with ``shard``) in order;
        sampling tallies add, so merge order never changes the snapshot."""
        if not getattr(other, "enabled", False):
            return
        assert isinstance(other, Tracer)
        for root in other.roots:
            if shard is not None:
                root.attrs["shard"] = shard
            self.roots.append(root)
        self.sampled_out += other.sampled_out
        self.root_count += other.root_count

    def snapshot(self) -> dict:
        """Deterministic aggregate: per-name span counts, errors and cost
        totals over the *kept* roots (the cross-worker contract surface)."""
        per_name: dict[str, dict] = {}

        def visit(span: Span) -> None:
            entry = per_name.setdefault(
                span.name, {"count": 0, "errors": 0, "costs": {}}
            )
            entry["count"] += 1
            entry["errors"] += int(span.error)
            for key, value in span.costs.items():
                if isinstance(value, _NUMERIC):
                    entry["costs"][key] = entry["costs"].get(key, 0) + value
            for child in span.children:
                visit(child)

        for root in self.roots:
            visit(root)
        return {
            "spans": {
                name: {
                    "count": entry["count"],
                    "errors": entry["errors"],
                    "costs": dict(sorted(entry["costs"].items())),
                }
                for name, entry in sorted(per_name.items())
            },
            "roots_kept": len(self.roots),
            "roots_sampled_out": self.sampled_out,
        }

    def write_jsonl(self, path: str) -> int:
        """Export one JSON line per kept root span tree plus a final
        ``trace_snapshot`` line; returns the number of lines written."""
        with open(path, "w") as handle:
            for root in self.roots:
                handle.write(json.dumps(root.to_dict(), sort_keys=True) + "\n")
            handle.write(
                json.dumps(
                    {"event": "trace_snapshot", **self.snapshot()}, sort_keys=True
                )
                + "\n"
            )
        return len(self.roots) + 1


#: process-wide tracer for call sites too deep to parameterize (the Monte
#: Carlo study phases inside experiments); a no-op unless installed
_GLOBAL: Tracer | NullTracer = NullTracer()


def get_tracer() -> Tracer | NullTracer:
    return _GLOBAL


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install the process-wide tracer; returns the previous one so
    callers can restore it."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = tracer
    return previous


def read_trace_jsonl(path: str) -> tuple[list[dict], dict | None]:
    """Load a trace export: (root span dicts, trace snapshot or ``None``)."""
    roots: list[dict] = []
    snapshot: dict | None = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("event") == "trace_snapshot":
                snapshot = record
            else:
                roots.append(record)
    return roots, snapshot
