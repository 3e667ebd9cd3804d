"""Service telemetry: counters, cost/latency histograms, and an event log.

Production memory controllers are judged by their observability as much as
their correctness: per-op service cost, health transitions, and capacity
over time are what an operator sizes the spare pool against ("Redundancy
Allocation of Partitioned Linear Block Codes" motivates exactly this —
provisioning redundancy against *observed* demand).  This module gives the
service layer that surface:

* :class:`Histogram` — fixed-bucket histograms of per-op service cost
  (cell programming operations, the wear/energy proxy) and latency (write
  passes, from the controllers' :class:`~repro.schemes.base.WriteReceipt`).
  Since the observability layer landed this is a re-export of
  :class:`repro.obs.metrics.Histogram` — the registry generalized it.
* :class:`ServiceTelemetry` — named counters, the histograms, and a
  structured event log (remaps, retirements, degradations, periodic health
  snapshots) suitable for JSONL export.

Counters live in :attr:`ServiceTelemetry.metrics`, a
:class:`repro.obs.metrics.MetricsRegistry`: call sites bump the flat
counters (``metrics.inc("remaps")``) as label-less series and the labeled
ones (``writes_total{scheme=..., outcome=...}``) with labels.  A
:class:`repro.obs.tracer.Tracer` can be attached so the pipeline's span
instrumentation rides the same object through worker processes.

Everything here is deliberately *deterministic*: no wall-clock timestamps
(events are stamped with the operation counter), plain-int state, and a
merge operation that is order-insensitive for counters, histograms and
labeled metrics — so a sharded run merges to the same snapshot whatever
the worker count.  Wall-clock throughput is measured by the load
generator *outside* the telemetry object (``LoadReport.elapsed``).

The event log is a bounded ring: beyond ``event_cap`` entries the oldest
events are dropped (and counted in ``events_dropped``), so a million-op
load run cannot grow memory without bound.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import NullTracer, Tracer
from repro.schemes.base import WriteReceipt

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.timeseries import TimeSeriesRecorder

__all__ = [
    "DEFAULT_COST_EDGES",
    "DEFAULT_EVENT_CAP",
    "DEFAULT_LATENCY_EDGES",
    "Histogram",
    "ServiceTelemetry",
]

#: bucket upper bounds for per-op cell-programming cost (512-bit blocks
#: program ≤ ~256 cells per differential write; inversion re-writes push
#: the tail beyond that)
DEFAULT_COST_EDGES = (16, 32, 64, 96, 128, 160, 192, 224, 256, 320, 448, 640)

#: bucket upper bounds for per-op latency in write passes (1 = single-pass;
#: verification reads, repartition trials and inversion writes add passes)
DEFAULT_LATENCY_EDGES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)

#: default event-log ring capacity; 0 disables the cap
DEFAULT_EVENT_CAP = 100_000


class ServiceTelemetry:
    """Counters, histograms and the event log of one memory-array service.

    The object is picklable (plain dicts/lists/deques), so a sharded load
    generator can build one per shard in worker processes and merge them in
    shard order on the way back — :meth:`merge` plus :meth:`snapshot` are
    the determinism-bearing surface the cross-worker tests assert on.

    Parameters
    ----------
    event_cap:
        Ring capacity of the event log (``0`` = unbounded); overflowing
        drops the *oldest* events and counts them in ``events_dropped``.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer` the pipeline's span
        instrumentation writes to; defaults to a shared no-op tracer.
    """

    def __init__(
        self,
        *,
        event_cap: int = DEFAULT_EVENT_CAP,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if event_cap < 0:
            raise ConfigurationError("event cap cannot be negative")
        self.metrics = MetricsRegistry()
        self.service_cost = Histogram(DEFAULT_COST_EDGES)
        self.latency = Histogram(DEFAULT_LATENCY_EDGES)
        self.event_cap = event_cap
        self.events: deque[dict] = deque()
        self.events_dropped = 0
        self.tracer: Tracer | NullTracer = tracer if tracer is not None else NullTracer()
        #: optional :class:`repro.obs.timeseries.TimeSeriesRecorder`; set
        #: via :meth:`attach_timeseries` to give the metrics a time axis
        self.timeseries: "TimeSeriesRecorder | None" = None

    def attach_timeseries(self, recorder: "TimeSeriesRecorder") -> "TimeSeriesRecorder":
        """Attach an op-clock time-series recorder over :attr:`metrics`.

        When the recorder is ``auto``, the service pipeline samples it
        after every buffer drain; explicit control planes (the cluster)
        call :meth:`repro.obs.timeseries.TimeSeriesRecorder.sample`
        themselves at their own deterministic points.
        """
        self.timeseries = recorder
        return recorder

    # -- recording ----------------------------------------------------------

    def record_receipt(self, receipt: WriteReceipt) -> None:
        """Fold one serviced write's receipt into the cost/latency view."""
        self.service_cost.observe(receipt.cell_writes)
        self.latency.observe(
            1
            + receipt.verification_reads
            + receipt.repartitions
            + receipt.inversion_writes
        )
        inc = self.metrics.inc
        inc("cell_writes_total", receipt.cell_writes)
        inc("verification_reads_total", receipt.verification_reads)
        inc("repartitions_total", receipt.repartitions)
        inc("inversion_writes_total", receipt.inversion_writes)

    def emit(self, event: str, **fields: object) -> None:
        """Append a structured event (stamped by the caller, not the clock)."""
        record: dict = {"event": event}
        record.update(fields)
        self._append_event(record)

    def _append_event(self, record: dict) -> None:
        if self.event_cap and len(self.events) >= self.event_cap:
            self.events.popleft()
            self.events_dropped += 1
        self.events.append(record)

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "ServiceTelemetry", *, shard: int | None = None) -> None:
        """Fold another telemetry object (e.g. one shard's) into this one.

        Counter/histogram/labeled-metric merging is order-insensitive;
        events are appended in call order (subject to this object's ring
        cap), optionally tagged with the source ``shard`` so the combined
        log stays attributable.  An attached tracer absorbs the other's
        kept span trees, shard-tagged the same way.
        """
        self.metrics.merge(other.metrics)
        self.service_cost.merge(other.service_cost)
        self.latency.merge(other.latency)
        self.events_dropped += other.events_dropped
        for event in other.events:
            tagged = dict(event)
            if shard is not None:
                tagged["shard"] = shard
            self._append_event(tagged)
        self.tracer.merge(other.tracer, shard=shard)
        if other.timeseries is not None:
            if self.timeseries is None:
                # adopt an empty same-geometry recorder so the commutative
                # bucket merge below is the only aggregation path
                from repro.obs.timeseries import TimeSeriesRecorder

                self.timeseries = TimeSeriesRecorder(
                    self.metrics,
                    bucket_width=other.timeseries.bucket_width,
                    capacity=other.timeseries.capacity,
                    auto=other.timeseries.auto,
                )
            self.timeseries.merge(other.timeseries)

    def snapshot(self) -> dict:
        """The deterministic state summary: sorted counters + histograms,
        the labeled-metric series, and the trace aggregate.

        This is the object the cross-worker determinism contract is
        asserted on, so it must never contain wall-clock readings, memory
        addresses, or anything else execution-dependent.
        """
        registry = self.metrics.snapshot()
        flat = self.metrics.flat_counters()
        labeled = {
            series: value
            for series, value in registry["counters"].items()
            if series not in flat
        }
        snapshot = {
            "counters": {name: flat[name] for name in sorted(flat)},
            "service_cost": self.service_cost.to_dict(),
            "latency": self.latency.to_dict(),
            "events_logged": len(self.events),
            "events_dropped": self.events_dropped,
            "labeled_counters": labeled,
            "gauges": registry["gauges"],
            "labeled_histograms": registry["histograms"],
        }
        if getattr(self.tracer, "enabled", False):
            snapshot["trace"] = self.tracer.snapshot()
        if self.timeseries is not None:
            snapshot["timeseries"] = self.timeseries.snapshot()
        return snapshot

    def write_jsonl(self, path: str) -> int:
        """Write the event log plus a final snapshot line as JSONL; returns
        the number of lines written."""
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
            handle.write(
                json.dumps({"event": "final_snapshot", **self.snapshot()}, sort_keys=True)
                + "\n"
            )
        return len(self.events) + 1
