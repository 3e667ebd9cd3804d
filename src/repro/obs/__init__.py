"""Unified observability: deterministic tracing, labeled metrics, time series.

The reproduction's measurement layers answer *what* happened (telemetry
counters, benchmark numbers); this package answers *why* and *where*:

:mod:`repro.obs.tracer`
    Deterministic, op-clock-stamped span trees around every service
    pipeline stage and Monte Carlo study phase, with every-Nth / always-
    on-error sampling, shard-order merging and JSONL export — the same
    bit-identical-across-worker-counts contract as the telemetry layer.
:mod:`repro.obs.metrics`
    :class:`MetricsRegistry` — counters, gauges and histograms keyed by
    ``(name, labels)``, with commutative merge, a deterministic snapshot
    and Prometheus text exposition.  The service layer's flat counters
    are its label-less series.
:mod:`repro.obs.report`
    ``aegis-repro obs-report`` — renders a run's trace,
    metrics and time-series artifacts into markdown reports (slowest
    spans, per-scheme stage cost, error-budget tables, retention curves).
:mod:`repro.obs.timeseries`
    :class:`TimeSeriesRecorder` — samples registry deltas into fixed-
    width op-clock buckets (bounded numpy rings, commutative shard
    merge), giving every metric a deterministic time axis.
:mod:`repro.obs.slo`
    Declarative :class:`SLOSpec`s evaluated per bucket into error
    budgets and multi-window burn-rate alerts (:class:`AlertEvent`),
    consumed by the cluster control plane as a feedback signal.

The split mirrors the determinism rule that runs through the whole
codebase: anything merged into a snapshot must be a pure function of the
inputs.  Wall-clock readings stay off every snapshot: ``LoadReport.elapsed``,
the per-experiment seconds ``repro run`` prints, and the per-layer spans
of ``perfbench/run.py --trace 1``, whose phases add up to the elapsed time.
"""

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    get_metrics,
    parse_prometheus_text,
    parse_series,
    render_series,
    set_metrics,
)
from repro.obs.report import render_obs_report, write_obs_report
from repro.obs.slo import (
    AlertEvent,
    SLOEngine,
    SLOSpec,
    default_cluster_slos,
    default_service_slos,
    parse_slo,
    read_slo_jsonl,
    write_slo_jsonl,
)
from repro.obs.timeseries import TimeSeriesRecorder, read_series_jsonl
from repro.obs.tracer import (
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    read_trace_jsonl,
    set_tracer,
)

__all__ = [
    "AlertEvent",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "SLOEngine",
    "SLOSpec",
    "Span",
    "Tracer",
    "TimeSeriesRecorder",
    "default_cluster_slos",
    "default_service_slos",
    "get_metrics",
    "get_tracer",
    "parse_prometheus_text",
    "parse_series",
    "parse_slo",
    "read_series_jsonl",
    "read_slo_jsonl",
    "read_trace_jsonl",
    "render_obs_report",
    "render_series",
    "set_metrics",
    "set_tracer",
    "write_obs_report",
    "write_slo_jsonl",
]
