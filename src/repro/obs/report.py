"""Render a run's trace + metrics artifacts into a readable report.

``aegis-repro obs-report --trace out.jsonl --metrics metrics.prom``
turns the machine-shaped observability exports into the questions an
operator actually asks:

* **slowest spans** — which individual serviced writes cost the most
  (by cell writes / write passes), with their stage breakdown;
* **stage-cost breakdown per scheme** — where the pipeline spends its
  service cost (differential write vs verification vs repartition
  escalation vs remap), split by recovery scheme;
* **repartition / remap timeline** — every escalation event in op order,
  the storm view the spare pool is sized against;
* **metrics** — the labeled counter/gauge series from the exposition
  file.

Everything here is read-only over the artifact files, so the report can
be regenerated at any time (CI renders it next to the uploaded JSONL).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.obs.metrics import parse_prometheus_text, parse_series
from repro.obs.tracer import read_trace_jsonl
from repro.util.charts import line_chart
from repro.util.tables import render_table

#: cost keys ranked for "how expensive was this span", most meaningful first
COST_RANK_KEYS = ("cell_writes", "passes", "verification_reads")

#: span names that constitute the escalation timeline
TIMELINE_SPANS = ("spare_remap", "proactive_migration", "repartition")


def _subtree_cost(span: dict, key: str) -> float:
    total = span.get("costs", {}).get(key, 0)
    return total + sum(_subtree_cost(child, key) for child in span.get("children", ()))


def _walk(span: dict):
    yield span
    for child in span.get("children", ()):
        yield from _walk(child)


def _rank_key(roots: list[dict]) -> str:
    for key in COST_RANK_KEYS:
        if any(_subtree_cost(root, key) for root in roots):
            return key
    return COST_RANK_KEYS[0]


def _span_table(snapshot: dict) -> str:
    rows = []
    for name, entry in snapshot.get("spans", {}).items():
        costs = entry.get("costs", {})
        cost_text = (
            ", ".join(f"{key}={value:g}" for key, value in sorted(costs.items()))
            or "-"
        )
        rows.append((name, entry["count"], entry["errors"], cost_text))
    return render_table(
        ("Span", "Count", "Errors", "Cost totals"),
        rows,
        title="## Span inventory (deterministic snapshot)",
    )


def _slowest_spans(roots: list[dict], top: int) -> str:
    key = _rank_key(roots)
    ranked = sorted(roots, key=lambda r: _subtree_cost(r, key), reverse=True)[:top]
    rows = []
    for root in ranked:
        attrs = root.get("attrs", {})
        stages = ", ".join(
            f"{child['name']}={_subtree_cost(child, key):g}"
            for child in root.get("children", ())
            if _subtree_cost(child, key)
        )
        rows.append(
            (
                root["name"],
                attrs.get("op", "-"),
                attrs.get("address", "-"),
                attrs.get("shard", "-"),
                f"{_subtree_cost(root, key):g}",
                "yes" if root.get("error") else "",
                stages or "-",
            )
        )
    return render_table(
        ("Span", "Op", "Addr", "Shard", key, "Error", "Stage split"),
        rows,
        title=f"## Slowest spans (top {len(rows)} by {key})",
    )


def _stage_breakdown(roots: list[dict]) -> str:
    """Per-(scheme, stage) totals of every cost key seen in the trace."""
    per_stage: dict[tuple[str, str], dict[str, float]] = {}
    for root in roots:
        scheme = str(root.get("attrs", {}).get("scheme", "-"))
        for span in _walk(root):
            entry = per_stage.setdefault((scheme, span["name"]), {})
            for key, value in span.get("costs", {}).items():
                entry[key] = entry.get(key, 0) + value
    cost_keys = sorted({key for entry in per_stage.values() for key in entry})
    rows = [
        (scheme, stage, *[f"{per_stage[(scheme, stage)].get(k, 0):g}" for k in cost_keys])
        for scheme, stage in sorted(per_stage)
        if per_stage[(scheme, stage)]
    ]
    return render_table(
        ("Scheme", "Stage", *cost_keys),
        rows,
        title="## Stage-cost breakdown per scheme",
    )


def _timeline(roots: list[dict], top: int) -> str:
    events = []
    for root in roots:
        shard = root.get("attrs", {}).get("shard", "-")
        for span in _walk(root):
            if span["name"] not in TIMELINE_SPANS:
                continue
            attrs = span.get("attrs", {})
            events.append(
                (
                    attrs.get("op", 0),
                    shard,
                    span["name"],
                    attrs.get("address", "-"),
                    "failed" if span.get("error") else "ok",
                )
            )
    events.sort(key=lambda e: (str(e[1]), e[0]))
    rows = [(op, shard, name, addr, outcome) for op, shard, name, addr, outcome in events[:top]]
    if not rows:
        return "## Repartition / remap timeline\n\n(no escalation events traced)\n"
    return render_table(
        ("Op", "Shard", "Event", "Addr", "Outcome"),
        rows,
        title="## Repartition / remap timeline",
    )


def _parse_series(series: str) -> tuple[str, dict[str, str]]:
    """Split a rendered series name into (metric name, label dict).

    Thin tolerant wrapper over :func:`repro.obs.metrics.parse_series`
    (the full inverse of ``render_series``, escapes included) — report
    inputs are artifact files, so an unparseable id degrades to a
    label-less series instead of aborting the report.
    """
    try:
        return parse_series(series)
    except ConfigurationError:
        return series, {}


def _bucket_quantile(buckets: dict[str, int], q: float) -> str:
    """Quantile label from cumulative Prometheus buckets (``">640"`` when
    it overflows the finite edges — mirroring ``Histogram.quantile_label``)."""

    def edge_value(le: str) -> float:
        return math.inf if le in ("+Inf", "inf") else float(le)

    items = sorted(buckets.items(), key=lambda kv: edge_value(kv[0]))
    total = items[-1][1] if items else 0
    if total == 0:
        return "0"
    rank = max(1, math.ceil(q * total))
    for index, (le, cumulative) in enumerate(items):
        if cumulative >= rank:
            if edge_value(le) is math.inf and index > 0:
                return f">{items[index - 1][0]}"
            return le if edge_value(le) is not math.inf else "inf"
    return items[-1][0]  # pragma: no cover - cumulative buckets end at total


def _tenant_slo_section(series: dict[str, float]) -> str | None:
    """Per-tenant SLO table from the ``tenant_*`` series a cluster run
    exports (``None`` when the run had no tenants).

    A partially-exported run (e.g. writes counted but no backpressure or
    stage-cost series — a truncated scrape, or a run that never hit the
    bulk watermark) still gets a row; the absent cells render ``n/a``
    instead of a misleading ``0``.
    """
    tenants: dict[str, dict] = {}
    for full, value in series.items():
        name, labels = _parse_series(full)
        tenant = labels.get("tenant")
        if tenant is None:
            continue
        entry = tenants.setdefault(
            tenant,
            {"qos": None, "writes": None, "reads": None,
             "backpressure": None, "buckets": {}},
        )
        if name == "tenant_writes_total":
            entry["writes"] = int(value)
            entry["qos"] = labels.get("qos", entry["qos"])
        elif name == "tenant_reads_total":
            entry["reads"] = int(value)
        elif name == "tenant_backpressure_total":
            entry["backpressure"] = int(value)
        elif name == "tenant_stage_cost_bucket":
            entry["buckets"][labels.get("le", "+Inf")] = int(value)
    if not tenants:
        return None

    def cell(value: object) -> str:
        return "n/a" if value is None else str(value)

    rows = [
        (
            tenant,
            cell(entry["qos"]),
            cell(entry["writes"]),
            cell(entry["reads"]),
            cell(entry["backpressure"]),
            _bucket_quantile(entry["buckets"], 0.5) if entry["buckets"] else "n/a",
            _bucket_quantile(entry["buckets"], 0.99) if entry["buckets"] else "n/a",
        )
        for tenant, entry in sorted(tenants.items())
    ]
    return render_table(
        ("Tenant", "QoS", "Writes", "Reads", "Backpressure", "p50 cost", "p99 cost"),
        rows,
        title="## Per-tenant SLO summary",
    )


def _metrics_section(series: dict[str, float], top: int) -> str:
    scalar = {
        name: value
        for name, value in series.items()
        if "_bucket{" not in name and not name.endswith("_bucket")
    }
    rows = [
        (name, f"{value:g}")
        for name, value in sorted(scalar.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    ]
    return render_table(
        ("Series", "Value"),
        rows,
        title=f"## Metrics ({len(scalar)} series, top {len(rows)} by value)",
    )


# -- SLO / time-series sections (``obs-report --series``) -------------------


def _budget_table(slos: list[dict]) -> str:
    """Error-budget accounting, one row per SLO."""
    rows = [
        (
            record.get("name", "-"),
            record.get("description", record.get("kind", "-")),
            record.get("events", 0),
            record.get("bad", 0),
            f"{record.get('budget', 0):g}",
            f"{record.get('budget_consumed', 0) * 100:.1f}%",
            f"{record.get('budget_left_fraction', 0) * 100:.1f}%",
            record.get("violating_buckets", 0),
            len(record.get("alerts", ())),
            record.get("action") or "-",
        )
        for record in slos
    ]
    return render_table(
        ("SLO", "Objective", "Events", "Bad", "Budget", "Consumed",
         "Left", "Violating", "Alerts", "Action"),
        rows,
        title="## Error budgets",
    )


def _alert_timeline(slos: list[dict], alerts: list[dict]) -> str:
    """Alert rising edges in op-clock order (deduplicated across the
    per-SLO lists and the flat alert records)."""
    seen: set[tuple] = set()
    events: list[dict] = []
    for record in alerts + [a for s in slos for a in s.get("alerts", ())]:
        key = (record.get("slo"), record.get("bucket"))
        if key in seen:
            continue
        seen.add(key)
        events.append(record)
    if not events:
        return "## Alert timeline\n\n(no burn-rate alerts fired)\n"
    events.sort(key=lambda e: (e.get("bucket", 0), str(e.get("slo", ""))))
    rows = [
        (
            event.get("bucket", "-"),
            event.get("clock", "-"),
            event.get("slo", "-"),
            f"{event.get('burn_fast', 0):g}",
            f"{event.get('burn_slow', 0):g}",
            event.get("action") or "-",
        )
        for event in events
    ]
    return render_table(
        ("Bucket", "Clock", "SLO", "Burn (fast)", "Burn (slow)", "Action"),
        rows,
        title="## Alert timeline",
    )


def _chartable(xs: list[float], series: dict[str, list[float]]) -> bool:
    return bool(series) and len(xs) >= 2 and len(set(xs)) >= 2


def _retention_chart(meta: dict, series: list[dict]) -> str | None:
    """ASCII retention curves from ``capacity_retention`` gauge series."""
    curves = {}
    for record in series:
        if record.get("kind") != "gauge":
            continue
        name, labels = _parse_series(record.get("series", ""))
        if name != "capacity_retention":
            continue
        curves[labels.get("scope", record["series"])] = [
            float(v) for v in record.get("values", ())
        ]
    start = int(meta.get("start_bucket", 0))
    length = max((len(v) for v in curves.values()), default=0)
    xs = [float(start + index) for index in range(length)]
    if not _chartable(xs, curves):
        return None
    return (
        "## Capacity retention\n\n```\n"
        + line_chart(xs, curves, title="capacity_retention per bucket",
                     x_label="op-clock bucket")
        + "\n```\n"
    )


def _burn_chart(meta: dict, slos: list[dict]) -> str | None:
    """Slow-window burn rates per SLO over the retained buckets."""
    curves = {
        record["name"]: [float(v) for v in record.get("burn_slow", ())]
        for record in slos
        if record.get("name") and any(record.get("burn_slow", ()))
    }
    start = int(meta.get("start_bucket", 0))
    length = max((len(v) for v in curves.values()), default=0)
    xs = [float(start + index) for index in range(length)]
    if not _chartable(xs, curves):
        return None
    return (
        "## Burn rates (slow window)\n\n```\n"
        + line_chart(xs, curves, title="burn rate per bucket",
                     x_label="op-clock bucket")
        + "\n```\n"
    )


def _series_sections(series_path: str, top: int) -> list[str]:
    """The SLO/time-series sections of an obs-report ``--series`` artifact."""
    from repro.obs.timeseries import read_series_jsonl

    data = read_series_jsonl(series_path)
    meta, slos = data["meta"], data["slos"]
    sections = []
    if meta:
        sections.append(
            f"{meta.get('buckets', 0)} op-clock bucket(s) of width "
            f"{meta.get('bucket_width', 0)} retained "
            f"({meta.get('samples', 0)} samples, "
            f"{meta.get('buckets_dropped', 0)} evicted)."
        )
        sections.append("")
    if slos:
        sections.append(_budget_table(slos))
        sections.append(_alert_timeline(slos, data["alerts"]))
        burn = _burn_chart(meta, slos)
        if burn is not None:
            sections.append(burn)
    retention = _retention_chart(meta, data["series"])
    if retention is not None:
        sections.append(retention)
    counters = [r for r in data["series"] if r.get("kind") == "counter"]
    if counters:
        ranked = sorted(
            counters, key=lambda r: (-sum(r.get("values", ())), r.get("series", ""))
        )[:top]
        rows = [
            (record["series"], f"{sum(record.get('values', ())):g}",
             len(record.get("values", ())))
            for record in ranked
        ]
        sections.append(
            render_table(
                ("Series", "Total delta", "Buckets"),
                rows,
                title=f"## Time series ({len(counters)} counter series, "
                      f"top {len(rows)} by volume)",
            )
        )
    return sections


def render_obs_report(
    trace_path: str | None,
    metrics_path: str | None = None,
    *,
    series_path: str | None = None,
    top: int = 10,
    title: str = "Observability report",
) -> str:
    """Render the markdown report for one run's artifacts.

    Any artifact may be omitted: a metrics-only report (the
    ``cluster-bench`` smoke path, which traces nothing) renders the
    per-tenant SLO and metrics sections alone; a series artifact adds
    the error-budget, alert, burn-rate and retention sections.
    """
    sections = [f"# {title}", ""]
    if trace_path is not None:
        roots, snapshot = read_trace_jsonl(trace_path)
        if snapshot is not None:
            sections.append(
                f"{snapshot.get('roots_kept', len(roots))} span tree(s) kept, "
                f"{snapshot.get('roots_sampled_out', 0)} sampled out."
            )
            sections.append("")
            sections.append(_span_table(snapshot))
        if roots:
            sections.append(_slowest_spans(roots, top))
            sections.append(_stage_breakdown(roots))
            sections.append(_timeline(roots, max(top * 2, 20)))
        else:
            sections.append("(trace contains no span trees)")
    if metrics_path is not None:
        with open(metrics_path) as handle:
            series = parse_prometheus_text(handle.read())
        tenant_section = _tenant_slo_section(series)
        if tenant_section is not None:
            sections.append(tenant_section)
        sections.append(_metrics_section(series, max(top * 2, 20)))
    if series_path is not None:
        sections.extend(_series_sections(series_path, top))
    return "\n".join(sections).rstrip() + "\n"
