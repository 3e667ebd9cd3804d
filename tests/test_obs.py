"""Tests for the unified observability layer (:mod:`repro.obs`).

Covers the three contracts the layer makes:

* the tracer's span trees, sampling and merge are deterministic — the
  exported JSONL is bit-identical for every worker count;
* the labeled metrics registry merges commutatively and its snapshot /
  Prometheus exposition are deterministic;
* no wall-clock reading leaks into a deterministic snapshot.
"""

import itertools
import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    parse_prometheus_text,
    read_trace_jsonl,
    render_obs_report,
    render_series,
)
from repro.pcm.lifetime import NormalLifetime
from repro.service import run_load
from repro.sim.roster import aegis_spec


def _small_load(workers: int, **overrides):
    params = dict(
        ops=600,
        seed=11,
        shards=2,
        workers=workers,
        n_addresses=16,
        spares=4,
        workload="zipf",
        lifetime_model=NormalLifetime(mean_lifetime=50.0),
        trace_sample=5,
    )
    params.update(overrides)
    return run_load(aegis_spec(9, 61, 512), **params)


# ---------------------------------------------------------------------------
# histogram quantile edge cases (the F-quantile overflow fix)


class TestHistogramQuantile:
    def test_overflow_bucket_returns_inf(self):
        hist = Histogram(edges=(10, 20, 40))
        for value in (5, 15, 1000, 2000, 3000):
            hist.observe(value)
        # the median observation is beyond the last edge: reporting 40
        # would silently under-estimate the tail
        assert hist.quantile(0.9) == math.inf
        assert hist.quantile(1.0) == math.inf
        assert hist.quantile_label(0.9) == ">40"

    def test_quantile_zero_returns_lowest_populated_bucket(self):
        hist = Histogram(edges=(10, 20, 40))
        hist.observe(15)
        hist.observe(35)
        assert hist.quantile(0.0) == 20.0
        assert hist.quantile_label(0.0) == "20"

    def test_quantile_empty_histogram(self):
        hist = Histogram(edges=(10, 20))
        assert hist.quantile(0.5) == 0.0

    def test_quantile_validates_range(self):
        hist = Histogram(edges=(10,))
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)

    def test_overflow_property_counts_tail(self):
        hist = Histogram(edges=(10,))
        hist.observe(5)
        hist.observe(50)
        hist.observe(500)
        assert hist.overflow == 2

    def test_merge_rejects_mismatched_edges(self):
        left = Histogram(edges=(1, 2, 4))
        right = Histogram(edges=(1, 2, 8))
        with pytest.raises(ConfigurationError):
            left.merge(right)


# ---------------------------------------------------------------------------
# labeled metrics registry


class TestMetricsRegistry:
    def _sample_registries(self):
        shards = []
        for shard in range(3):
            reg = MetricsRegistry()
            reg.inc("writes_total", 10 + shard, scheme="aegis", outcome="ok")
            reg.inc("writes_total", shard, scheme="aegis", outcome="remapped")
            reg.inc("plain_counter", 2 * shard + 1)
            reg.set_gauge("spares_free", 8 - shard, shard=shard)
            for value in range(shard + 2):
                reg.observe("stage_cost", 10.0 * value + shard, edges=(8, 64, 512))
            shards.append(reg)
        return shards

    def test_merge_commutative_over_shard_permutations(self):
        snapshots = []
        for order in itertools.permutations(range(3)):
            shards = self._sample_registries()
            merged = MetricsRegistry()
            for index in order:
                merged.merge(shards[index])
            snapshots.append(json.dumps(merged.snapshot(), sort_keys=True))
        assert len(set(snapshots)) == 1

    def test_counter_value_and_total(self):
        reg = MetricsRegistry()
        reg.inc("writes_total", 3, scheme="a", outcome="ok")
        reg.inc("writes_total", 2, scheme="a", outcome="remapped")
        reg.inc("writes_total", 7, scheme="b", outcome="ok")
        assert reg.counter_value("writes_total", scheme="a", outcome="ok") == 3
        assert reg.counter_total("writes_total") == 12
        assert reg.counter_total("writes_total", outcome="ok") == 10
        assert reg.counter_total("writes_total", scheme="a") == 5

    def test_flat_counters_exclude_labeled_series(self):
        reg = MetricsRegistry()
        reg.inc("plain", 4)
        reg.inc("labeled", 9, kind="x")
        assert reg.flat_counters() == {"plain": 4}

    def test_prometheus_round_trip(self):
        reg = self._sample_registries()[1]
        text = reg.to_prometheus_text()
        parsed = parse_prometheus_text(text)
        assert parsed['writes_total{outcome="ok",scheme="aegis"}'] == 11
        assert parsed["plain_counter"] == 3
        assert parsed['stage_cost_count'] == 3
        # histogram exposition carries cumulative buckets and +Inf
        assert 'stage_cost_bucket{le="+Inf"}' in parsed

    def test_render_series_escapes_label_values(self):
        series = render_series("m", (("label", 'va"l\\ue'), ))
        assert series == 'm{label="va\\"l\\\\ue"}'

    def test_merged_histograms_require_same_edges(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.observe("h", 1.0, edges=(1, 2))
        right.observe("h", 1.0, edges=(1, 4))
        with pytest.raises(ConfigurationError):
            left.merge(right)


# ---------------------------------------------------------------------------
# tracer


class TestTracer:
    def test_span_tree_nesting_and_clock(self):
        tracer = Tracer()
        with tracer.span("outer", op=1) as outer:
            with tracer.span("inner") as inner:
                inner.cost(cell_writes=5)
            outer.cost(cell_writes=5, passes=1)
        (root,) = tracer.roots
        assert root.name == "outer"
        assert root.attrs["op"] == 1
        (child,) = root.children
        assert child.name == "inner"
        # tick clock: open(0) < child open(1) < child close(2) < close(3)
        assert root.start < child.start < child.end < root.end

    def test_every_nth_sampling(self):
        tracer = Tracer(sample_every=3)
        for index in range(9):
            with tracer.span("op", index=index):
                pass
        assert len(tracer.roots) == 3
        assert tracer.sampled_out == 6
        snapshot = tracer.snapshot()
        assert snapshot["roots_kept"] == 3
        assert snapshot["roots_sampled_out"] == 6
        # tallies aggregate over the kept roots (the contract surface)
        assert snapshot["spans"]["op"]["count"] == 3
        assert {root.attrs["index"] for root in tracer.roots} == {0, 3, 6}

    def test_error_roots_always_kept(self):
        tracer = Tracer(sample_every=1000)
        for index in range(20):
            with tracer.span("op", index=index) as span:
                if index in (7, 13):
                    span.fail()
        kept = {root.attrs["index"] for root in tracer.roots}
        # index 0 by sampling, 7 and 13 by the error bias
        assert kept == {0, 7, 13}

    def test_exception_marks_span_failed_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        (root,) = tracer.roots
        assert root.error and root.children[0].error
        assert tracer.snapshot()["spans"]["inner"]["errors"] == 1

    def test_merge_tags_shard_and_sums_tallies(self):
        shards = []
        for shard in range(2):
            tracer = Tracer()
            with tracer.span("op", shard_local=shard):
                pass
            shards.append(tracer)
        merged = Tracer()
        for shard, tracer in enumerate(shards):
            merged.merge(tracer, shard=shard)
        assert [root.attrs["shard"] for root in merged.roots] == [0, 1]
        assert merged.snapshot()["spans"]["op"]["count"] == 2

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", op=3) as span:
            span.cost(cell_writes=17)
        path = tmp_path / "trace.jsonl"
        lines = tracer.write_jsonl(str(path))
        assert lines == 2  # one root + the snapshot line
        roots, snapshot = read_trace_jsonl(str(path))
        assert roots[0]["name"] == "outer"
        assert roots[0]["costs"]["cell_writes"] == 17
        assert snapshot == {"event": "trace_snapshot", **tracer.snapshot()}

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything") as span:
            span.set(x=1)
            span.cost(y=2)
            span.fail()
        assert not tracer.enabled

    def test_sample_every_validated(self):
        with pytest.raises(ConfigurationError):
            Tracer(sample_every=0)


# ---------------------------------------------------------------------------
# service integration: determinism, event cap, compat shim


class TestServiceObservability:
    def test_trace_and_metrics_worker_count_invariant(self, tmp_path):
        artifacts = {}
        for workers in (1, 4):
            report = _small_load(workers)
            trace = tmp_path / f"trace_w{workers}.jsonl"
            metrics = tmp_path / f"metrics_w{workers}.prom"
            report.write_trace_jsonl(str(trace))
            report.write_metrics(str(metrics))
            artifacts[workers] = (trace.read_bytes(), metrics.read_bytes())
        assert artifacts[1] == artifacts[4]

    def test_trace_disabled_by_default(self):
        report = _small_load(1, trace_sample=0)
        assert isinstance(report.telemetry.tracer, NullTracer)
        with pytest.raises(ConfigurationError):
            report.write_trace_jsonl("/tmp/unused.jsonl")

    def test_pipeline_stages_traced(self):
        report = _small_load(1)
        names = set(report.telemetry.tracer.snapshot()["spans"])
        assert {"differential_write", "fail_cache_consult"} <= names
        assert {"buffer_enqueue", "buffer_drain"} <= names

    def test_labeled_write_outcomes_reconcile_with_flat_counters(self):
        # endurance low enough that remaps actually happen in-run
        report = _small_load(
            1, ops=1200, lifetime_model=NormalLifetime(mean_lifetime=20.0)
        )
        metrics = report.telemetry.metrics
        counters = report.snapshot["counters"]
        lost = metrics.counter_total("writes_total", outcome="lost")
        assert (
            metrics.counter_total("writes_total") - lost
            == counters["writes_serviced"]
        )
        remaps = counters.get("remaps", 0)
        assert remaps > 0
        assert metrics.counter_total("writes_total", outcome="remapped") == remaps

    def test_event_cap_bounds_memory_and_counts_drops(self):
        report = _small_load(1, event_cap=4, snapshot_interval=50)
        telemetry = report.telemetry
        assert len(telemetry.events) <= 4
        assert telemetry.events_dropped > 0
        assert report.snapshot["events_dropped"] == telemetry.events_dropped

    def test_snapshot_has_no_wall_clock_fields(self):
        report = _small_load(1)
        assert report.elapsed > 0
        # wall clock lives on LoadReport.elapsed, never in the deterministic body
        dump = json.dumps(report.snapshot)
        assert "time" not in dump and "elapsed" not in dump

    def test_counters_property_still_flat(self):
        report = _small_load(1)
        counters = report.telemetry.snapshot()["counters"]
        assert isinstance(counters, dict)
        assert all("{" not in name for name in counters)


# ---------------------------------------------------------------------------
# obs-report rendering


class TestObsReport:
    def test_report_renders_stage_breakdown(self, tmp_path):
        report = _small_load(1)
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        report.write_trace_jsonl(str(trace))
        report.write_metrics(str(metrics))
        text = render_obs_report(str(trace), metrics_path=str(metrics), top=5)
        assert "## Stage-cost breakdown per scheme" in text
        assert "differential_write" in text
        assert "Aegis 9x61" in text
        assert "## Slowest spans" in text
        assert "## Metrics" in text

    def test_report_without_metrics(self, tmp_path):
        report = _small_load(1)
        trace = tmp_path / "trace.jsonl"
        report.write_trace_jsonl(str(trace))
        text = render_obs_report(str(trace))
        assert "## Span inventory" in text


# ---------------------------------------------------------------------------
# CLI acceptance: serve-bench artifacts and obs-report


class TestCliAcceptance:
    def _serve(self, tmp_path, workers):
        from repro.cli import main

        trace = tmp_path / f"t{workers}.jsonl"
        metrics = tmp_path / f"m{workers}.prom"
        code = main(
            [
                "serve-bench",
                "--scheme",
                "aegis-9x61",
                "--ops",
                "400",
                "--shards",
                "2",
                "--workers",
                str(workers),
                "--seed",
                "3",
                "--trace",
                str(trace),
                "--trace-sample",
                "5",
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        return trace.read_bytes(), metrics.read_bytes()

    def test_serve_bench_artifacts_bit_identical_across_workers(self, tmp_path):
        assert self._serve(tmp_path, 1) == self._serve(tmp_path, 4)

    def test_obs_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        self._serve(tmp_path, 1)
        out = tmp_path / "report.md"
        code = main(
            [
                "obs-report",
                "--trace",
                str(tmp_path / "t1.jsonl"),
                "--metrics",
                str(tmp_path / "m1.prom"),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "## Stage-cost breakdown per scheme" in text
        capsys.readouterr()


# ---------------------------------------------------------------------------
# exposition label round-trip (the _escape/_unescape inverse pair)


class TestSeriesRoundTrip:
    def test_parse_series_inverts_render_series(self):
        from repro.obs import parse_series

        labels = {"path": 'a\\b', "note": 'say "hi"\nbye', "plain": "ok"}
        rendered = render_series("writes_total", labels)
        assert parse_series(rendered) == ("writes_total", labels)

    def test_parse_series_bare_name(self):
        from repro.obs import parse_series

        assert parse_series("writes_total") == ("writes_total", {})

    def test_parse_series_rejects_garbage(self):
        from repro.obs import parse_series

        for text in ("", "bad name{}", 'x{unquoted=1}', 'x{k="v" trailing}'):
            with pytest.raises(ConfigurationError):
                parse_series(text)

    def test_prometheus_file_round_trip_with_escapes(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("writes_total", 7, path="C:\\tmp", msg='line1\nline2"q"')
        path = tmp_path / "m.prom"
        registry.write_prometheus(str(path))
        series = parse_prometheus_text(path.read_text())
        key = render_series(
            "writes_total", {"path": "C:\\tmp", "msg": 'line1\nline2"q"'}
        )
        assert series[key] == 7

    def test_escape_unescape_property(self):
        from hypothesis import given
        from hypothesis import strategies as st

        from repro.obs import parse_series

        label_values = st.text(
            alphabet=st.characters(
                codec="ascii", exclude_characters="\r", min_codepoint=9
            ),
            max_size=20,
        )

        @given(value=label_values, other=label_values)
        def check(value, other):
            labels = {"a": value, "b": other}
            assert parse_series(render_series("s_total", labels)) == (
                "s_total",
                labels,
            )

        check()


# ---------------------------------------------------------------------------
# all-overflow histograms (every observation beyond the last edge)


class TestHistogramAllOverflow:
    def _all_overflow(self):
        hist = Histogram(edges=(10, 20))
        for value in (30, 50, 1000):
            hist.observe(value)
        return hist

    def test_quantile_zero_clamps_into_overflow(self):
        # rank clamping floors q=0 to the first populated bucket; when
        # that bucket IS the overflow, the honest answer is inf, not 20
        hist = self._all_overflow()
        assert hist.quantile(0.0) == math.inf
        assert hist.quantile(0.5) == math.inf
        assert hist.quantile(1.0) == math.inf

    def test_quantile_label_reports_open_tail(self):
        hist = self._all_overflow()
        assert hist.quantile_label(0.0) == ">20"
        assert hist.quantile_label(0.99) == ">20"

    def test_merge_of_two_all_overflow_histograms(self):
        left = self._all_overflow()
        right = self._all_overflow()
        left.merge(right)
        assert left.total == 6
        assert left.overflow == 6
        assert left.quantile(0.5) == math.inf
        assert left.quantile_label(0.5) == ">20"


# ---------------------------------------------------------------------------
# tenant SLO section with partial series (the n/a regression)


class TestTenantSectionPartialRows:
    def _render(self, series):
        from repro.obs.report import _tenant_slo_section

        return _tenant_slo_section(series)

    def test_partial_tenant_renders_na_cells(self):
        # writes exported, but reads/backpressure/stage-cost series absent
        # (a truncated scrape): the row must say n/a, not a misleading 0
        series = {
            render_series(
                "tenant_writes_total", {"qos": "bulk", "tenant": "t0"}
            ): 12.0,
        }
        section = self._render(series)
        assert section is not None
        row = next(line for line in section.splitlines() if "t0" in line)
        assert "n/a" in row
        assert "12" in row

    def test_reads_only_tenant_has_na_qos_and_writes(self):
        series = {
            render_series("tenant_reads_total", {"tenant": "t1"}): 5.0,
        }
        section = self._render(series)
        row = next(line for line in section.splitlines() if "t1" in line)
        # qos, writes, backpressure and both quantiles are all unknown
        assert row.count("n/a") == 5

    def test_full_rows_unchanged(self):
        series = {
            render_series(
                "tenant_writes_total", {"qos": "bulk", "tenant": "t2"}
            ): 10.0,
            render_series("tenant_reads_total", {"tenant": "t2"}): 4.0,
            render_series("tenant_backpressure_total", {"tenant": "t2"}): 1.0,
        }
        section = self._render(series)
        row = next(line for line in section.splitlines() if "t2" in line)
        assert "bulk" in row and "10" in row and "4" in row
        # only the stage-cost quantiles (no bucket series) are n/a
        assert row.count("n/a") == 2

    def test_no_tenant_series_returns_none(self):
        assert self._render({"writes_total": 5.0}) is None
