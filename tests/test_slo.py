"""Tests for the SLO / error-budget engine (:mod:`repro.obs.slo`).

Covers the spec constructors, the burn-rate math, the exactly-once alert
poll (and its equivalence with one-shot evaluation), the series writer,
and the end-to-end contract: a cluster-bench degrade drill fires a
burn-rate alert, the control plane answers it with ``kind="alert"``
migrations, and every series/verdict/alert surface is bit-identical
across worker counts and drain engines.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, TimeSeriesRecorder, read_series_jsonl
from repro.obs.report import render_obs_report
from repro.obs.slo import (
    SLOEngine,
    SLOSpec,
    default_cluster_slos,
    default_service_slos,
    write_slo_jsonl,
)
from repro.cluster.bench import run_cluster_bench
from repro.pcm.lifetime import NormalLifetime
from repro.sim.roster import aegis_spec


class TestSpecGrammar:
    def test_ratio_spec(self):
        spec = SLOSpec.ratio(
            "write_loss", "writes_total{outcome=lost}", "writes_total",
            objective=0.001,
        )
        assert spec.name == "write_loss"
        assert spec.kind == "ratio"
        assert spec.bad_series == "writes_total{outcome=lost}"
        assert spec.series == "writes_total"
        assert spec.objective == 0.001

    def test_quantile_spec(self):
        spec = SLOSpec.quantile(
            "drain_p99", "stage_cost{stage=drain}", q=0.99, bound=640
        )
        assert spec.kind == "quantile"
        assert spec.q == 0.99
        assert spec.bound == 640
        assert spec.objective == pytest.approx(0.01)

    def test_retention_spec(self):
        spec = SLOSpec.retention(
            "capacity", "capacity_retention{scope=cluster}", minimum=0.9
        )
        assert spec.kind == "retention"
        assert spec.bound == 0.9

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SLOSpec.ratio("x", bad="a", total="b", objective=2.0)
        with pytest.raises(ConfigurationError):
            SLOSpec.ratio("x", bad="a", total="b", objective=0.0)
        with pytest.raises(ConfigurationError):
            SLOSpec.quantile("x", series="s", q=1.5, bound=10)
        with pytest.raises(ConfigurationError):
            SLOSpec.quantile("x", series="s", q=2.0, bound=5)
        with pytest.raises(ConfigurationError):
            SLOSpec.retention("x", series="s", minimum=-1.0)

    def test_default_rosters(self):
        service = default_service_slos()
        cluster = default_cluster_slos()
        assert {spec.name for spec in service} <= {spec.name for spec in cluster}
        assert any(spec.action == "migrate" for spec in cluster)
        for spec in cluster:
            assert spec.describe()


def _engine(specs, fill):
    """Build a recorder + engine; ``fill(registry, sample)`` drives it."""
    registry = MetricsRegistry()
    recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=64)
    engine = SLOEngine(recorder, specs)
    fill(registry, recorder.sample)
    return engine


class TestBurnMath:
    def test_ratio_burn_and_budget(self):
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=2, burn_threshold=2.0,
        )

        def fill(registry, sample):
            registry.inc("ops_total", 10)
            sample(5)                       # bucket 0: clean
            registry.inc("ops_total", 10)
            registry.inc("bad_total", 4)    # 40% bad = 4x the objective
            sample(15)                      # bucket 1: burning
            registry.inc("ops_total", 10)
            sample(25)                      # bucket 2: clean again

        engine = _engine((spec,), fill)
        report = engine.evaluate()["slos"]["loss"]
        assert report["events"] == 30
        assert report["bad"] == 4
        assert report["budget"] == pytest.approx(3.0)
        assert report["budget_consumed"] == pytest.approx(4 / 3)
        assert report["burn_fast"] == [0.0, 4.0, 0.0]
        # slow window 2: bucket 1 sees 4/20 = 2x, bucket 2 sees 4/20 = 2x
        assert report["burn_slow"] == [0.0, 2.0, 2.0]
        # alert requires fast AND slow >= threshold -> only bucket 1
        assert report["violating_buckets"] == 1
        assert [alert["bucket"] for alert in report["alerts"]] == [1]

    def test_quantile_bad_counts_tail(self):
        spec = SLOSpec.quantile(
            "p99_cost", series="stage_cost", q=0.99, bound=64
        )

        def fill(registry, sample):
            for value in (5, 10, 100):
                registry.observe("stage_cost", value, edges=(8, 64))
            sample(5)

        engine = _engine((spec,), fill)
        report = engine.evaluate()["slos"]["p99_cost"]
        assert report["events"] == 3
        assert report["bad"] == 1   # the 100 observation is beyond the bound

    def test_retention_bad_counts_dips(self):
        spec = SLOSpec.retention(
            "cap", series="capacity_retention{scope=cluster}", minimum=0.9
        )

        def fill(registry, sample):
            registry.set_gauge("capacity_retention", 1.0, scope="cluster")
            sample(5)
            registry.set_gauge("capacity_retention", 0.8, scope="cluster")
            sample(15)

        engine = _engine((spec,), fill)
        report = engine.evaluate()["slos"]["cap"]
        assert report["events"] == 2    # sampled buckets
        assert report["bad"] == 1

    def test_duplicate_names_rejected(self):
        recorder = TimeSeriesRecorder(MetricsRegistry(), bucket_width=10)
        specs = (
            SLOSpec.ratio("a", "x", "y", objective=0.1),
            SLOSpec.ratio("a", "z", "y", objective=0.1),
        )
        with pytest.raises(ConfigurationError):
            SLOEngine(recorder, specs)


class TestPoll:
    def _burst_engine(self):
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=1, burn_threshold=2.0,
        )
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=64)
        return registry, recorder, SLOEngine(recorder, (spec,))

    def test_rising_edge_fires_exactly_once(self):
        registry, recorder, engine = self._burst_engine()
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(5)
        alerts, _ = engine.poll()
        assert [alert.slo for alert in alerts] == ["loss"]
        assert engine.poll()[0] == []       # same state: no re-fire
        registry.inc("ops_total", 10)
        recorder.sample(15)                 # clean bucket: burn drops
        assert engine.poll()[0] == []
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(25)                 # second burst: new rising edge
        assert [alert.bucket for alert in engine.poll()[0]] == [2]

    def test_early_firing_bucket_can_stop_firing(self):
        """A bucket's firing state is not monotonic: an early burst fires
        the still-filling bucket, later good ops dilute it below the
        threshold, and evaluate() then reports no edge for the bucket
        poll() already alerted on."""
        registry, recorder, engine = self._burst_engine()
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(3)
        alerts, _ = engine.poll()
        assert [alert.bucket for alert in alerts] == [0]
        registry.inc("ops_total", 100)
        recorder.sample(7)                  # same 10-wide bucket, now 5/110
        assert engine.evaluate()["slos"]["loss"]["alerts"] == []
        assert engine.poll() == ([], frozenset())

    def test_active_actions_is_level_triggered(self):
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=2, burn_threshold=2.0, action="migrate",
        )
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=64)
        engine = SLOEngine(recorder, (spec,))
        assert engine.poll() == ([], frozenset())
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(5)
        alerts, actions = engine.poll()
        assert alerts and actions == {"migrate"}
        assert engine.poll() == ([], {"migrate"})
        # the action stays active while the burn condition holds, even
        # though the rising edge has already been consumed by poll()
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(15)
        # still the same firing episode: no new edge, action still active
        assert engine.poll() == ([], {"migrate"})
        # a clean bucket ends the episode: the action deactivates
        registry.inc("ops_total", 10)
        recorder.sample(25)
        assert engine.poll() == ([], frozenset())

    def test_polling_every_sample_matches_evaluate(self):
        """poll() after every sample of a multi-burst run yields exactly
        the rising edges a one-shot evaluate() reports over the window."""
        specs = (
            SLOSpec.ratio(
                "loss", bad="bad_total", total="ops_total", objective=0.1,
                fast_window=1, slow_window=2, burn_threshold=2.0,
            ),
            SLOSpec.retention(
                "cap", series="capacity", minimum=0.9, objective=0.25,
                fast_window=1, slow_window=3, burn_threshold=2.0,
                action="migrate",
            ),
        )
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=64)
        engine = SLOEngine(recorder, specs)
        # (bad writes, capacity) per bucket: three loss bursts (one of
        # them two buckets long), two capacity dips, a skipped bucket
        plan = [
            (0, 1.0), (5, 1.0), (6, 0.8), (0, 0.8), (0, 1.0), (4, 1.0),
            (0, 1.0), (0, 0.7), (5, 0.7), (5, 0.7), (0, 1.0), (0, 1.0),
        ]
        polled = []
        for index, (bad, capacity) in enumerate(plan):
            registry.inc("ops_total", 10)
            if bad:
                registry.inc("bad_total", bad)
            registry.set_gauge("capacity", capacity)
            recorder.sample(index * 10 + (15 if index > 5 else 5))
            polled.extend(engine.poll()[0])
        report = engine.evaluate()["slos"]
        expected = [alert for spec in specs for alert in report[spec.name]["alerts"]]
        assert len(expected) >= 4
        assert {alert["slo"] for alert in expected} == {"loss", "cap"}
        got = sorted(
            (alert.to_dict() for alert in polled),
            key=lambda alert: ([s.name for s in specs].index(alert["slo"]),
                               alert["bucket"]),
        )
        assert got == expected
        assert engine.poll()[0] == []

    def test_alert_event_shape(self):
        registry, recorder, engine = self._burst_engine()
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(5)
        (alert,), _ = engine.poll()
        record = alert.to_dict()
        assert record["slo"] == "loss"
        assert record["bucket"] == 0
        assert record["clock"] == 10
        assert record["burn_fast"] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# the end-to-end contract: degrade drill -> alert -> maintenance migration


DRILL = dict(
    ops=1500,
    n_arrays=3,
    tenants=4,
    seed=2013,
    n_addresses=96,
    lifetime_model=NormalLifetime(mean_lifetime=30.0),
    degrade_at=750,
    degrade_array=1,
    degrade_threshold=2,
)


@pytest.fixture(scope="module")
def drill_reports():
    spec = aegis_spec(9, 61, 512)
    return {
        (workers, engine): run_cluster_bench(
            spec, workers=workers, engine=engine, **DRILL
        )
        for workers, engine in [(1, "auto"), (2, "scalar"), (4, "auto")]
    }


class TestDegradeDrill:
    def test_digests_identical_across_workers_and_engines(self, drill_reports):
        digests = {
            (report.audit_digest, report.snapshot_digest)
            for report in drill_reports.values()
        }
        assert len(digests) == 1
        assert all(r.audit_failures == 0 for r in drill_reports.values())

    def test_alert_fires_and_triggers_maintenance_migration(self, drill_reports):
        report = drill_reports[(1, "auto")]
        metrics = report.telemetry.metrics
        assert metrics.counter_total("slo_alerts_total", slo="degrade_burst") >= 1
        assert metrics.counter_total("migrations_total", kind="alert") >= 1
        slo = report.snapshot["slo"]["slos"]["degrade_burst"]
        assert slo["action"] == "migrate"
        assert len(slo["alerts"]) >= 1
        events = [
            event for event in report.telemetry.events
            if event.get("event") == "slo_alert"
        ]
        assert any(event["slo"] == "degrade_burst" for event in events)

    def test_slo_sections_inside_digested_snapshot(self, drill_reports):
        report = drill_reports[(1, "auto")]
        snapshot = report.snapshot
        assert "timeseries" in snapshot
        assert snapshot["timeseries"]["samples"] > 0
        assert snapshot["config"]["series_bucket"] > 0
        assert "clock" in snapshot

    def test_series_export_and_report_surface_the_alert(
        self, drill_reports, tmp_path
    ):
        report = drill_reports[(1, "auto")]
        path = tmp_path / "series.jsonl"
        write_slo_jsonl(str(path), report.telemetry.timeseries, report.slos)
        data = read_series_jsonl(str(path))
        assert any(slo["name"] == "degrade_burst" for slo in data["slos"])
        assert any(alert["slo"] == "degrade_burst" for alert in data["alerts"])
        rendered = render_obs_report(None, series_path=str(path), title="Drill")
        assert rendered.startswith("# Drill\n\n")
        assert "degrade_burst" in rendered
        assert "## Alert timeline" in rendered
        assert "migrate" in rendered

    def test_series_off_disables_slo_surfaces(self, tmp_path):
        report = run_cluster_bench(
            aegis_spec(9, 61, 512),
            ops=200,
            n_arrays=2,
            tenants=2,
            seed=7,
            series_bucket=0,
            workers=1,
        )
        assert "slo" not in report.snapshot
        assert "timeseries" not in report.snapshot
        with pytest.raises(ConfigurationError):
            write_slo_jsonl(
                str(tmp_path / "series.jsonl"), report.telemetry.timeseries, report.slos
            )


class TestSLOExport:
    def test_write_slo_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=16)
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(5)
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=1,
        )
        path = tmp_path / "slo.jsonl"
        lines = write_slo_jsonl(str(path), recorder, (spec,))
        data = read_series_jsonl(str(path))
        assert lines == len(data["series"]) + len(data["slos"]) + len(
            data["alerts"]
        ) + 1
        (slo,) = data["slos"]
        assert slo["name"] == "loss"
        assert slo["budget_consumed"] == pytest.approx(5.0)
        (alert,) = data["alerts"]
        assert alert["slo"] == "loss"

    def test_unrecorded_series_rejected(self, tmp_path):
        path = tmp_path / "slo.jsonl"
        with pytest.raises(ConfigurationError, match="not recorded"):
            write_slo_jsonl(str(path), None, default_service_slos())
        assert not path.exists()
