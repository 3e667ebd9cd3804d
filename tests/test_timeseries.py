"""Tests for the deterministic time-series recorder (:mod:`repro.obs.timeseries`).

The recorder's contract mirrors the registry's: op-clock buckets (never
wall time), bounded storage with counted eviction, commutative shard
merge, and snapshots that are bit-identical across worker counts and
drain engines.
"""

import itertools
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, TimeSeriesRecorder, read_series_jsonl
from repro.obs.slo import write_slo_jsonl
from repro.pcm.lifetime import NormalLifetime
from repro.service import run_load
from repro.sim.roster import aegis_spec


def _recorder(width=10, capacity=8):
    registry = MetricsRegistry()
    return registry, TimeSeriesRecorder(
        registry, bucket_width=width, capacity=capacity
    )


class TestSampling:
    def test_counter_deltas_land_in_op_clock_buckets(self):
        registry, recorder = _recorder()
        registry.inc("writes_total", 3, outcome="ok")
        recorder.sample(5)          # bucket 0
        registry.inc("writes_total", 4, outcome="ok")
        recorder.sample(25)         # bucket 2 (bucket 1 stays empty)
        assert recorder.start_bucket == 0
        assert recorder.bucket_count == 3
        assert recorder.counter_view("writes_total").tolist() == [3, 0, 4]
        assert recorder.counter_view("writes_total", outcome="ok").tolist() == [3, 0, 4]
        assert recorder.counter_view("writes_total", outcome="lost").tolist() == [0, 0, 0]

    def test_label_subset_selector_sums_matching_series(self):
        registry, recorder = _recorder()
        registry.inc("writes_total", 2, scheme="a", outcome="ok")
        registry.inc("writes_total", 5, scheme="b", outcome="ok")
        recorder.sample(0)
        assert recorder.counter_view("writes_total").tolist() == [7]
        assert recorder.counter_view("writes_total", scheme="a").tolist() == [2]

    def test_gauges_record_last_value_per_bucket(self):
        registry, recorder = _recorder()
        registry.set_gauge("capacity_retention", 1.0, scope="cluster")
        recorder.sample(1)
        registry.set_gauge("capacity_retention", 0.5, scope="cluster")
        recorder.sample(8)          # same bucket: last value wins
        values = recorder.gauge_view("capacity_retention", scope="cluster")
        assert values.tolist() == [0.5]

    def test_histogram_deltas_per_bucket(self):
        registry, recorder = _recorder()
        registry.observe("stage_cost", 5, edges=(8, 64))
        registry.observe("stage_cost", 100, edges=(8, 64))
        recorder.sample(3)
        registry.observe("stage_cost", 7, edges=(8, 64))
        recorder.sample(13)
        view = recorder.histogram_view("stage_cost")
        assert view is not None
        edges, counts, totals, sums = view
        assert edges == (8, 64)
        assert counts.tolist() == [[1, 0, 1], [1, 0, 0]]
        assert totals.tolist() == [2, 1]
        assert sums.tolist() == [105.0, 7.0]
        assert recorder.histogram_view("missing") is None

    def test_clock_must_be_monotonic(self):
        registry, recorder = _recorder()
        recorder.sample(50)
        with pytest.raises(ConfigurationError):
            recorder.sample(49)

    def test_merge_only_recorder_rejects_sample(self):
        recorder = TimeSeriesRecorder(None, bucket_width=10)
        with pytest.raises(ConfigurationError):
            recorder.sample(0)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeSeriesRecorder(MetricsRegistry(), bucket_width=0)
        with pytest.raises(ConfigurationError):
            TimeSeriesRecorder(MetricsRegistry(), bucket_width=4, capacity=0)


class TestEviction:
    def test_old_buckets_evict_and_are_counted(self):
        registry, recorder = _recorder(width=10, capacity=4)
        for step in range(8):
            registry.inc("ops_total")
            recorder.sample(step * 10)
        assert recorder.bucket_count == 4
        assert recorder.start_bucket == 4
        assert recorder.dropped == 4
        assert recorder.counter_view("ops_total").tolist() == [1, 1, 1, 1]
        assert recorder.last_bucket_snapshot()["clock"] == 80

    def test_far_jump_clears_whole_window(self):
        registry, recorder = _recorder(width=10, capacity=4)
        registry.inc("ops_total")
        recorder.sample(0)
        registry.inc("ops_total")
        recorder.sample(1000)       # bucket 100: the old window is gone
        assert recorder.start_bucket == 97
        assert recorder.counter_view("ops_total").tolist() == [0, 0, 0, 1]
        assert recorder.dropped == 1


class TestMerge:
    def _shard(self, base_clock, value):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=8)
        registry.inc("writes_total", value, outcome="ok")
        registry.set_gauge("spares_free", float(value), shard=str(value))
        registry.observe("stage_cost", value, edges=(8, 64))
        recorder.sample(base_clock)
        return recorder

    def test_merge_is_commutative_over_shard_order(self):
        snapshots = []
        for order in itertools.permutations(range(3)):
            shards = [self._shard(17 * (i + 1), i + 1) for i in range(3)]
            merged = TimeSeriesRecorder(None, bucket_width=10, capacity=8)
            for index in order:
                merged.merge(shards[index])
            snapshots.append(json.dumps(merged.snapshot(), sort_keys=True))
        assert len(set(snapshots)) == 1

    def test_merge_unions_the_bucket_window(self):
        merged = TimeSeriesRecorder(None, bucket_width=10, capacity=8)
        merged.merge(self._shard(5, 2))     # bucket 0
        merged.merge(self._shard(35, 3))    # bucket 3
        assert merged.start_bucket == 0
        assert merged.bucket_count == 4
        assert merged.counter_view("writes_total").tolist() == [2, 0, 0, 3]
        assert merged.samples == 2

    def test_merge_rejects_mismatched_geometry(self):
        a = TimeSeriesRecorder(None, bucket_width=10)
        with pytest.raises(ConfigurationError):
            a.merge(TimeSeriesRecorder(None, bucket_width=20))
        with pytest.raises(ConfigurationError):
            a.merge(TimeSeriesRecorder(None, bucket_width=10, capacity=4))


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        registry, recorder = _recorder()
        registry.inc("writes_total", 3, outcome="ok")
        registry.set_gauge("spares_free", 7.0)
        registry.observe("stage_cost", 12, edges=(8, 64))
        recorder.sample(5)
        path = tmp_path / "series.jsonl"
        lines = write_slo_jsonl(str(path), recorder, ())
        assert lines == 1 + 3  # meta + one record per series
        data = read_series_jsonl(str(path))
        assert data["meta"]["bucket_width"] == 10
        assert data["meta"]["buckets"] == 1
        by_series = {record["series"]: record for record in data["series"]}
        assert by_series['writes_total{outcome="ok"}']["values"] == [3]
        assert by_series["spares_free"]["kind"] == "gauge"
        assert by_series["stage_cost"]["totals"] == [1]
        assert data["slos"] == [] and data["alerts"] == []

    def test_last_bucket_snapshot(self):
        registry, recorder = _recorder()
        assert recorder.last_bucket_snapshot()["bucket"] is None
        registry.inc("writes_total", 4)
        recorder.sample(25)
        frame = recorder.last_bucket_snapshot()
        assert frame["bucket"] == 2
        assert frame["clock"] == 30
        assert frame["counters"] == {"writes_total": 4}


class TestLoadDeterminism:
    def test_series_identical_across_workers_and_engines(self):
        snapshots = {}
        for workers, engine in [(1, "auto"), (2, "scalar"), (2, "auto")]:
            report = run_load(
                aegis_spec(9, 61, 512),
                ops=400,
                seed=11,
                shards=4,
                workers=workers,
                n_addresses=16,
                spares=4,
                workload="zipf",
                lifetime_model=NormalLifetime(mean_lifetime=50.0),
                engine=engine,
                series_bucket=16,
            )
            series = report.snapshot["timeseries"]
            snapshots[(workers, engine)] = json.dumps(series, sort_keys=True)
            assert series["samples"] > 0
        assert len(set(snapshots.values())) == 1

    def test_series_export_requires_recorder(self, tmp_path):
        report = run_load(
            aegis_spec(9, 61, 512),
            ops=50,
            seed=11,
            shards=1,
            workers=1,
            n_addresses=16,
            spares=4,
        )
        with pytest.raises(ConfigurationError):
            write_slo_jsonl(
                str(tmp_path / "series.jsonl"), report.telemetry.timeseries, report.slos
            )

    def test_negative_series_bucket_rejected(self):
        with pytest.raises(ConfigurationError):
            run_load(
                aegis_spec(9, 61, 512),
                ops=10,
                seed=1,
                shards=1,
                workers=1,
                n_addresses=16,
                spares=4,
                series_bucket=-1,
            )
