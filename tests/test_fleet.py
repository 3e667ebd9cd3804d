"""Tests for the streaming fleet-campaign engine (`repro/fleet/`).

The headline contract: a campaign's digest — the sha256 of its merged
statistical state — is bit-identical for every worker count, either
engine, and any checkpoint/resume split of the stream, including a
SIGKILL mid-campaign.  Shard-side reduction, merge order and checkpoint
serialization all have to be exact for that to hold, so the digest
assertions here cover the whole reduction pipeline at once.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.fleet import (
    CampaignSpec,
    SchemeAggregate,
    default_fleet_slos,
    default_retention_edges,
    fleet_spec,
    read_checkpoint,
    run_campaign,
)
from repro.fleet.campaign import (
    FleetTask,
    reduce_fleet_chunk,
    write_checkpoint,
)
from repro.obs.slo import write_slo_jsonl
from repro.sim.context import ExecContext
from repro.sim.parallel import PageTask, simulate_task_pages

#: small-but-real campaign: 2 schemes x 12 pages in chunks of 4 = 6 chunks
SPEC = CampaignSpec(
    schemes=("aegis-9x61", "ecp6"),
    pages_per_scheme=12,
    blocks_per_page=2,
    chunk_pages=4,
)

EDGES = SPEC.resolved_edges()
RETENTION_AGE = SPEC.resolved_retention_age()


def _ctx(**overrides) -> ExecContext:
    options = {"seed": 2013, "workers": 1, "engine": "auto"}
    options.update(overrides)
    return ExecContext(**options)


def _page_task(seed: int = 2013) -> PageTask:
    return PageTask(
        spec=fleet_spec("ecp6", SPEC.block_bits),
        blocks_per_page=SPEC.blocks_per_page,
        seed=seed,
        lifetime_model=SPEC.lifetime_model(),
        write_probability=SPEC.write_probability,
        inversion_wear_rate=SPEC.inversion_wear_rate,
    )


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted serial run every drill is compared against."""
    return run_campaign(SPEC, _ctx())


class TestSchemeAggregate:
    def test_chunked_merge_matches_direct_push(self):
        """Merging per-chunk shards in chunk order reproduces the direct
        page fold: integer state exactly, float moments to rounding (the
        merge reorders float ops, which is why the campaign digest is
        defined over one fixed fold structure, not over arbitrary ones)."""
        task = _page_task()
        results = simulate_task_pages(task, tuple(range(8)))
        direct = SchemeAggregate(EDGES, RETENTION_AGE)
        for result in results:
            direct.push(result)
        merged = SchemeAggregate(EDGES, RETENTION_AGE)
        for start in range(0, 8, 4):
            shard = SchemeAggregate(EDGES, RETENTION_AGE)
            for result in results[start : start + 4]:
                shard.push(result)
            merged.merge_state(shard.state())
        assert merged.pages == direct.pages == 8
        assert merged.retained == direct.retained
        assert merged.lifetime_hist.counts == direct.lifetime_hist.counts
        assert merged.lifetime.mean == pytest.approx(direct.lifetime.mean, rel=1e-12)
        assert merged.improvement.mean == pytest.approx(
            direct.improvement.mean, rel=1e-12
        )

    def test_chunked_merge_is_bit_reproducible(self):
        """The same shard states merged in the same order twice produce
        identical digests — the property resume actually relies on."""
        task = _page_task()
        results = simulate_task_pages(task, tuple(range(8)))
        shards = []
        for start in range(0, 8, 4):
            shard = SchemeAggregate(EDGES, RETENTION_AGE)
            for result in results[start : start + 4]:
                shard.push(result)
            shards.append(shard.state())

        def merge_all():
            merged = SchemeAggregate(EDGES, RETENTION_AGE)
            for state in shards:
                merged.merge_state(state)
            return merged

        assert merge_all().digest_state() == merge_all().digest_state()

    def test_state_round_trip_is_bit_exact(self):
        task = _page_task(seed=5)
        agg = SchemeAggregate(EDGES, RETENTION_AGE)
        for result in simulate_task_pages(task, tuple(range(6))):
            agg.push(result)
        clone = SchemeAggregate.from_state(EDGES, RETENTION_AGE, agg.state())
        assert clone.state() == agg.state()
        # JSON round-trip (what checkpoints actually do) is also exact
        rehydrated = SchemeAggregate.from_state(
            EDGES, RETENTION_AGE, json.loads(json.dumps(agg.state()))
        )
        assert rehydrated.state() == agg.state()

    def test_digest_ignores_transport_bytes(self):
        agg = SchemeAggregate(EDGES, RETENTION_AGE)
        for result in simulate_task_pages(_page_task(), (0, 1)):
            agg.push(result)
        before = agg.digest_state()
        agg.result_bytes += 12345
        agg.shard_bytes += 67
        assert agg.digest_state() == before

    def test_merge_rejects_mismatched_edges(self):
        agg = SchemeAggregate(EDGES, RETENTION_AGE)
        other = SchemeAggregate(EDGES[:4], RETENTION_AGE)
        with pytest.raises(ConfigurationError):
            agg.merge_state(other.state())

    def test_retention_curve_is_monotone_nonincreasing(self):
        agg = SchemeAggregate(EDGES, RETENTION_AGE)
        for result in simulate_task_pages(_page_task(), tuple(range(8))):
            agg.push(result)
        curve = agg.retention_curve()
        assert len(curve) == len(EDGES)
        alive = [fraction for _, fraction in curve]
        assert all(a >= b for a, b in zip(alive, alive[1:]))
        assert all(0.0 <= fraction <= 1.0 for fraction in alive)
        assert 0.0 <= agg.retention <= 1.0

    def test_default_edges_reject_nonpositive_scale(self):
        with pytest.raises(ConfigurationError):
            default_retention_edges(0.0)

    def test_worker_shard_measures_what_it_replaced(self):
        task = FleetTask(
            page_task=_page_task(),
            edges=EDGES,
            retention_age=RETENTION_AGE,
        )
        shard = reduce_fleet_chunk(task, (0, 1, 2, 3))
        assert shard["pages"] == 4
        assert shard["chunks"] == 1
        assert shard["result_bytes"] > 0  # the bytes the full path would ship


class TestCampaignDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_digest_invariant_across_workers_and_engines(
        self, reference, workers, engine
    ):
        report = run_campaign(SPEC, _ctx(workers=workers, engine=engine))
        assert report.digest == reference.digest
        assert report.pages == reference.pages
        assert report.completed

    def test_seed_changes_the_digest(self, reference):
        assert run_campaign(SPEC, _ctx(seed=99)).digest != reference.digest

    def test_registry_counters_match_the_aggregate(self, reference):
        counters = reference.registry.snapshot()["counters"]
        total_pages = sum(
            value
            for series, value in counters.items()
            if series.startswith("fleet_pages_total")
        )
        assert total_pages == reference.pages == SPEC.pages_per_scheme * len(SPEC.grid())

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(schemes=("aegis-9x61", "not-a-scheme"))

    def test_fleet_spec_rejects_unknown_key(self):
        with pytest.raises(ConfigurationError):
            fleet_spec("nope")


class TestShardReduction:
    def test_reduction_floor_at_chunk_128(self):
        """A 128-page chunk ships its constant-size shard state instead of
        128 pickled page results: at least 5x fewer bytes cross the
        process boundary."""
        spec = CampaignSpec(
            schemes=("aegis-9x61",),
            pages_per_scheme=128,
            blocks_per_page=2,
            chunk_pages=128,
        )
        report = run_campaign(spec, _ctx())
        assert report.reduction_ratio >= 5.0


class TestCheckpointResume:
    @pytest.mark.parametrize("stop_after", [1, 3, 5])
    def test_resumed_digest_matches_uninterrupted(
        self, reference, tmp_path, stop_after
    ):
        """Kill the campaign at several cursor positions (including a
        scheme boundary at chunk 3) and resume: bit-identical digest."""
        path = str(tmp_path / "fleet.ckpt")
        partial = run_campaign(
            SPEC, _ctx(), checkpoint_path=path, stop_after_chunks=stop_after
        )
        assert not partial.completed
        assert partial.digest != reference.digest
        resumed = run_campaign(SPEC, _ctx(), checkpoint_path=path, resume=True)
        assert resumed.completed
        assert resumed.resumed_from == partial.cursor
        assert resumed.digest == reference.digest
        assert resumed.pages == reference.pages
        # transport accounting carries across the split too
        assert resumed.aggregate.result_bytes == reference.aggregate.result_bytes

    @pytest.mark.parametrize("workers,engine", [(2, "auto"), (1, "scalar")])
    def test_resume_with_different_fanout(self, reference, tmp_path, workers, engine):
        """The checkpoint pins what is simulated, never how: resuming
        with a different worker count or engine is supported and exact."""
        path = str(tmp_path / "fleet.ckpt")
        run_campaign(
            SPEC,
            _ctx(workers=2),
            checkpoint_path=path,
            stop_after_chunks=2,
        )
        resumed = run_campaign(
            SPEC,
            _ctx(workers=workers, engine=engine),
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.digest == reference.digest

    def test_resume_refuses_different_seed(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        run_campaign(SPEC, _ctx(), checkpoint_path=path, stop_after_chunks=1)
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            run_campaign(SPEC, _ctx(seed=42), checkpoint_path=path, resume=True)

    def test_resume_refuses_different_parameters(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        run_campaign(SPEC, _ctx(), checkpoint_path=path, stop_after_chunks=1)
        bigger = CampaignSpec(
            schemes=SPEC.schemes,
            pages_per_scheme=SPEC.pages_per_scheme * 2,
            blocks_per_page=SPEC.blocks_per_page,
            chunk_pages=SPEC.chunk_pages,
        )
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            run_campaign(bigger, _ctx(), checkpoint_path=path, resume=True)

    def test_resume_without_checkpoint_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no checkpoint"):
            run_campaign(
                SPEC,
                _ctx(),
                checkpoint_path=str(tmp_path / "missing.ckpt"),
                resume=True,
            )

    def test_resume_of_finished_campaign_is_a_noop(self, reference, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        run_campaign(SPEC, _ctx(), checkpoint_path=path)
        resumed = run_campaign(SPEC, _ctx(), checkpoint_path=path, resume=True)
        assert resumed.completed
        assert resumed.pages == reference.pages
        assert resumed.digest == reference.digest

    def test_checkpoint_file_round_trips(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        partial = run_campaign(
            SPEC, _ctx(), checkpoint_path=path, stop_after_chunks=2
        )
        meta, aggregate = read_checkpoint(path)
        assert meta["config_digest"] == SPEC.config_digest(2013)
        assert (meta["cursor"]["scheme"], meta["cursor"]["chunk"]) == partial.cursor
        assert aggregate.digest() == partial.digest
        # writing the restored aggregate back is byte-stable
        write_checkpoint(str(tmp_path / "again.ckpt"), meta, aggregate)
        meta2, aggregate2 = read_checkpoint(str(tmp_path / "again.ckpt"))
        assert meta2 == meta
        assert aggregate2.digest() == aggregate.digest()

    def test_checkpoint_version_gate(self, tmp_path):
        """Stale versions and corrupt lines are refused with a typed error."""
        meta = json.dumps({"record": "meta", "version": 999})
        cases = (
            (meta + "\n", "version"),
            (meta + "\n" + meta[:-7] + "\n", "line 2 is not valid JSON"),
            ("[1, 2]\n", "line 1 is not a JSON object"),
        )
        path = tmp_path / "bad.ckpt"
        for text, message in cases:
            path.write_text(text)
            with pytest.raises(ConfigurationError, match=message):
                read_checkpoint(str(path))


class TestKillDrill:
    def test_sigkilled_campaign_resumes_bit_identically(self, reference, tmp_path):
        """The out-of-process drill: SIGKILL the CLI right after a
        checkpoint lands, resume in-process, compare digests."""
        checkpoint = str(tmp_path / "fleet.ckpt")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "fleet-bench",
                "--schemes", "aegis-9x61,ecp6",
                "--pages", "12",
                "--blocks", "2",
                "--chunk-pages", "4",
                "--seed", "2013",
                "--workers", "1",
                "--checkpoint", checkpoint,
                "--checkpoint-interval", "1",
                "--kill-after-checkpoints", "2",
            ],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -9, proc.stderr.decode()
        assert os.path.exists(checkpoint)
        resumed = run_campaign(SPEC, _ctx(), checkpoint_path=checkpoint, resume=True)
        assert resumed.completed
        assert resumed.resumed_from is not None
        assert resumed.digest == reference.digest


class TestObservabilityFeed:
    def test_series_export_renders_through_slo_report(self, reference, tmp_path):
        path = str(tmp_path / "fleet_series.jsonl")
        lines = write_slo_jsonl(path, reference.recorder, reference.slos)
        assert lines > 0
        with open(path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == lines
        kinds = {record.get("record") for record in records}
        assert "slo" in kinds

    def test_default_slos_cover_every_scheme_plus_ipc(self, reference):
        specs = default_fleet_slos(SPEC.schemes)
        assert reference.slos == specs
        names = [spec.name for spec in specs]
        for scheme in SPEC.schemes:
            assert f"fleet_retention_{scheme}" in names
        assert "fleet_ipc_overhead" in names

    def test_report_dict_is_json_serializable(self, reference):
        payload = json.loads(json.dumps(reference.to_dict()))
        assert payload["digest"] == reference.digest
        assert payload["reduction_ratio"] == reference.reduction_ratio
        assert {row["scheme"] for row in payload["schemes"]} == set(SPEC.schemes)

    def test_resumed_series_counters_match(self, reference, tmp_path):
        """The rebuilt registry of a resumed run ends at the same counter
        totals as the uninterrupted run's."""
        path = str(tmp_path / "fleet.ckpt")
        run_campaign(SPEC, _ctx(), checkpoint_path=path, stop_after_chunks=3)
        resumed = run_campaign(SPEC, _ctx(), checkpoint_path=path, resume=True)

        def counters(report):
            return {
                series: value
                for series, value in report.registry.snapshot()["counters"].items()
                if series.startswith("fleet_") and "bytes" not in series
            }

        assert counters(resumed) == counters(reference)


class TestSurfaces:
    def test_ext_fleet_experiment(self):
        result = run_experiment(
            "ext-fleet", _ctx(), n_pages=4, blocks_per_page=2, chunk_pages=2
        )
        assert result.experiment_id == "ext-fleet"
        assert len(result.rows) == 4  # aegis, ecp, safer, hamming
        schemes = [row[0] for row in result.rows]
        assert "aegis-9x61" in schemes and "hamming" in schemes

    def test_cli_fleet_bench_smoke(self, tmp_path, capsys):
        from repro.cli import main

        json_path = str(tmp_path / "report.json")
        series_path = str(tmp_path / "series.jsonl")
        code = main(
            [
                "fleet-bench",
                "--schemes", "ecp6",
                "--pages", "8",
                "--blocks", "2",
                "--chunk-pages", "4",
                "--workers", "1",
                "--json", json_path,
                "--series", series_path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign digest:" in out
        assert os.path.exists(json_path) and os.path.exists(series_path)
