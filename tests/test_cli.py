"""Tests for the aegis-repro command line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig9" in out


class TestRun:
    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "[table1 in" in out

    def test_run_small_figure(self, capsys):
        assert main(["run", "fig5", "--pages", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Aegis 9x61" in out

    def test_run_chart(self, capsys):
        assert main(["run", "fig5", "--pages", "2", "--chart"]) == 0
        assert "[chart]" in capsys.readouterr().out
        assert main(["run", "fig5", "--pages", "2"]) == 0
        assert "[chart]" not in capsys.readouterr().out

    def test_chart_flag_skips_tables(self, capsys):
        """A table declares no chart, so ``--chart`` adds nothing to it."""
        assert main(["run", "table1", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "[chart]" not in out

    def test_run_256_bit(self, capsys):
        assert main(["run", "fig5", "--pages", "2", "--block-bits", "256"]) == 0
        assert "Aegis 12x23" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_trace_and_metrics_sinks_restored(self, tmp_path, capsys):
        from repro.obs import get_metrics, get_tracer

        tracer, registry = get_tracer(), get_metrics()
        trace, metrics = tmp_path / "trace.jsonl", tmp_path / "metrics.prom"
        argv = ["run", "table1", "--trace", str(trace), "--metrics", str(metrics)]
        assert main(argv) == 0
        capsys.readouterr()
        assert trace.exists() and metrics.exists()
        assert get_tracer() is tracer
        assert get_metrics() is registry


class TestDemo:
    def test_demo_recovers(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "100/100" in out


class TestCheck:
    def test_all_checks_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "Theorem 2" in out


class TestJsonOutput:
    def test_json_file_written(self, capsys, tmp_path):
        target = tmp_path / "results.json"
        assert main(["run", "table1", "--json", str(target)]) == 0
        import json

        payload = json.loads(target.read_text())
        assert payload[0]["experiment_id"] == "table1"
        assert payload[0]["rows"][3][0] == "Aegis"

    def test_json_carries_the_chart_declaration(self, tmp_path):
        target = tmp_path / "fig5.json"
        assert main(["run", "fig5", "--pages", "2", "--json", str(target)]) == 0
        import json

        (payload,) = json.loads(target.read_text())
        assert payload["experiment_id"] == "fig5"
        assert payload["chart"] is not None


class TestSchemes:
    def test_catalogue(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "Aegis 9x61" in out
        assert "SAFER128-cache" in out
        assert "Hamming(72,64)" in out

    def test_catalogue_256(self, capsys):
        assert main(["schemes", "--block-bits", "256"]) == 0
        assert "Aegis 12x23" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_block_bits(self):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--block-bits", "300"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig8", "--trials", "0"],
            ["run", "fig8", "--trials", "-5"],
            ["run", "fig10", "--trials", "0"],
            ["run", "fig5", "--pages", "0"],
            ["run", "fig5", "--pages", "two"],
        ],
        ids=lambda argv: " ".join(argv[1:]),
    )
    def test_study_sizes_below_one_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[2]}:" in err

    @pytest.mark.parametrize(
        "command",
        [["run", "fig5"], ["serve-bench"], ["cluster-bench"], ["fleet-bench"]],
        ids=lambda command: command[0],
    )
    def test_exec_flags_parse_to_one_context(self, command):
        from repro.cli import _build_parser
        from repro.sim.context import ExecContext

        args = _build_parser().parse_args(
            command
            + ["--seed", "7", "--workers", "2", "--engine", "scalar", "--fault-model", "drift"]
        )
        assert ExecContext.from_args(args) == ExecContext(
            seed=7, workers=2, engine="scalar", fault_model="drift"
        )


#: ``vars(parse_args(argv))`` minus ``handler`` for a minimal argv of every
#: subcommand: every flag's destination and default, pinned so a change to
#: how the flags are declared cannot move one
PARSED_DEFAULTS = {
    "list": (["list"], {"command": "list"}),
    "run": (
        ["run", "fig5"],
        {
            "command": "run", "experiments": ["fig5"], "pages": 128, "trials": 2000,
            "block_bits": 512, "seed": 2013, "workers": None, "engine": "auto",
            "fault_model": "hard", "json": None, "chart": False, "trace": None,
            "metrics": None,
        },
    ),
    "demo": (["demo"], {"command": "demo"}),
    "check": (["check"], {"command": "check"}),
    "schemes": (["schemes"], {"command": "schemes", "block_bits": 512}),
    "serve-bench": (
        ["serve-bench"],
        {
            "command": "serve-bench", "ops": 20000, "workload": "zipf", "alpha": 1.0,
            "shards": 4, "seed": 2013, "workers": None, "engine": "auto",
            "fault_model": "hard", "policy": "fixed", "addresses": 64, "spares": 16,
            "scheme": "aegis-9x61", "endurance": 150.0, "read_fraction": 0.25,
            "buffer": 8, "snapshot_interval": 2000, "proactive_migration": False,
            "telemetry_jsonl": None, "json": None, "trace": None, "trace_sample": 100,
            "metrics": None, "event_cap": None, "series_bucket": 0, "series": None,
        },
    ),
    "obs-report": (
        ["obs-report"],
        {
            "command": "obs-report", "trace": None, "metrics": None, "series": None,
            "top": 10, "title": "Observability report", "output": None,
        },
    ),
    "cluster-bench": (
        ["cluster-bench"],
        {
            "command": "cluster-bench", "ops": 2000, "arrays": 3, "tenants": 4,
            "seed": 2013, "workers": None, "engine": "auto", "fault_model": "hard",
            "policy": "fixed", "scheme": "aegis-9x61", "tenant_addresses": 32,
            "addresses": 64, "spares": 16, "buffer": 8, "watermark": 0.75,
            "endurance": 150.0, "degrade_at": 0, "degrade_array": 0,
            "degrade_threshold": None, "maintenance_interval": 16,
            "series_bucket": None, "series": None, "check": False, "json": None,
            "metrics": None, "telemetry_jsonl": None,
        },
    ),
    "fleet-bench": (
        ["fleet-bench"],
        {
            "command": "fleet-bench", "schemes": "aegis-9x61,ecp6,safer64",
            "pages": 256, "blocks": 8, "block_bits": 512, "chunk_pages": 64,
            "seed": 2013, "workers": None, "engine": "auto", "fault_model": "hard",
            "wear_policy": "perfect", "endurance": None, "cov": None,
            "retention_age": None, "checkpoint": None, "checkpoint_interval": 8,
            "resume": False, "stop_after_chunks": 0, "kill_after_checkpoints": 0,
            "check": False, "series": None, "json": None, "metrics": None,
        },
    ),
    "serve": (
        ["serve"],
        {
            "command": "serve", "host": "127.0.0.1", "port": 0, "arrays": 3,
            "tenants": 4, "scheme": "aegis-9x61", "addresses": 64, "spares": 16,
            "buffer": 8, "seed": 2013, "endurance": 150.0, "series_bucket": 16,
            "selftest": False, "selftest_ops": 16,
        },
    ),
}


class TestParsedDefaults:
    @pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
    def test_minimal_argv_parses_to_pinned_namespace(self, command):
        from repro.cli import _build_parser

        argv, expected = PARSED_DEFAULTS[command]
        parsed = vars(_build_parser().parse_args(argv))
        parsed.pop("handler")
        assert parsed == expected


#: sha256 of each deterministic export of a small run, per export flag
EXPORT_DIGESTS = {
    "serve-bench": (
        ["serve-bench", "--ops", "600", "--seed", "7", "--workers", "1"],
        {
            "json": "5f09e8362bc4031c17d1a561c05d66608e46a8649c38fd91397a98e11c4baa34",
            "metrics": "75218c32a8f5a0299d489bae0c083e89511cd84fd3309fada4174340c6fc878f",
            "telemetry-jsonl": "40d58e3c9e19055872dfdc208aa33c742b3c2232fbde4651d3282f97acc03a1c",
            "trace": "08e6e2f5f3d46d8840a1a611c4dd411514ba4b193a645e10032e23795a49522f",
            "series": "c491ef6a88138286b70fe4af47c8b22ef4ff151fda25cdcfacc20bed3358b676",
        },
    ),
    "cluster-bench": (
        ["cluster-bench", "--ops", "400", "--workers", "1"],
        {
            "json": "ff825809bfc03f0e58b3a138e6147f4a6d80ddf99f80816613ae3a05e251b226",
            "metrics": "321c9a458778fcd7fcc4788d8776ac57ce4fbfff98d227e91caa29816e0c8856",
            "telemetry-jsonl": "a106fa6573dc4b4548a262b03983c44257bf2ece25e4fe34ea30f91ab44811e2",
            "series": "189dba1d2c8fa37d8ac97794394ca865e5e881b4599f786e8b411d3a4c21ac2b",
        },
    ),
    "fleet-bench": (
        ["fleet-bench", "--pages", "16", "--blocks", "2", "--chunk-pages", "8",
         "--workers", "1"],
        {
            "metrics": "2be32a61df7229468afe8d1e195e719d215fd4e09be317e0003ac2d080c750ee",
            "series": "5dea12d27ea1303c1c9ca15590cee259a2a6585e498f45fc7d11a1e9169ab438",
            # wall-clock fields dropped, the rest re-dumped canonically
            "json": "6606a3e7c74d3d295ec13552b583fbc0a9ccc91dae13002801c806821274ae1b",
        },
    ),
    "run": (
        ["run", "fig5", "--pages", "2", "--workers", "1"],
        {
            "json": "94a9319add701748cf58b56f8114de46ff3265944210f866ce2df28c6d9ef69f",
            "metrics": "c0b7e2703f564adb63118dbb4c57e98f63af8ee9d255cfe8d34d3b2bb1e042f5",
            "trace": "d5bb34c581e0bf32a6c7a059e1d978b6af3b74a55dee36fb8e5ded9f67397056",
        },
    ),
}

#: fleet-bench --json fields that carry wall-clock time
WALL_CLOCK_FIELDS = ("elapsed_seconds", "pages_per_second")


class TestExportDigests:
    @pytest.mark.parametrize("command", sorted(EXPORT_DIGESTS))
    def test_exports_match_pinned_digests(self, command, tmp_path, capsys):
        import hashlib
        import json

        argv, expected = EXPORT_DIGESTS[command]
        paths = {flag: tmp_path / f"export-{flag}" for flag in expected}
        for flag, path in paths.items():
            argv = argv + [f"--{flag}", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        digests = {}
        for flag, path in paths.items():
            data = path.read_bytes()
            if command == "fleet-bench" and flag == "json":
                doc = json.loads(data)
                for name in WALL_CLOCK_FIELDS:
                    doc.pop(name)
                data = json.dumps(doc, indent=2, sort_keys=True).encode()
            digests[flag] = hashlib.sha256(data).hexdigest()
        assert digests == expected


class TestRunExportsWorkerInvariant:
    """``repro run``'s exports do not depend on ``--workers``: every sim
    span and metric is recorded parent-side, none inside pool workers."""

    @pytest.mark.parametrize("experiment", ["fig5", "ext-pairing"])
    def test_exports_identical_at_one_and_two_workers(self, experiment, tmp_path, capsys):
        from repro.experiments import clear_study_cache

        exports = {}
        for workers in (1, 2):
            paths = {flag: tmp_path / f"w{workers}-{flag}" for flag in ("json", "metrics", "trace")}
            argv = ["run", experiment, "--pages", "8", "--workers", str(workers)]
            for flag, path in paths.items():
                argv += [f"--{flag}", str(path)]
            clear_study_cache()  # a memoised study would skip its spans
            assert main(argv) == 0
            exports[workers] = {flag: path.read_bytes() for flag, path in paths.items()}
        clear_study_cache()
        capsys.readouterr()
        assert exports[1] == exports[2]

    def test_memo_hits_are_counted_alike_at_one_and_two_workers(self, tmp_path, capsys):
        """fig6 reuses fig5's page studies: each reuse is a counted memo
        hit, the same at every worker count."""
        from repro.experiments import clear_study_cache

        hits = {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}-metrics"
            argv = ["run", "fig5", "fig6", "--pages", "4", "--workers", str(workers)]
            clear_study_cache()
            assert main(argv + ["--metrics", str(path)]) == 0
            hits[workers] = [
                line for line in path.read_text().splitlines()
                if line.startswith("study_cache_hits_total{")
            ]
        clear_study_cache()
        capsys.readouterr()
        assert hits[1] == hits[2]
        assert sum(float(line.rsplit(" ", 1)[1]) for line in hits[1]) > 0


class TestDeterminismDrill:
    def test_reruns_other_workers_then_the_flipped_engine(self, capsys):
        from repro.cli import _determinism_drill
        from repro.sim.context import ExecContext

        seen = []

        def rerun(ctx):
            seen.append((ctx.workers, ctx.engine))
            return "digest"

        ctx = ExecContext(workers=1, engine="auto")
        assert _determinism_drill(ctx, rerun, str, "digest", (2, 4))
        assert seen == [(2, "auto"), (4, "auto"), (1, "scalar")]
        assert capsys.readouterr().out.count("]: ok") == 3

    def test_any_mismatch_fails_the_drill(self, capsys):
        from repro.cli import _determinism_drill
        from repro.sim.context import ExecContext

        ctx = ExecContext(workers=2, engine="scalar")
        rerun = lambda other: other.engine  # noqa: E731
        assert not _determinism_drill(ctx, rerun, str, "scalar", (1,))
        out = capsys.readouterr().out
        assert "determinism check [workers=1]: ok" in out
        assert "determinism check [engine=auto]: MISMATCH" in out

    def _tamper_reruns(self, monkeypatch, module, name, field):
        """Make every re-run after the first report a different digest."""
        real = getattr(module, name)
        calls = []

        def tampered(*args, **kwargs):
            report = real(*args, **kwargs)
            calls.append(report)
            if len(calls) > 1:
                setattr(report, field, "0" * 64)
            return report

        monkeypatch.setattr(module, name, tampered)
        return calls

    def test_cluster_bench_check_fails_on_a_digest_mismatch(self, monkeypatch, capsys):
        import repro.cluster

        argv = ["cluster-bench", "--ops", "200", "--workers", "1", "--check"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("]: ok") == 2
        calls = self._tamper_reruns(monkeypatch, repro.cluster, "run_cluster_bench",
                                    "audit_digest")
        assert main(argv) == 1
        assert len(calls) == 3
        assert capsys.readouterr().out.count("MISMATCH") == 2

    def test_fleet_bench_check_fails_on_a_digest_mismatch(self, monkeypatch, capsys):
        import repro.fleet

        argv = ["fleet-bench", "--pages", "8", "--blocks", "2", "--chunk-pages", "4",
                "--schemes", "ecp6", "--workers", "1", "--check"]
        calls = self._tamper_reruns(monkeypatch, repro.fleet, "run_campaign", "digest")
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert len(calls) == 4
        for label in ("workers=2", "workers=4", "engine=scalar"):
            assert f"determinism check [{label}]: MISMATCH" in out
