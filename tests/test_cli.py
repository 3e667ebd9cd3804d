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

    def test_run_256_bit(self, capsys):
        assert main(["run", "fig5", "--pages", "2", "--block-bits", "256"]) == 0
        assert "Aegis 12x23" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])


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


class TestReport:
    def test_report_written(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert main(["report", "table1", "-o", str(target), "--pages", "2",
                     "--trials", "2"]) == 0
        content = target.read_text()
        assert "# Aegis reproduction report" in content
        assert "Table 1" in content
        assert "wrote" in capsys.readouterr().out

    def test_report_with_chart(self, tmp_path):
        target = tmp_path / "r.md"
        assert main(["report", "fig5", "-o", str(target), "--pages", "2",
                     "--trials", "2"]) == 0
        content = target.read_text()
        assert "[chart]" in content
        assert "```" in content

    def test_report_no_charts(self, tmp_path):
        target = tmp_path / "r.md"
        assert main(["report", "fig5", "-o", str(target), "--pages", "2",
                     "--trials", "2", "--no-charts"]) == 0
        assert "[chart]" not in target.read_text()


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
        "command",
        [["run", "fig5"], ["report"], ["serve-bench"], ["cluster-bench"], ["fleet-bench"]],
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
