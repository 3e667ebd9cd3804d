"""Tests of the stack benchmark itself (run: ``python3 -m pytest perfbench -q``)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

REPORT_METRICS = {
    "study-static": {"static_pages_per_s": "pages/s"},
    "study-sampled": {"sampled_pages_per_s": "pages/s"},
    "serve": {
        "serve_ops_per_s": "ops/s",
        "serve_write_p50_us": "us",
        "serve_write_p99_us": "us",
        "serve_read_p50_us": "us",
        "serve_read_p99_us": "us",
        "serve_failed_frac": "ratio",
    },
    "cluster-tcp": {
        "tcp_ops_per_s": "req/s",
        "tcp_p50_us": "us",
        "tcp_p99_us": "us",
        "tcp_failed_frac": "ratio",
    },
}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def tiny(workload: str, trace: int) -> subprocess.CompletedProcess:
    return run("--workload", workload, "--seed", "7", "--seconds", "0.1",
               "--trace", str(trace), "--scale", "tiny")


def report_line(stdout: str) -> dict:
    (line,) = [line for line in stdout.splitlines() if line.startswith('{"digests"')]
    return json.loads(line)


def test_benchmark_json_follows_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["perfbench"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == list(REPORT_METRICS)
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", list(REPORT_METRICS))
def test_untraced_run_prints_every_metric_with_its_unit(workload):
    result = tiny(workload, 0)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in last["metrics"].values())
    report = report_line(result.stdout)
    assert report["host_cpus"] >= 1 and report["python"] and report["numpy"]
    for name, unit in REPORT_METRICS[workload].items():
        entry = report["report"][name]
        assert entry["unit"] == unit
        assert entry["q1"] <= entry["median"] <= entry["q3"]
        assert re.search(rf"^{re.escape(workload)}\s+{name}\s.*\s{re.escape(unit)}\s",
                         result.stdout, re.M)
        if name.endswith("_us"):
            assert entry["samples"] >= 1 and "beyond" in entry


@pytest.mark.parametrize("workload", list(REPORT_METRICS))
def test_traced_run_prints_every_per_layer_metric(workload):
    result = tiny(workload, 1)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
    assert 0 <= last["metrics"]["trace.residual_frac"]["value"] < 1
    spans = ROOT / ".bench_build" / "perfbench" / f"{workload}-7.spans.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent"}


def test_recorded_digests_come_from_the_scalar_engine(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from perfbench import study

    roster = {**study.STATIC, **study.SAMPLED}
    assert study.RECORDED == {
        key: study.canary_digest(factory(), "scalar") for key, factory in roster.items()
    }


def test_corrupted_reference_digest_fails_the_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from perfbench import run, study

    key = next(iter(study.SAMPLED))
    monkeypatch.setitem(study.RECORDED, key, "0" * 16)
    code = run.main(["--workload", "study-sampled", "--seed", "7", "--seconds", "0.1",
                     "--scale", "tiny"])
    out, err = capsys.readouterr()
    assert code == 1
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["metrics"] == {}
    assert key in err


def test_outside_a_checkout_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run("--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
