"""Run one stack-benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repeats and prints the
per-layer metrics (layers a workload never enters read 0), writing the
spans to ``.bench_build/perfbench/<workload>-<seed>.spans.jsonl``.  Either
way the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show every
report metric with its median, quartiles and unit.  A failed correctness
check prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: workload name -> module, or module:attribute for a workload object
WORKLOADS = {
    "study-static": "perfbench.study:static",
    "study-sampled": "perfbench.study:sampled",
    "serve": "perfbench.serve",
    "cluster-tcp": "perfbench.cluster_tcp",
}
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
HASH_SEED = "0"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every episode (for the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def load_workload(name: str):
    module, _, attr = WORKLOADS[name].partition(":")
    target = importlib.import_module(module)
    return getattr(target, attr) if attr else target


def print_report(workload: str, report: dict[str, dict]) -> None:
    for name, entry in report.items():
        line = (
            f"{workload:13s} {name:24s} {entry['value']:14.4f} {entry['unit']:8s}"
            f" median {entry['median']:.4f} [q1 {entry['q1']:.4f}, q3 {entry['q3']:.4f}]"
            f" repeats={entry['repeats']}"
        )
        if "samples" in entry:
            line += f" samples={entry['samples']} beyond={entry['beyond']}"
        print(line)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    from benchmarks.hostmeta import host_cpus
    from perfbench.harness import NullRecorder, measure
    from perfbench.stats import summary
    from perfbench.trace import SpanRecorder

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = load_workload(args.workload)
    inputs = workload.make_inputs(args.seed, args.scale)

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        untraced, traced = measure(workload, inputs, args.seconds, [NullRecorder(), recorder])
        outcomes = untraced + traced
    else:
        (outcomes,) = measure(workload, inputs, args.seconds, [NullRecorder()])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [failure for outcome in outcomes for failure in outcome.failures]
    failures += workload.verify(inputs, outcomes, recorder or NullRecorder())
    attempted = sum(outcome.work for outcome in outcomes)
    if failures:
        for failure in failures[:20]:
            print(f"perfbench: correctness check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": len(failures),
                          "metrics": {}}))
        return 1

    measured = untraced if args.trace else outcomes
    report = {
        "setup_s": summary([o.setup_s for o in measured], "s"),
        "peak_rss_mb": summary([peak_rss_mb], "MB"),
        **workload.report(inputs, measured),
    }
    print_report(args.workload, report)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "host_cpus": host_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "digests": measured[0].digests,
        "report": report,
    }, sort_keys=True))

    if args.trace:
        totals = recorder.totals()
        per_layer = {entry["name"]: 0.0 for entry in declared["per_layer"]}
        per_layer.update(workload.layers(inputs, traced, totals))
        episode = totals["episode"]
        per_layer["trace.residual_frac"] = episode["self_s"] / episode["s"]
        # the two repeats of a round do the same work
        per_layer["trace_overhead_frac"] = (
            statistics.median(t.wall_s / u.wall_s for u, t in zip(untraced, traced)) - 1.0
        )
        recorder.dump(SPAN_DIR / f"{args.workload}-{args.seed}.spans.jsonl")
        units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
        for name in sorted(per_layer):
            print(f"{args.workload:13s} {name:40s} {per_layer[name]:16.6f} {units[name]}")
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in units}
    else:
        # every workload reports the same gated names: its own throughput
        # (named in the report above) is the one behind work_per_s
        report["work_per_s"] = report[workload.THROUGHPUT]
        metrics = {
            entry["name"]: {"value": report[entry["name"]]["value"], "unit": entry["unit"]}
            for entry in declared["end_to_end"]
        }
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # str hashes are salted per process, and the salt alone moved a
    # cluster-tcp run's throughput by up to a third (set and dict order
    # inside the program): one fixed salt makes runs of the same code
    # comparable.  exec replaces this process, so nothing is left running.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
