"""Command-line interface: ``aegis-repro`` (or ``python -m repro``).

Subcommands
-----------
``list``
    Show the available experiments.
``run EXPERIMENT [EXPERIMENT ...]``
    Regenerate one or more paper tables/figures (``all`` runs everything),
    with ``--pages/--trials/--seed/--block-bits`` controlling the Monte
    Carlo scale.
``demo``
    A tiny end-to-end demonstration of Aegis recovering injected faults.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

import numpy as np


#: scheme names servable by serve-bench / cluster-bench / serve
SERVICE_SCHEMES = ("aegis-9x61", "aegis-17x31", "aegis-rw-9x61", "ecp6", "safer64")


def _service_spec(name: str):
    """Resolve a servable scheme name to its :class:`SchemeSpec`."""
    from repro.sim.roster import aegis_rw_spec, aegis_spec, ecp_spec, safer_spec

    factories = {
        "aegis-9x61": lambda: aegis_spec(9, 61, 512),
        "aegis-17x31": lambda: aegis_spec(17, 31, 512),
        "aegis-rw-9x61": lambda: aegis_rw_spec(9, 61, 512),
        "ecp6": lambda: ecp_spec(6, 512),
        "safer64": lambda: safer_spec(64, 512),
    }
    return factories[name]()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aegis-repro",
        description="Reproduction of Aegis (MICRO-46, 2013) stuck-at-fault recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_cmd = sub.add_parser("run", help="regenerate paper tables/figures")
    run_cmd.add_argument("experiments", nargs="+", help="experiment ids or 'all'")
    run_cmd.add_argument("--pages", type=int, default=128, help="pages per Monte Carlo study")
    run_cmd.add_argument("--trials", type=int, default=2000, help="trials for block-level studies")
    run_cmd.add_argument("--seed", type=int, default=2013, help="simulation seed")
    run_cmd.add_argument("--block-bits", type=int, default=512, choices=(256, 512))
    run_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for page-level Monte Carlo fan-out "
        "(default: all CPU cores; 1 disables the pool); results are "
        "bit-identical for every worker count",
    )
    run_cmd.add_argument(
        "--engine",
        choices=("auto", "vector", "scalar"),
        default="auto",
        help="Monte Carlo execution path: 'vector' advances whole trial "
        "populations per numpy call, 'scalar' walks each trial through "
        "the incremental checkers, 'auto' (default) picks the batch "
        "kernel whenever the scheme has one; results are bit-identical",
    )
    run_cmd.add_argument(
        "--fault-model",
        choices=("hard", "partial", "drift"),
        default="hard",
        help="cell fault statistics: 'hard' (default) is the paper's "
        "hard stuck-at model, 'partial' adds maskable partially-stuck "
        "cells, 'drift' clusters arrivals into resistance-drift bursts; "
        "each model is bit-identical across --workers and --engine "
        "(see docs/fault_models.md)",
    )
    run_cmd.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as a JSON array to PATH",
    )
    run_cmd.add_argument(
        "--chart",
        action="store_true",
        help="draw each figure as a text chart below its table",
    )
    run_cmd.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export deterministic study-phase span trees as JSONL "
        "(worker-count invariant)",
    )
    run_cmd.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export labeled run metrics in Prometheus text format",
    )
    run_cmd.add_argument(
        "--profile", action="store_true",
        help="collect wall-clock phase timings and print a profile report "
        "(informational; never part of the deterministic results)",
    )

    sub.add_parser("demo", help="run the quickstart fault-recovery demo")
    sub.add_parser(
        "check",
        help="self-verify the mathematical foundations (Theorems 1-2, Table 1)",
    )

    report_cmd = sub.add_parser(
        "report", help="regenerate every artefact into one Markdown report"
    )
    report_cmd.add_argument("-o", "--output", default="report.md", metavar="PATH")
    report_cmd.add_argument(
        "experiments", nargs="*", help="experiment ids (default: all)"
    )
    report_cmd.add_argument("--pages", type=int, default=64)
    report_cmd.add_argument("--trials", type=int, default=500)
    report_cmd.add_argument("--seed", type=int, default=2013)
    report_cmd.add_argument("--block-bits", type=int, default=512, choices=(256, 512))
    report_cmd.add_argument("--no-charts", action="store_true")
    report_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for page-level Monte Carlo fan-out "
        "(default: all CPU cores)",
    )
    report_cmd.add_argument(
        "--engine",
        choices=("auto", "vector", "scalar"),
        default="auto",
        help="Monte Carlo execution path (see 'run --engine')",
    )
    report_cmd.add_argument(
        "--fault-model",
        choices=("hard", "partial", "drift"),
        default="hard",
        help="cell fault statistics (see 'run --fault-model')",
    )

    schemes_cmd = sub.add_parser(
        "schemes", help="catalogue every evaluated scheme configuration"
    )
    schemes_cmd.add_argument("--block-bits", type=int, default=512, choices=(256, 512))

    serve_cmd = sub.add_parser(
        "serve-bench",
        help="drive the memory-array service with a closed-loop load generator",
        description=(
            "Shard a logical address space over per-shard memory arrays, "
            "serve a deterministic request stream through the full pipeline "
            "(write buffer, fail cache, recovery schemes, spare remapping), "
            "and report throughput plus the final telemetry snapshot.  The "
            "snapshot is bit-identical for every --workers value."
        ),
    )
    serve_cmd.add_argument("--ops", type=int, default=20000, help="total operations")
    serve_cmd.add_argument(
        "--workload", choices=("uniform", "zipf", "hotcold"), default="zipf"
    )
    serve_cmd.add_argument("--alpha", type=float, default=1.0, help="Zipf exponent")
    serve_cmd.add_argument("--seed", type=int, default=2013)
    serve_cmd.add_argument("--shards", type=int, default=4, help="independent arrays")
    serve_cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: all cores; never changes the numbers)",
    )
    serve_cmd.add_argument(
        "--engine",
        choices=("auto", "vector", "scalar"),
        default="auto",
        help="write-drain path: 'vector' services each buffer drain as one "
        "numpy batch, 'scalar' walks it row by row, 'auto' (default) "
        "batches whenever the scheme has a service kernel; snapshots, "
        "traces and telemetry are bit-identical either way",
    )
    serve_cmd.add_argument(
        "--fault-model",
        choices=("hard", "partial", "drift"),
        default="hard",
        help="cell fault statistics the arrays wear under "
        "(see 'run --fault-model' and docs/fault_models.md)",
    )
    serve_cmd.add_argument(
        "--policy",
        choices=("fixed", "adaptive"),
        default="fixed",
        help="per-block scheme policy: 'adaptive' lets the policy engine "
        "re-encode worn blocks onto stronger schemes "
        "(policy_switches_total{from,to} in the metrics export)",
    )
    serve_cmd.add_argument("--addresses", type=int, default=64, help="addresses per shard")
    serve_cmd.add_argument("--spares", type=int, default=16, help="spare blocks per shard")
    serve_cmd.add_argument(
        "--scheme",
        choices=SERVICE_SCHEMES,
        default="aegis-9x61",
    )
    serve_cmd.add_argument(
        "--endurance", type=float, default=150.0,
        help="mean cell endurance in writes (small, so wear-out happens in-run)",
    )
    serve_cmd.add_argument("--read-fraction", type=float, default=0.25)
    serve_cmd.add_argument("--buffer", type=int, default=8, help="write-buffer entries")
    serve_cmd.add_argument(
        "--snapshot-interval", type=int, default=2000,
        help="ops between periodic health-snapshot events (0 disables)",
    )
    serve_cmd.add_argument(
        "--proactive-migration", action="store_true",
        help="migrate degraded blocks to spares before rewriting them",
    )
    serve_cmd.add_argument(
        "--telemetry-jsonl", metavar="PATH", default=None,
        help="write the merged event log + final snapshot as JSONL",
    )
    serve_cmd.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the deterministic snapshot as JSON",
    )
    serve_cmd.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export sampled write-path span trees as JSONL "
        "(bit-identical for every --workers value)",
    )
    serve_cmd.add_argument(
        "--trace-sample", type=int, default=100, metavar="N",
        help="trace every N-th operation (failed writes are always traced)",
    )
    serve_cmd.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export the labeled metrics registry in Prometheus text format",
    )
    serve_cmd.add_argument(
        "--event-cap", type=int, default=None, metavar="N",
        help="event-log ring capacity (0 = unbounded; default 100000)",
    )
    serve_cmd.add_argument(
        "--profile", action="store_true",
        help="collect wall-clock phase timings (reported separately from "
        "the deterministic snapshot)",
    )
    serve_cmd.add_argument(
        "--series-bucket", type=int, default=0, metavar="OPS",
        help="op-clock bucket width for per-shard time series "
        "(0 disables; implied 16 when --series is given)",
    )
    serve_cmd.add_argument(
        "--series", metavar="PATH", default=None,
        help="export the merged time series plus default service SLO "
        "verdicts as JSONL (the `repro slo-report` input)",
    )

    obs_cmd = sub.add_parser(
        "obs-report",
        help="render trace/metrics artifacts into a markdown report",
        description=(
            "Read a --trace JSONL (and optionally a --metrics exposition "
            "file) produced by serve-bench or run, and render the slowest "
            "spans, the per-scheme stage-cost breakdown and the "
            "repartition/remap timeline as markdown."
        ),
    )
    obs_cmd.add_argument(
        "--trace", metavar="PATH", default=None,
        help="trace JSONL (optional when --metrics is given)",
    )
    obs_cmd.add_argument("--metrics", metavar="PATH", default=None)
    obs_cmd.add_argument(
        "--series", metavar="PATH", default=None,
        help="also fold a time-series/SLO JSONL export into the report",
    )
    obs_cmd.add_argument("--top", type=int, default=10, help="spans per ranking")
    obs_cmd.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the report here instead of stdout",
    )

    slo_cmd = sub.add_parser(
        "slo-report",
        help="render a time-series/SLO JSONL export into a markdown report",
        description=(
            "Read the --series JSONL written by serve-bench, cluster-bench "
            "or the library exporters, and render the error-budget table, "
            "the alert timeline, burn-rate curves and capacity-retention "
            "charts as markdown."
        ),
    )
    slo_cmd.add_argument(
        "--series", metavar="PATH", required=True,
        help="time-series/SLO JSONL export (write_series_jsonl output)",
    )
    slo_cmd.add_argument(
        "--top", type=int, default=10, help="counter series in the top table"
    )
    slo_cmd.add_argument("--title", default="SLO report")
    slo_cmd.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the report here instead of stdout",
    )

    cluster_cmd = sub.add_parser(
        "cluster-bench",
        help="drive the multi-tenant cluster with a deterministic load harness",
        description=(
            "Place tenant keys on a cluster of memory arrays behind a "
            "consistent-hash ring, drive a weighted multi-tenant schedule "
            "with QoS admission control, optionally drain one array "
            "mid-run (live migration drill), and audit read-after-write "
            "integrity end to end.  The audit and snapshot digests are "
            "bit-identical for every --workers / --engine value."
        ),
    )
    cluster_cmd.add_argument("--ops", type=int, default=2000, help="total operations")
    cluster_cmd.add_argument("--arrays", type=int, default=3, help="arrays in the cluster")
    cluster_cmd.add_argument(
        "--tenants", type=int, default=4,
        help="tenant count (even indices interactive, odd bulk)",
    )
    cluster_cmd.add_argument("--seed", type=int, default=2013)
    cluster_cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="workers for stream pre-generation (never changes the numbers)",
    )
    cluster_cmd.add_argument(
        "--engine", choices=("auto", "vector", "scalar"), default="auto",
        help="write-drain path per array (results are bit-identical either way)",
    )
    cluster_cmd.add_argument(
        "--fault-model",
        choices=("hard", "partial", "drift"),
        default="hard",
        help="cell fault statistics every array wears under "
        "(see 'run --fault-model' and docs/fault_models.md)",
    )
    cluster_cmd.add_argument(
        "--policy",
        choices=("fixed", "adaptive"),
        default="fixed",
        help="per-block scheme policy on every array ('adaptive' enables "
        "the policy engine; digests stay engine/worker invariant)",
    )
    cluster_cmd.add_argument("--scheme", choices=SERVICE_SCHEMES, default="aegis-9x61")
    cluster_cmd.add_argument(
        "--tenant-addresses", type=int, default=32, help="address space per tenant"
    )
    cluster_cmd.add_argument(
        "--addresses", type=int, default=64, help="logical addresses per array"
    )
    cluster_cmd.add_argument("--spares", type=int, default=16, help="spare blocks per array")
    cluster_cmd.add_argument("--buffer", type=int, default=8, help="write-buffer entries")
    cluster_cmd.add_argument(
        "--watermark", type=float, default=0.75,
        help="buffer occupancy fraction closing bulk admission",
    )
    cluster_cmd.add_argument(
        "--endurance", type=float, default=150.0,
        help="mean cell endurance in writes (small, so wear-out happens in-run)",
    )
    cluster_cmd.add_argument(
        "--degrade-at", type=int, default=0, metavar="STEP",
        help="drain --degrade-array after this schedule step (0 disables)",
    )
    cluster_cmd.add_argument("--degrade-array", type=int, default=0, metavar="INDEX")
    cluster_cmd.add_argument(
        "--degrade-threshold", type=int, default=None, metavar="FAULTS",
        help="per-block fault count at which health degrades (default: "
        "one below the scheme's hard limit; lower values widen the "
        "window the alert/pressure migration sweeps act on)",
    )
    cluster_cmd.add_argument(
        "--maintenance-interval", type=int, default=16, metavar="STEPS",
        help="schedule steps between control-plane passes",
    )
    cluster_cmd.add_argument(
        "--series-bucket", type=int, default=None, metavar="OPS",
        help="op-clock bucket width for the cluster time series "
        "(default: the maintenance interval; 0 disables series and SLOs)",
    )
    cluster_cmd.add_argument(
        "--series", metavar="PATH", default=None,
        help="export the time series plus SLO verdicts/alerts as JSONL "
        "(the `repro slo-report` input)",
    )
    cluster_cmd.add_argument(
        "--check", action="store_true",
        help="re-run with different workers and the flipped engine and "
        "fail unless both digests are bit-identical (CI smoke mode)",
    )
    cluster_cmd.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the deterministic snapshot as JSON",
    )
    cluster_cmd.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export the labeled metrics registry in Prometheus text format",
    )
    cluster_cmd.add_argument(
        "--telemetry-jsonl", metavar="PATH", default=None,
        help="write the merged event log + final snapshot as JSONL",
    )

    fleet_cmd = sub.add_parser(
        "fleet-bench",
        help="stream a fleet-scale aging campaign with shard-side reduction",
        description=(
            "Run a streaming fleet campaign: pages fan out over a warm "
            "persistent worker pool under a bounded in-flight window, "
            "workers fold chunks into compact moment/histogram shards "
            "(O(aggregate) IPC instead of O(pages)), and the parent "
            "merges in deterministic chunk order.  The campaign digest "
            "is bit-identical for every --workers / --engine value and "
            "across --checkpoint kill/resume."
        ),
    )
    fleet_cmd.add_argument(
        "--schemes", default=",".join(("aegis-9x61", "ecp6", "safer64")),
        help="comma-separated campaign scheme keys (see repro.fleet.FLEET_SCHEMES)",
    )
    fleet_cmd.add_argument(
        "--pages", type=int, default=256, help="pages per scheme"
    )
    fleet_cmd.add_argument("--blocks", type=int, default=8, help="blocks per page")
    fleet_cmd.add_argument("--block-bits", type=int, default=512, choices=(256, 512))
    fleet_cmd.add_argument(
        "--chunk-pages", type=int, default=64,
        help="pages per worker chunk (bigger chunks amortise the shard "
        "overhead: the shard is constant-size, so the IPC reduction "
        "ratio scales with this)",
    )
    fleet_cmd.add_argument("--seed", type=int, default=2013)
    fleet_cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (never changes the campaign digest)",
    )
    fleet_cmd.add_argument(
        "--engine", choices=("auto", "vector", "scalar"), default="auto",
        help="simulation path per chunk (digest-identical either way)",
    )
    fleet_cmd.add_argument(
        "--fault-model",
        choices=("hard", "partial", "drift"),
        default="hard",
        help="cell fault statistics the campaign ages under "
        "(see 'run --fault-model' and docs/fault_models.md)",
    )
    fleet_cmd.add_argument(
        "--wear-policy",
        default="perfect",
        help="comma-separated wear-leveling policies as a grid dimension "
        "(perfect, none, start-gap, security-refresh); each scheme is "
        "aged once per policy and non-default policies are folded into "
        "the campaign config digest",
    )
    fleet_cmd.add_argument(
        "--endurance", type=float, default=None, metavar="WRITES",
        help="mean cell endurance (default: the paper's 1e8)",
    )
    fleet_cmd.add_argument(
        "--cov", type=float, default=None,
        help="endurance coefficient of variation (default: the paper's 0.25)",
    )
    fleet_cmd.add_argument(
        "--retention-age", type=float, default=None, metavar="WRITES",
        help="page-write age defining retention (default: 0.25x the "
        "characteristic lifetime scale)",
    )
    fleet_cmd.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="JSONL checkpoint file, written atomically every "
        "--checkpoint-interval chunks (enables --resume)",
    )
    fleet_cmd.add_argument(
        "--checkpoint-interval", type=int, default=8, metavar="CHUNKS",
        help="chunks between checkpoints",
    )
    fleet_cmd.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint (refused if the campaign "
        "parameters or seed differ from the checkpoint's)",
    )
    fleet_cmd.add_argument(
        "--stop-after-chunks", type=int, default=0, metavar="N",
        help="stop cleanly after N chunks, writing a checkpoint "
        "(0 disables; the in-process kill drill)",
    )
    fleet_cmd.add_argument(
        "--kill-after-checkpoints", type=int, default=0, metavar="N",
        help="SIGKILL this process right after the Nth checkpoint lands "
        "(0 disables; the CI crash drill — resume afterwards and the "
        "digest must match an uninterrupted run)",
    )
    fleet_cmd.add_argument(
        "--check", action="store_true",
        help="re-run with workers 2 and 4 and the flipped engine and fail "
        "unless every campaign digest is bit-identical (CI smoke mode)",
    )
    fleet_cmd.add_argument(
        "--series", metavar="PATH", default=None,
        help="export the retention time series plus SLO verdicts/alerts "
        "as JSONL (the `repro slo-report` input)",
    )
    fleet_cmd.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the campaign report (digest, per-scheme rows, IPC "
        "accounting) as JSON",
    )
    fleet_cmd.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export the campaign metrics registry in Prometheus text format",
    )

    serve_front = sub.add_parser(
        "serve",
        help="serve the multi-tenant cluster over an asyncio JSON-lines front-end",
        description=(
            "Start the asyncio front-end: per-tenant sessions over TCP "
            "(JSON lines), QoS admission with bounded bulk queues, and a "
            "background control plane doing watermark flushes and live "
            "migration.  --selftest drives every tenant over a loopback "
            "client and exits."
        ),
    )
    serve_front.add_argument("--host", default="127.0.0.1")
    serve_front.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (printed on start)"
    )
    serve_front.add_argument("--arrays", type=int, default=3)
    serve_front.add_argument("--tenants", type=int, default=4)
    serve_front.add_argument("--scheme", choices=SERVICE_SCHEMES, default="aegis-9x61")
    serve_front.add_argument("--addresses", type=int, default=64)
    serve_front.add_argument("--spares", type=int, default=16)
    serve_front.add_argument("--buffer", type=int, default=8)
    serve_front.add_argument("--seed", type=int, default=2013)
    serve_front.add_argument("--endurance", type=float, default=150.0)
    serve_front.add_argument(
        "--series-bucket", type=int, default=16, metavar="OPS",
        help="op-clock bucket width for the cluster time series feeding "
        "`stats`/`watch` and the SLO-driven control plane (0 disables)",
    )
    serve_front.add_argument(
        "--selftest", action="store_true",
        help="drive every tenant over a loopback session, verify "
        "read-your-writes, print the summary, and exit",
    )
    serve_front.add_argument(
        "--selftest-ops", type=int, default=16, metavar="N",
        help="loopback operations per tenant in --selftest",
    )
    return parser


def _cmd_list() -> int:
    from repro.experiments import all_experiment_ids

    for experiment_id in all_experiment_ids():
        print(experiment_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import all_experiment_ids, run_experiment
    from repro.obs import (
        MetricsRegistry,
        Profiler,
        Tracer,
        set_metrics,
        set_profiler,
        set_tracer,
    )
    from repro.sim.context import ExecContext

    wanted = args.experiments
    if wanted == ["all"]:
        wanted = all_experiment_ids()
    # the one place the execution plane is assembled: every --seed/--workers/
    # --engine/--trace/--metrics/--profile flag (and any future ExecContext
    # field with a same-named CLI flag) reaches every driver through this ctx
    ctx = ExecContext.from_args(args)
    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics else None
    profiler = Profiler() if args.profile else None
    if tracer is not None:
        set_tracer(tracer)
    if registry is not None:
        set_metrics(registry)
    if profiler is not None:
        set_profiler(profiler)
    results = []
    for experiment_id in wanted:
        start = time.time()
        result = run_experiment(
            experiment_id,
            ctx=ctx,
            n_pages=args.pages,
            trials=args.trials,
            block_bits=args.block_bits,
        )
        results.append(result)
        print(result.render())
        if args.chart:
            chart = result.render_chart()
            if chart is not None:
                print(chart)
        print(f"[{experiment_id} in {time.time() - start:.1f}s]\n")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([r.to_dict() for r in results], handle, indent=2)
        print(f"wrote {len(results)} result(s) to {args.json}")
    if tracer is not None:
        lines = tracer.write_jsonl(args.trace)
        print(f"wrote {lines} trace line(s) to {args.trace}")
    if registry is not None:
        lines = registry.write_prometheus(args.metrics)
        print(f"wrote {lines} metric line(s) to {args.metrics}")
    if profiler is not None:
        _print_profile(profiler.report())
    return 0


def _print_profile(report: dict) -> None:
    from repro.util.tables import render_table

    if not report:
        print("(no profiled phases)")
        return
    print(
        render_table(
            ("Phase", "Seconds", "Calls", "Mean ms"),
            [
                (name, entry["seconds"], entry["calls"], entry["mean_ms"])
                for name, entry in report.items()
            ],
            title="## Wall-clock profile (informational, not deterministic)",
        )
    )


def _cmd_demo() -> int:
    from repro import AegisScheme, CellArray, formation, roundtrip

    rng = np.random.default_rng(7)
    cells = CellArray(512)
    offsets = rng.choice(512, size=6, replace=False)
    for offset in offsets:
        cells.inject_fault(int(offset), stuck_value=int(rng.integers(0, 2)))
    scheme = AegisScheme(cells, formation(9, 61, 512))
    print(f"injected {cells.fault_count} stuck-at faults at offsets "
          f"{sorted(int(o) for o in offsets)}")
    successes = sum(
        roundtrip(scheme, rng.integers(0, 2, 512, dtype=np.uint8)) for _ in range(100)
    )
    print(f"{scheme.name}: {successes}/100 random writes stored and read back "
          f"exactly (slope counter settled at {scheme.slope})")
    return 0


def _cmd_check() -> int:
    from repro.core.formations import (
        aegis_cost_for_ftc,
        ecp_cost_for_ftc,
        safer_cost_for_ftc,
        standard_formations,
    )
    from repro.core.geometry import rectangle_for, verify_theorem1, verify_theorem2

    failures = 0
    print("Theorem 1 (every slope partitions the block):")
    for rect in (rectangle_for(32, 7), rectangle_for(64, 11), rectangle_for(48, 7)):
        ok = all(verify_theorem1(rect, k) for k in range(rect.b_size))
        failures += not ok
        print(f"  {rect}: {'ok' if ok else 'FAILED'}")
    print("Theorem 2 (one collision slope per bit pair):")
    for rect in (rectangle_for(32, 7), rectangle_for(64, 11)):
        ok = verify_theorem2(rect)
        failures += not ok
        print(f"  {rect}: {'ok' if ok else 'FAILED'}")
    print("Production formations (A = ceil(n/B), A <= B, B prime):")
    for n_bits in (512, 256):
        names = ", ".join(f.name for f in standard_formations(n_bits))
        print(f"  {n_bits}-bit: {names}: ok")
    print("Table 1 spot checks against the paper:")
    checks = [
        ("Aegis FTC 8 = 34 bits", aegis_cost_for_ftc(8) == 34),
        ("SAFER FTC 7 = 91 bits", safer_cost_for_ftc(7) == 91),
        ("ECP FTC 6 = 61 bits", ecp_cost_for_ftc(6) == 61),
    ]
    for label, ok in checks:
        failures += not ok
        print(f"  {label}: {'ok' if ok else 'FAILED'}")
    print("all checks passed" if not failures else f"{failures} check(s) FAILED")
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report
    from repro.sim.context import ExecContext

    size = write_report(
        args.output,
        args.experiments or None,
        pages=args.pages,
        trials=args.trials,
        block_bits=args.block_bits,
        with_charts=not args.no_charts,
        ctx=ExecContext.from_args(args),
    )
    print(f"wrote {args.output} ({size} bytes)")
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    from repro.pcm.cell import CellArray
    from repro.sim.roster import (
        figure5_roster,
        figure8_roster,
        hamming_spec,
        no_protection_spec,
        variants_roster,
    )
    from repro.util.tables import render_table

    n_bits = args.block_bits
    seen: dict[str, object] = {}
    rosters = [figure5_roster(n_bits)]
    if n_bits == 512:  # the variant formations are defined for 512-bit rows
        rosters.append(variants_roster(n_bits))
        rosters.append(figure8_roster(n_bits))
    for roster in rosters:
        for spec in roster:
            seen.setdefault(spec.key, spec)
    for spec in (hamming_spec(n_bits), no_protection_spec(n_bits)):
        seen.setdefault(spec.key, spec)
    rows = []
    for spec in sorted(seen.values(), key=lambda s: (s.overhead_bits, s.label)):
        controller = spec.make_controller(CellArray(n_bits))
        hard_ftc = getattr(controller, "hard_ftc", "-")
        rows.append(
            (
                spec.label,
                spec.overhead_bits,
                f"{100 * spec.overhead_fraction:.1f}%",
                hard_ftc,
                "yes" if spec.inversion_wear else "no",
            )
        )
    print(
        render_table(
            ("Scheme", "Overhead bits", "Overhead %", "Hard FTC", "Inversion wear"),
            rows,
            title=f"## Evaluated scheme configurations ({n_bits}-bit blocks)",
        )
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.pcm.lifetime import NormalLifetime
    from repro.service import run_load
    from repro.service.telemetry import DEFAULT_EVENT_CAP
    from repro.sim.context import ExecContext
    from repro.util.tables import render_table

    spec = _service_spec(args.scheme)
    ctx = ExecContext.from_args(args)
    workload_params = {"alpha": args.alpha} if args.workload == "zipf" else None
    series_bucket = args.series_bucket
    if args.series and not series_bucket:
        series_bucket = 16
    report = run_load(
        spec,
        ops=args.ops,
        seed=ctx.seed,
        shards=args.shards,
        workers=ctx.workers,
        n_addresses=args.addresses,
        spares=args.spares,
        workload=args.workload,
        workload_params=workload_params,
        lifetime_model=NormalLifetime(mean_lifetime=args.endurance),
        read_fraction=args.read_fraction,
        buffer_capacity=args.buffer,
        proactive_migration=args.proactive_migration,
        snapshot_interval=args.snapshot_interval,
        engine=ctx.engine,
        fault_model=args.fault_model,
        policy=args.policy,
        trace_sample=(args.trace_sample if args.trace else 0),
        event_cap=(args.event_cap if args.event_cap is not None else DEFAULT_EVENT_CAP),
        profile=args.profile,
        series_bucket=series_bucket,
    )
    snapshot = report.snapshot
    counters = snapshot["counters"]
    capacity = snapshot["capacity"]
    print(
        f"served {report.ops} ops over {report.shards} shard(s) with "
        f"{report.workers} worker(s) (engine {ctx.engine}) in "
        f"{report.elapsed:.2f}s ({report.ops_per_second:,.0f} ops/s)"
    )
    print(
        f"scheme {spec.label}: service cost "
        f"{snapshot['service_cost']['mean']:.1f} cells/write, latency "
        f"{snapshot['latency']['mean']:.2f} passes/write"
    )
    print(
        render_table(
            ("Counter", "Value"),
            sorted(counters.items()),
            title="## Final telemetry counters (worker-count invariant)",
        )
    )
    print(
        render_table(
            ("Capacity", "Value"),
            sorted(capacity.items()),
            title="## Capacity / health",
        )
    )
    failures = counters.get("integrity_failures", 0)
    print(
        "read-after-write integrity: "
        + ("ok" if failures == 0 else f"{failures} FAILURE(S)")
        + f" ({counters.get('integrity_checked', 0)} addresses audited)"
    )
    if args.telemetry_jsonl:
        lines = report.write_telemetry_jsonl(args.telemetry_jsonl)
        print(f"wrote {lines} telemetry line(s) to {args.telemetry_jsonl}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
        print(f"wrote snapshot to {args.json}")
    if args.trace:
        lines = report.write_trace_jsonl(args.trace)
        print(f"wrote {lines} trace line(s) to {args.trace}")
    if args.metrics:
        lines = report.write_metrics(args.metrics)
        print(f"wrote {lines} metric line(s) to {args.metrics}")
    if args.series:
        from repro.obs.slo import default_service_slos, write_slo_jsonl

        lines = write_slo_jsonl(
            args.series, report.telemetry.timeseries, default_service_slos()
        )
        print(f"wrote {lines} series line(s) to {args.series}")
    if args.profile:
        _print_profile(report.profile)
    return 1 if failures else 0


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import run_cluster_bench
    from repro.pcm.lifetime import NormalLifetime
    from repro.sim.context import ExecContext
    from repro.util.tables import render_table

    spec = _service_spec(args.scheme)
    ctx = ExecContext.from_args(args)
    kwargs = dict(
        ops=args.ops,
        n_arrays=args.arrays,
        tenants=args.tenants,
        seed=ctx.seed,
        tenant_addresses=args.tenant_addresses,
        n_addresses=args.addresses,
        spares=args.spares,
        buffer_capacity=args.buffer,
        bulk_watermark=args.watermark,
        lifetime_model=NormalLifetime(mean_lifetime=args.endurance),
        maintenance_interval=args.maintenance_interval,
        degrade_at=args.degrade_at,
        degrade_array=args.degrade_array,
        degrade_threshold=args.degrade_threshold,
        fault_model=args.fault_model,
        policy=args.policy,
        series_bucket=args.series_bucket,
    )
    report = run_cluster_bench(spec, engine=ctx.engine, workers=ctx.workers, **kwargs)
    print(
        f"cluster-bench: {report.ops} ops over {args.arrays} array(s) / "
        f"{args.tenants} tenant(s) in {report.elapsed:.2f}s "
        f"({report.ops_per_second:,.0f} ops/s, engine {ctx.engine})"
    )
    print(f"audit digest:    {report.audit_digest}")
    print(f"snapshot digest: {report.snapshot_digest}")
    rows = [
        (
            tenant,
            row["qos"],
            row["writes"],
            row["reads"],
            row["backpressure"],
            row["keys"],
            row["dead_keys"],
            row["stage_cost_p50"],
            row["stage_cost_p99"],
        )
        for tenant, row in report.per_tenant.items()
    ]
    print(
        render_table(
            ("Tenant", "QoS", "Writes", "Reads", "Backpressure", "Keys",
             "Dead", "p50 cost", "p99 cost"),
            rows,
            title="## Per-tenant SLO summary (worker/engine invariant)",
        )
    )
    arrays = report.snapshot["arrays"]
    print(
        render_table(
            ("Array", "Draining", "Keys", "Live addrs", "Free blocks", "Degraded", "Retired"),
            [
                (
                    row["array"],
                    "yes" if row["draining"] else "no",
                    row["resident_keys"],
                    row["live_addresses"],
                    row["free_blocks"],
                    row["blocks_degraded"],
                    row["blocks_retired"],
                )
                for row in arrays
            ],
            title="## Per-array capacity / health",
        )
    )
    slo = report.snapshot.get("slo")
    if slo:
        print(
            render_table(
                ("SLO", "Kind", "Objective", "Events", "Bad", "Budget left",
                 "Alerts", "Action"),
                [
                    (
                        name,
                        entry["kind"],
                        entry["objective"],
                        entry["events"],
                        entry["bad"],
                        f"{entry['budget_left_fraction']:.3f}",
                        len(entry["alerts"]),
                        entry["action"] or "-",
                    )
                    for name, entry in slo["slos"].items()
                ],
                title="## SLO / error-budget summary (worker/engine invariant)",
            )
        )
        metrics = report.telemetry.metrics
        print(
            f"SLO alerts: {metrics.counter_total('slo_alerts_total')} fired, "
            f"{metrics.counter_total('migrations_total', kind='alert')} "
            f"alert-driven migration(s)"
        )
    audit = report.snapshot["audit"]
    print(
        f"read-after-write audit: "
        + ("ok" if report.audit_failures == 0 else f"{report.audit_failures} FAILURE(S)")
        + f" ({audit['checked']} keys checked, {audit['dead_keys']} dead, "
        f"{audit['retries']} backpressure retries)"
    )
    failed = report.audit_failures > 0
    if args.check:
        alt_workers = 2 if (report.workers or 1) == 1 else 1
        alt_engine = "vector" if ctx.engine == "scalar" else "scalar"
        for label, check_kwargs in (
            (f"workers={alt_workers}", dict(engine=ctx.engine, workers=alt_workers)),
            (f"engine={alt_engine}", dict(engine=alt_engine, workers=ctx.workers)),
        ):
            other = run_cluster_bench(spec, **check_kwargs, **kwargs)
            same = (
                other.audit_digest == report.audit_digest
                and other.snapshot_digest == report.snapshot_digest
            )
            print(f"determinism check [{label}]: {'ok' if same else 'MISMATCH'}")
            failed = failed or not same
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.snapshot, handle, indent=2, sort_keys=True)
        print(f"wrote snapshot to {args.json}")
    if args.metrics:
        lines = report.write_metrics(args.metrics)
        print(f"wrote {lines} metric line(s) to {args.metrics}")
    if args.telemetry_jsonl:
        lines = report.write_telemetry_jsonl(args.telemetry_jsonl)
        print(f"wrote {lines} telemetry line(s) to {args.telemetry_jsonl}")
    if args.series:
        lines = report.write_series_jsonl(args.series)
        print(f"wrote {lines} series line(s) to {args.series}")
    return 1 if failed else 0


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import CampaignSpec, run_campaign
    from repro.sim.context import ExecContext
    from repro.util.tables import render_table

    schemes = tuple(name.strip() for name in args.schemes.split(",") if name.strip())
    wear_policies = tuple(
        name.strip() for name in args.wear_policy.split(",") if name.strip()
    )
    spec = CampaignSpec(
        schemes=schemes,
        pages_per_scheme=args.pages,
        blocks_per_page=args.blocks,
        block_bits=args.block_bits,
        chunk_pages=args.chunk_pages,
        mean_endurance=args.endurance,
        endurance_cov=args.cov,
        retention_age=args.retention_age,
        wear_policies=wear_policies,
        fault_model=args.fault_model,
    )
    ctx = ExecContext.from_args(args)
    report = run_campaign(
        spec,
        ctx,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        resume=args.resume,
        stop_after_chunks=args.stop_after_chunks or None,
        kill_after_checkpoints=args.kill_after_checkpoints or None,
    )
    print(
        f"fleet-bench: {report.pages} pages / {len(schemes)} scheme(s) in "
        f"{report.elapsed:.2f}s ({report.pages_per_second:,.0f} pages/s, "
        f"engine {ctx.engine})"
    )
    print(f"campaign digest: {report.digest}")
    if report.resumed_from is not None:
        print(
            f"resumed from checkpoint cursor "
            f"(scheme {report.resumed_from[0]}, chunk {report.resumed_from[1]})"
        )
    if not report.completed:
        print(
            f"stopped early at cursor (scheme {report.cursor[0]}, "
            f"chunk {report.cursor[1]}); checkpoint written — resume with "
            f"--resume --checkpoint {args.checkpoint}"
        )
    if report.aggregate.shard_bytes:
        print(
            f"IPC: {report.aggregate.shard_bytes:,} shard bytes vs "
            f"{report.aggregate.result_bytes:,} full-result bytes "
            f"({report.reduction_ratio:.1f}x reduction)"
        )
    rows = [
        (
            row["scheme"],
            row["pages"],
            f"{row['lifetime_mean']:.4g}",
            round(row["improvement_mean"], 2),
            f"{100 * row['retention']:.1f}",
            round(row["faults_recovered_mean"], 1),
        )
        for row in report.rows()
    ]
    print(
        render_table(
            ("Scheme", "Pages", "Lifetime (writes)", "Improvement x",
             "Retention %", "Faults recovered"),
            rows,
            title="## Fleet capacity retention (worker/engine invariant)",
        )
    )
    failed = False
    if args.check and report.completed:
        alt_engine = "vector" if ctx.engine == "scalar" else "scalar"
        drills = [
            ("workers=2", ctx.with_options(workers=2)),
            ("workers=4", ctx.with_options(workers=4)),
            (f"engine={alt_engine}", ctx.with_options(engine=alt_engine)),
        ]
        for label, other_ctx in drills:
            other = run_campaign(spec, other_ctx)
            same = other.digest == report.digest
            print(f"determinism check [{label}]: {'ok' if same else 'MISMATCH'}")
            failed = failed or not same
    if args.series:
        lines = report.write_series(args.series)
        print(f"wrote {lines} series line(s) to {args.series}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote campaign report to {args.json}")
    if args.metrics:
        lines = report.registry.write_prometheus(args.metrics)
        print(f"wrote {lines} metric line(s) to {args.metrics}")
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import (
        ClusterFrontend,
        ClusterService,
        default_tenants,
        loopback_selftest,
    )
    from repro.pcm.lifetime import NormalLifetime

    cluster = ClusterService(
        args.arrays,
        _service_spec(args.scheme),
        n_addresses=args.addresses,
        spares=args.spares,
        seed=args.seed,
        buffer_capacity=args.buffer,
        lifetime_model=NormalLifetime(mean_lifetime=args.endurance),
        series_bucket=args.series_bucket,
    )
    for tenant in default_tenants(args.tenants):
        cluster.register_tenant(tenant)
    if args.selftest:
        summary = asyncio.run(
            loopback_selftest(cluster, ops_per_tenant=args.selftest_ops, seed=args.seed)
        )
        print(
            f"loopback selftest: {summary['writes']} writes "
            f"({summary['queued']} queued, {summary['backpressured']} "
            f"backpressured), {summary['reads']} reads, "
            f"{summary['mismatches']} mismatch(es)"
        )
        return 1 if summary["mismatches"] else 0

    async def _serve() -> None:
        frontend = ClusterFrontend(cluster, host=args.host, port=args.port)
        await frontend.start()
        tenants = ", ".join(spec.tenant_id for spec in cluster.tenants)
        print(f"serving {args.arrays} array(s) for tenants [{tenants}]")
        print(f"listening on {frontend.host}:{frontend.port} (JSON lines; Ctrl-C stops)")
        try:
            await frontend.serve_forever()
        finally:
            await frontend.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import render_obs_report, write_obs_report

    if args.trace is None and args.metrics is None and args.series is None:
        print("obs-report needs --trace, --metrics and/or --series", file=sys.stderr)
        return 2
    if args.output:
        write_obs_report(
            args.output, args.trace, metrics_path=args.metrics,
            series_path=args.series, top=args.top,
        )
        print(f"wrote observability report to {args.output}")
    else:
        print(
            render_obs_report(
                args.trace, metrics_path=args.metrics,
                series_path=args.series, top=args.top,
            )
        )
    return 0


def _cmd_slo_report(args: argparse.Namespace) -> int:
    from repro.obs import render_slo_report, write_slo_report

    if args.output:
        write_slo_report(
            args.output, args.series, top=args.top, title=args.title
        )
        print(f"wrote SLO report to {args.output}")
    else:
        print(render_slo_report(args.series, top=args.top, title=args.title))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "check":
        return _cmd_check()
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "schemes":
        return _cmd_schemes(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "cluster-bench":
        return _cmd_cluster_bench(args)
    if args.command == "fleet-bench":
        return _cmd_fleet_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "obs-report":
        return _cmd_obs_report(args)
    if args.command == "slo-report":
        return _cmd_slo_report(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
