"""Command-line interface: ``aegis-repro`` (or ``python -m repro``);
``aegis-repro --help`` lists the subcommands.

A flag shared by several subcommands is declared once, by one of the
``_add_*`` helpers; every export flag is written by :func:`_write_exports`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable, Sequence
from functools import partial
from operator import attrgetter

import numpy as np

from repro.sim.context import ENGINE_CHOICES, FAULT_MODEL_CHOICES, ExecContext
from repro.sim.roster import SchemeSpec
from repro.util.tables import render_table


def _add_exec_flags(
    cmd: argparse.ArgumentParser,
    *,
    workers: str = "worker processes (default: all CPU cores; never changes the results)",
    engine: str = "execution path, 'auto' (default) or 'scalar'; results are "
    "bit-identical either way (see 'run --engine')",
    fault_model: str = "cell fault statistics "
    "(see 'run --fault-model' and docs/fault_models.md)",
    seed: str | None = None,
) -> None:
    """Declare the :class:`~repro.sim.context.ExecContext` flags
    (``--seed/--workers/--engine/--fault-model``) on ``cmd``; a
    subcommand passes a help text to say more than the default."""
    cmd.add_argument("--seed", type=int, default=2013, help=seed)
    cmd.add_argument("--workers", type=int, default=None, metavar="N", help=workers)
    cmd.add_argument("--engine", choices=ENGINE_CHOICES, default="auto", help=engine)
    cmd.add_argument(
        "--fault-model", choices=FAULT_MODEL_CHOICES, default="hard", help=fault_model
    )


def _study_size(text: str) -> int:
    """argparse type of a Monte Carlo study size: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_block_bits(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--block-bits", type=int, default=512, choices=(256, 512))


def _add_service_flags(
    cmd: argparse.ArgumentParser, *, unit: str, series_bucket: int | None, series_help: str
) -> None:
    """Declare the memory-array flags of serve-bench, cluster-bench and
    serve (``--scheme/--addresses/--spares/--buffer/--endurance/
    --series-bucket``); ``unit`` names what one array backs and only the
    ``--series-bucket`` default differs between the commands.  The
    schemes are keys of :data:`repro.fleet.campaign.FLEET_SCHEMES`."""
    schemes = ("aegis-9x61", "aegis-17x31", "aegis-rw-9x61", "ecp6", "safer64")
    cmd.add_argument("--scheme", choices=schemes, default="aegis-9x61")
    cmd.add_argument("--addresses", type=int, default=64, help=f"logical addresses per {unit}")
    cmd.add_argument("--spares", type=int, default=16, help=f"spare blocks per {unit}")
    cmd.add_argument("--buffer", type=int, default=8, help="write-buffer entries")
    cmd.add_argument(
        "--endurance", type=float, default=150.0,
        help="mean cell endurance in writes (small, so wear-out happens in-run)",
    )
    cmd.add_argument(
        "--series-bucket", type=int, default=series_bucket, metavar="OPS", help=series_help
    )


def _add_policy_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--policy",
        choices=("fixed", "adaptive"),
        default="fixed",
        help="per-block scheme policy: 'adaptive' lets the policy engine "
        "re-encode worn blocks onto stronger schemes "
        "(policy_switches_total{from,to} in the metrics export)",
    )


def _add_tenant_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--arrays", type=int, default=3, help="arrays in the cluster")
    cmd.add_argument(
        "--tenants", type=int, default=4,
        help="tenant count (even indices interactive, odd bulk)",
    )


#: help of each export flag; a subcommand passes its own text to reword one
EXPORT_HELP = {
    "json": "write the deterministic snapshot as JSON",
    "metrics": "export the labeled metrics registry in Prometheus text format",
    "telemetry_jsonl": "write the merged event log + final snapshot as JSONL",
    "trace": "export sampled write-path span trees as JSONL "
    "(bit-identical for every --workers value)",
    "series": "export the time series plus SLO verdicts/alerts as JSONL "
    "(the `repro obs-report --series` input)",
}


def _add_export_flags(cmd: argparse.ArgumentParser, *flags: str, **helps: str) -> None:
    """Declare the ``--json/--metrics/--telemetry-jsonl/--trace/--series``
    artifact paths named by destination, with :data:`EXPORT_HELP` unless
    ``helps`` rewords one; :func:`_write_exports` writes them (obs-report
    reads them instead)."""
    for dest in (*flags, *helps):
        cmd.add_argument(
            "--" + dest.replace("_", "-"), metavar="PATH", default=None,
            help=helps.get(dest, EXPORT_HELP[dest]),
        )


def _write_exports(args: argparse.Namespace, **writers: Callable[[str], int]) -> None:
    """The export tail of every subcommand: call the writer (path ->
    line count) of each export flag that was given, keyed by its
    destination, and report the file."""
    for dest, write in writers.items():
        path = getattr(args, dest)
        if path:
            print(f"wrote {write(path)} line(s) to {path}")


def _write_json(path: str, doc: object, sort_keys: bool = True) -> int:
    text = json.dumps(doc, indent=2, sort_keys=sort_keys)
    with open(path, "w") as handle:
        handle.write(text)
    return text.count("\n") + 1


def _add_check_flag(cmd: argparse.ArgumentParser, workers: str) -> None:
    cmd.add_argument(
        "--check", action="store_true",
        help=f"re-run with {workers} and the flipped engine and fail unless "
        "every digest is bit-identical (CI smoke mode)",
    )


def _determinism_drill(
    ctx: ExecContext,
    rerun: Callable[[ExecContext], object],
    digest: Callable[[object], object],
    expected: object,
    workers: tuple[int, ...],
) -> bool:
    """The ``--check`` drill of cluster-bench and fleet-bench: re-run at
    each of ``workers`` and on the flipped engine, print one verdict per
    re-run, and return whether every re-run's ``digest`` is ``expected``."""
    flipped = "auto" if ctx.engine == "scalar" else "scalar"
    reruns = {f"workers={count}": ctx.with_options(workers=count) for count in workers}
    reruns[f"engine={flipped}"] = ctx.with_options(engine=flipped)
    failures = 0
    for label, other in reruns.items():
        same = digest(rerun(other)) == expected
        print(f"determinism check [{label}]: {'ok' if same else 'MISMATCH'}")
        failures += not same
    return failures == 0


def _service_array(args: argparse.Namespace, **overrides: object) -> tuple[SchemeSpec, dict]:
    """What the service-array flags stand for: the ``--scheme`` spec and
    the keyword arguments ``run_load``, ``run_cluster_bench`` and
    ``ClusterService`` take after it."""
    from repro.fleet.campaign import fleet_spec
    from repro.pcm.lifetime import NormalLifetime

    return fleet_spec(args.scheme), {
        "n_addresses": args.addresses,
        "spares": args.spares,
        "buffer_capacity": args.buffer,
        "lifetime_model": NormalLifetime(mean_lifetime=args.endurance),
        "series_bucket": args.series_bucket,
        **overrides,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aegis-repro",
        description="Reproduction of Aegis (MICRO-46, 2013) stuck-at-fault recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        handler=lambda args: _cmd_list()
    )

    run_cmd = sub.add_parser("run", help="regenerate paper tables/figures")
    run_cmd.set_defaults(handler=_cmd_run)
    run_cmd.add_argument("experiments", nargs="+", help="experiment ids or 'all'")
    run_cmd.add_argument(
        "--pages", type=_study_size, default=128, help="pages per Monte Carlo study"
    )
    run_cmd.add_argument("--trials", type=_study_size, default=2000, help="Monte Carlo trials for "
                         "the block-level studies fig8, fig10, ext-bsweep and ext-softftc")
    _add_block_bits(run_cmd)
    _add_exec_flags(
        run_cmd,
        seed="simulation seed",
        workers="worker processes for page-level Monte Carlo fan-out "
        "(default: all CPU cores; 1 disables the pool); results are "
        "bit-identical for every worker count",
        engine="Monte Carlo execution path: 'auto' (default) advances whole "
        "trial populations per numpy call whenever the scheme has a batch "
        "kernel, 'scalar' walks each trial through the incremental "
        "checkers; results are bit-identical",
        fault_model="cell fault statistics: 'hard' (default) is the paper's "
        "hard stuck-at model, 'partial' adds maskable partially-stuck "
        "cells, 'drift' clusters arrivals into resistance-drift bursts; "
        "each model is bit-identical across --workers and --engine "
        "(see docs/fault_models.md)",
    )
    run_cmd.add_argument(
        "--chart",
        action="store_true",
        help="draw each figure as a text chart below its table",
    )
    _add_export_flags(
        run_cmd,
        "metrics",
        json="also write the results as a JSON array to PATH",
        trace="export deterministic study-phase span trees as JSONL "
        "(worker-count invariant)",
    )

    sub.add_parser("demo", help="run the quickstart fault-recovery demo").set_defaults(
        handler=lambda args: _cmd_demo()
    )
    sub.add_parser(
        "check",
        help="self-verify the mathematical foundations (Theorems 1-2, Table 1)",
    ).set_defaults(handler=lambda args: _cmd_check())

    schemes_cmd = sub.add_parser(
        "schemes", help="catalogue every evaluated scheme configuration"
    )
    schemes_cmd.set_defaults(handler=_cmd_schemes)
    _add_block_bits(schemes_cmd)

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
    serve_cmd.set_defaults(handler=_cmd_serve_bench)
    serve_cmd.add_argument("--ops", type=int, default=20000, help="total operations")
    serve_cmd.add_argument(
        "--workload", choices=("uniform", "zipf", "hotcold"), default="zipf"
    )
    serve_cmd.add_argument("--alpha", type=float, default=1.0, help="Zipf exponent")
    serve_cmd.add_argument("--shards", type=int, default=4, help="independent arrays")
    _add_exec_flags(
        serve_cmd,
        engine="write-drain path: 'auto' (default) services each buffer "
        "drain as one numpy batch whenever the scheme has a service "
        "kernel, 'scalar' walks it row by row; snapshots, traces and "
        "telemetry are bit-identical either way",
    )
    _add_policy_flag(serve_cmd)
    _add_service_flags(
        serve_cmd,
        unit="shard",
        series_bucket=0,
        series_help="op-clock bucket width for per-shard time series "
        "(0 disables; implied 16 when --series is given)",
    )
    serve_cmd.add_argument("--read-fraction", type=float, default=0.25)
    serve_cmd.add_argument(
        "--snapshot-interval", type=int, default=2000,
        help="ops between periodic health-snapshot events (0 disables)",
    )
    serve_cmd.add_argument(
        "--proactive-migration", action="store_true",
        help="migrate degraded blocks to spares before rewriting them",
    )
    serve_cmd.add_argument(
        "--trace-sample", type=int, default=100, metavar="N",
        help="trace every N-th operation (failed writes are always traced)",
    )
    serve_cmd.add_argument(
        "--event-cap", type=int, default=None, metavar="N",
        help="event-log ring capacity (0 = unbounded; default 100000)",
    )
    _add_export_flags(serve_cmd, "telemetry_jsonl", "json", "trace", "metrics", "series")

    obs_cmd = sub.add_parser(
        "obs-report",
        help="render trace/metrics/series artifacts into a markdown report",
        description=(
            "Read a --trace JSONL, a --metrics exposition file and/or a "
            "--series time-series/SLO JSONL produced by run, serve-bench, "
            "cluster-bench or fleet-bench, and render the slowest spans, "
            "the per-scheme stage-cost breakdown, the repartition/remap "
            "timeline, the error-budget table, the alert timeline and the "
            "burn-rate/retention charts as markdown."
        ),
    )
    obs_cmd.set_defaults(handler=_cmd_obs_report)
    _add_export_flags(
        obs_cmd,
        trace="trace JSONL (optional when --metrics is given)",
        metrics="Prometheus text exposition file",
        series="also fold a time-series/SLO JSONL export into the report",
    )
    obs_cmd.add_argument("--top", type=int, default=10, help="spans per ranking")
    obs_cmd.add_argument("--title", default="Observability report")
    obs_cmd.add_argument(
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
    cluster_cmd.set_defaults(handler=_cmd_cluster_bench)
    cluster_cmd.add_argument("--ops", type=int, default=2000, help="total operations")
    _add_tenant_flags(cluster_cmd)
    _add_exec_flags(cluster_cmd)
    _add_policy_flag(cluster_cmd)
    cluster_cmd.add_argument(
        "--tenant-addresses", type=int, default=32, help="address space per tenant"
    )
    _add_service_flags(
        cluster_cmd,
        unit="array",
        series_bucket=None,
        series_help="op-clock bucket width for the cluster time series "
        "(default: the maintenance interval; 0 disables series and SLOs)",
    )
    cluster_cmd.add_argument(
        "--watermark", type=float, default=0.75,
        help="buffer occupancy fraction closing bulk admission",
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
    _add_check_flag(cluster_cmd, "a different worker count")
    _add_export_flags(cluster_cmd, "series", "json", "metrics", "telemetry_jsonl")

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
    fleet_cmd.set_defaults(handler=_cmd_fleet_bench)
    fleet_cmd.add_argument(
        "--schemes", default=",".join(("aegis-9x61", "ecp6", "safer64")),
        help="comma-separated campaign scheme keys (see repro.fleet.FLEET_SCHEMES)",
    )
    fleet_cmd.add_argument(
        "--pages", type=int, default=256, help="pages per scheme"
    )
    fleet_cmd.add_argument("--blocks", type=int, default=8, help="blocks per page")
    _add_block_bits(fleet_cmd)
    fleet_cmd.add_argument(
        "--chunk-pages", type=int, default=64,
        help="pages per worker chunk (bigger chunks amortise the shard "
        "overhead: the shard is constant-size, so the IPC reduction "
        "ratio scales with this)",
    )
    _add_exec_flags(fleet_cmd)
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
    _add_check_flag(fleet_cmd, "workers 2 and 4")
    _add_export_flags(
        fleet_cmd,
        "series",
        "metrics",
        json="write the campaign report (digest, per-scheme rows, IPC "
        "accounting) as JSON",
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
    serve_front.set_defaults(handler=_cmd_serve)
    serve_front.add_argument("--host", default="127.0.0.1")
    serve_front.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (printed on start)"
    )
    _add_tenant_flags(serve_front)
    serve_front.add_argument("--seed", type=int, default=2013)
    _add_service_flags(
        serve_front,
        unit="array",
        series_bucket=16,
        series_help="op-clock bucket width for the cluster time series feeding "
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
    from repro.experiments import all_experiment_ids, run_experiment
    from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
    from repro.obs import set_metrics, set_tracer

    wanted = args.experiments
    if wanted == ["all"]:
        wanted = all_experiment_ids()
    # the one place the execution plane is assembled: every --seed/--workers/
    # --engine/--fault-model flag (and any future ExecContext field with a
    # same-named CLI flag) reaches every driver through this ctx; tracing
    # and metrics go through the process-global sinks below, which are
    # restored afterwards so an in-process caller keeps its own
    ctx = ExecContext.from_args(args)
    previous = get_tracer(), get_metrics()
    if args.trace:
        set_tracer(Tracer())
    if args.metrics:
        set_metrics(MetricsRegistry())
    try:
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
        _write_exports(
            args,
            json=lambda path: _write_json(path, [r.to_dict() for r in results], False),
            trace=lambda path: get_tracer().write_jsonl(path),
            metrics=lambda path: get_metrics().write_prometheus(path),
        )
    finally:
        set_tracer(previous[0])
        set_metrics(previous[1])
    return 0


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


def _cmd_schemes(args: argparse.Namespace) -> int:
    from repro.pcm.cell import CellArray
    from repro.sim.roster import (
        figure5_roster,
        figure8_roster,
        hamming_spec,
        no_protection_spec,
        variants_roster,
    )

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
    from repro.obs.slo import write_slo_jsonl
    from repro.service import run_load
    from repro.service.telemetry import DEFAULT_EVENT_CAP

    spec, array_kwargs = _service_array(
        args, series_bucket=args.series_bucket or (16 if args.series else 0)
    )
    ctx = ExecContext.from_args(args)
    workload_params = {"alpha": args.alpha} if args.workload == "zipf" else None
    report = run_load(
        spec,
        ops=args.ops,
        seed=ctx.seed,
        shards=args.shards,
        workers=ctx.workers,
        workload=args.workload,
        workload_params=workload_params,
        read_fraction=args.read_fraction,
        proactive_migration=args.proactive_migration,
        snapshot_interval=args.snapshot_interval,
        engine=ctx.engine,
        fault_model=args.fault_model,
        policy=args.policy,
        trace_sample=(args.trace_sample if args.trace else 0),
        event_cap=(args.event_cap if args.event_cap is not None else DEFAULT_EVENT_CAP),
        **array_kwargs,
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
    _write_exports(
        args,
        telemetry_jsonl=report.telemetry.write_jsonl,
        json=lambda path: _write_json(path, snapshot),
        trace=report.telemetry.tracer.write_jsonl,
        metrics=report.telemetry.metrics.write_prometheus,
        series=partial(write_slo_jsonl, recorder=report.telemetry.timeseries, specs=report.slos),
    )
    return 1 if failures else 0


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    from repro.cluster import run_cluster_bench
    from repro.obs.slo import write_slo_jsonl

    spec, array_kwargs = _service_array(args)
    ctx = ExecContext.from_args(args)

    def run(run_ctx: ExecContext):
        return run_cluster_bench(
            spec,
            engine=run_ctx.engine,
            workers=run_ctx.workers,
            ops=args.ops,
            n_arrays=args.arrays,
            tenants=args.tenants,
            seed=ctx.seed,
            tenant_addresses=args.tenant_addresses,
            bulk_watermark=args.watermark,
            maintenance_interval=args.maintenance_interval,
            degrade_at=args.degrade_at,
            degrade_array=args.degrade_array,
            degrade_threshold=args.degrade_threshold,
            fault_model=args.fault_model,
            policy=args.policy,
            **array_kwargs,
        )

    report = run(ctx)
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
    digests = attrgetter("audit_digest", "snapshot_digest")
    passed = not args.check or _determinism_drill(
        ctx, run, digests, digests(report), (2 if (report.workers or 1) == 1 else 1,)
    )
    _write_exports(
        args,
        json=lambda path: _write_json(path, report.snapshot),
        metrics=report.telemetry.metrics.write_prometheus,
        telemetry_jsonl=report.telemetry.write_jsonl,
        series=partial(write_slo_jsonl, recorder=report.telemetry.timeseries, specs=report.slos),
    )
    return 0 if passed and report.audit_failures == 0 else 1


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    from repro.fleet import CampaignSpec, run_campaign
    from repro.obs.slo import write_slo_jsonl

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
    passed = not (args.check and report.completed) or _determinism_drill(
        ctx, partial(run_campaign, spec), attrgetter("digest"), report.digest, (2, 4)
    )
    _write_exports(
        args,
        series=partial(write_slo_jsonl, recorder=report.recorder, specs=report.slos),
        json=lambda path: _write_json(path, report.to_dict()),
        metrics=report.registry.write_prometheus,
    )
    return 0 if passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import (
        ClusterFrontend,
        ClusterService,
        default_tenants,
        loopback_selftest,
    )

    spec, array_kwargs = _service_array(args)
    cluster = ClusterService(args.arrays, spec, seed=args.seed, **array_kwargs)
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
        # flushed: a supervisor reading a pipe learns the port from this line
        print(f"serving {args.arrays} array(s) for tenants [{tenants}]", flush=True)
        print(
            f"listening on {frontend.host}:{frontend.port} (JSON lines; Ctrl-C stops)",
            flush=True,
        )
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
    from repro.obs import render_obs_report

    if args.trace is None and args.metrics is None and args.series is None:
        print("obs-report needs --trace, --metrics and/or --series", file=sys.stderr)
        return 2
    text = render_obs_report(
        args.trace, metrics_path=args.metrics,
        series_path=args.series, top=args.top, title=args.title,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote observability report to {args.output}")
    else:
        print(text)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
