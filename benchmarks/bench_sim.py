"""Speedup + determinism benchmark for the Monte Carlo execution layer.

Two ladders per representative spec, recorded to ``BENCH_sim.json`` so the
performance trajectory of the engine is tracked from PR to PR:

* an **engine ladder** — ``run_page_study`` at ``workers=1`` with the
  scalar checker loop vs ``engine="auto"``, which takes the batch kernels
  (:mod:`repro.sim.kernels`) where they cover the spec (this leg is the
  worker ladder's ``workers=1`` run), plus a ``failure_curve`` timing for
  kernel-capable specs; asserts the two engines agree bit for bit;
* a **worker ladder** — the ``engine="auto"`` study fanned out over a
  process pool, asserting every worker count reproduces the serial study;
* an **extension ladder** — the pairing study (representative of the
  sims migrated onto :class:`~repro.sim.parallel.StudyRunner`) serial vs
  4 workers, asserting the fan-out is bit-identical and recording its
  speedup.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_sim               # measure + write
    PYTHONPATH=src python -m benchmarks.bench_sim --check       # also gate
    PYTHONPATH=src python -m benchmarks.bench_sim --pages 64 --workers 1 2 4

``--check`` enforces three gates:

* serial (auto-engine) per-page throughput per spec must not have fallen
  by more than ``--regression-factor`` vs the recorded file;
* the kernel speedup on ``aegis-9x61`` must reach ``--kernel-floor``
  (default 3.0) — the vector path is the perf contract of this layer;
* when the host has more than one CPU, the best parallel speedup per
  spec must reach ``--parallel-floor``; on single-CPU hosts this
  assertion is skipped (a process pool cannot beat serial there);
* when the host has at least four CPUs, the extension ladder's 4-worker
  speedup must reach ``--ext-parallel-floor`` (default 2.0) — the
  StudyRunner migration's perf contract.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.hostmeta import host_cpus, parallel_ladder_guard
from repro.pairing.sim import pairing_study
from repro.sim import kernels
from repro.sim.block_sim import failure_curve
from repro.sim.context import ExecContext
from repro.sim.page_sim import PageStudy, run_page_study
from repro.sim.roster import SchemeSpec, aegis_spec, ecp_spec, safer_spec

#: default result file, at the repository root
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: representative roster: one static partition scheme (the Figure 5
#: headliner), one replayed-vector scheme, one trivial checker
BENCH_SPECS = (
    ("aegis-9x61", lambda: aegis_spec(9, 61, 512)),
    ("safer64", lambda: safer_spec(64, 512)),
    ("ecp6", lambda: ecp_spec(6, 512)),
)

#: the spec whose kernel speedup --check gates on
GATED_SPEC = "aegis-9x61"


def _study(
    spec: SchemeSpec,
    n_pages: int,
    blocks_per_page: int,
    workers: int,
    engine: str,
) -> tuple[PageStudy, float]:
    start = time.perf_counter()
    study = run_page_study(
        spec,
        n_pages=n_pages,
        blocks_per_page=blocks_per_page,
        seed=2013,
        workers=workers,
        engine=engine,
    )
    return study, time.perf_counter() - start


def _curve_ladder(spec: SchemeSpec, trials: int) -> dict:
    start = time.perf_counter()
    scalar = failure_curve(spec, trials=trials, seed=2013, engine="scalar")
    scalar_seconds = time.perf_counter() - start
    start = time.perf_counter()
    vector = failure_curve(spec, trials=trials, seed=2013, engine="auto")
    vector_seconds = time.perf_counter() - start
    return {
        "trials": trials,
        "scalar_seconds": round(scalar_seconds, 4),
        "vector_seconds": round(vector_seconds, 4),
        "speedup": round(scalar_seconds / vector_seconds, 3),
        "identical": scalar == vector,
    }


def _extension_ladder(
    n_pages: int, worker_ladder: tuple[int, ...]
) -> dict:
    """Serial-vs-pooled pairing study: the StudyRunner migration's ladder."""
    spec = aegis_spec(17, 31, 512)
    runs = []
    baseline = None
    deterministic = True
    for workers in worker_ladder:
        start = time.perf_counter()
        study = pairing_study(
            spec,
            n_pages=n_pages,
            blocks_per_page=8,
            ctx=ExecContext(seed=2013, workers=workers),
        )
        elapsed = time.perf_counter() - start
        if baseline is None:
            baseline = study
        elif study != baseline:
            deterministic = False
        runs.append(
            {
                "workers": workers,
                "seconds": round(elapsed, 4),
                "pages_per_second": round(n_pages / elapsed, 3),
            }
        )
    serial = runs[0]["pages_per_second"]
    best = max(runs, key=lambda r: r["pages_per_second"])
    return {
        "study": "pairing",
        "spec": spec.key,
        "pages": n_pages,
        "runs": runs,
        "serial_pages_per_second": serial,
        "best_speedup": round(best["pages_per_second"] / serial, 3),
        "best_speedup_workers": best["workers"],
        "deterministic": deterministic,
    }


def run_benchmark(
    *,
    n_pages: int = 32,
    blocks_per_page: int = 32,
    worker_ladder: tuple[int, ...] = (1, 2, 4),
    curve_trials: int = 400,
) -> dict:
    """Measure both ladders and verify determinism; return the record."""
    records = []
    for key, make_spec in BENCH_SPECS:
        spec = make_spec()
        has_kernel = kernels.kernel_supported(spec)

        # engine ladder at workers=1: the kernel-vs-scalar contract; its
        # kernel leg is the workers=1 run of the default-engine ladder
        scalar_study, scalar_seconds = _study(
            spec, n_pages, blocks_per_page, 1, "scalar"
        )
        auto_runs = {
            workers: _study(spec, n_pages, blocks_per_page, workers, "auto")
            for workers in dict.fromkeys((1, *worker_ladder))
        }
        deterministic = all(
            study.results == scalar_study.results for study, _ in auto_runs.values()
        )
        vector_seconds = auto_runs[1][1]
        engine_runs = [
            {
                "engine": "scalar",
                "workers": 1,
                "seconds": round(scalar_seconds, 4),
                "pages_per_second": round(n_pages / scalar_seconds, 3),
            },
            {
                "engine": "auto",
                "workers": 1,
                "seconds": round(vector_seconds, 4),
                "pages_per_second": round(n_pages / vector_seconds, 3),
            },
        ]

        # worker ladder with the default engine selection
        runs = []
        for workers in worker_ladder:
            elapsed = auto_runs[workers][1]
            runs.append(
                {
                    "workers": workers,
                    "engine": "auto",
                    "seconds": round(elapsed, 4),
                    "pages_per_second": round(n_pages / elapsed, 3),
                }
            )
        serial = runs[0]["pages_per_second"]
        best = max(runs, key=lambda r: r["pages_per_second"])
        record = {
            "spec": key,
            "pages": n_pages,
            "blocks_per_page": blocks_per_page,
            "kernel": has_kernel,
            "engine_runs": engine_runs,
            "kernel_speedup": round(scalar_seconds / vector_seconds, 3),
            "runs": runs,
            "serial_pages_per_second": serial,
            "best_speedup": round(best["pages_per_second"] / serial, 3),
            "best_speedup_workers": best["workers"],
            "deterministic": deterministic,
        }
        if has_kernel:
            record["curve"] = _curve_ladder(spec, curve_trials)
        records.append(record)
    return {
        "benchmark": "monte carlo engine ladder + parallel fan-out",
        "host_cpus": host_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "worker_ladder": list(worker_ladder),
        "specs": records,
        "extension": _extension_ladder(n_pages, worker_ladder),
    }


def check_regression(previous: dict, current: dict, factor: float) -> list[str]:
    """Per-spec throughput/speedup regression messages (empty = healthy).

    Serial throughput is always compared.  Parallel-ladder speedups are
    compared only when both records were measured on hosts with the same
    core count (:func:`benchmarks.hostmeta.parallel_ladder_guard`);
    otherwise the comparison is refused, not silently made."""
    failures = []
    cpus = current.get("host_cpus") or host_cpus()
    ladders_comparable = parallel_ladder_guard(previous, current) is None

    def compare_parallel(label: str, old: dict, new: dict) -> None:
        old_speedup = old.get("best_speedup", 0.0)
        new_speedup = new.get("best_speedup", 0.0)
        if (
            ladders_comparable
            and cpus > 1
            and old_speedup > 1.0
            and new_speedup * factor < old_speedup
        ):
            failures.append(
                f"{label}: best parallel speedup fell from "
                f"{old_speedup:.2f}x to {new_speedup:.2f}x "
                f"(> {factor:.1f}x regression, host_cpus={cpus})"
            )

    old_by_spec = {r["spec"]: r for r in previous.get("specs", ())}
    for record in current["specs"]:
        old = old_by_spec.get(record["spec"])
        if old is None:
            continue
        old_rate = old.get("serial_pages_per_second", 0.0)
        new_rate = record["serial_pages_per_second"]
        if old_rate > 0 and new_rate * factor < old_rate:
            failures.append(
                f"{record['spec']}: serial throughput fell from "
                f"{old_rate:.2f} to {new_rate:.2f} pages/s "
                f"(> {factor:.1f}x regression, host_cpus={cpus})"
            )
        compare_parallel(record["spec"], old, record)
    old_ext = previous.get("extension")
    new_ext = current.get("extension")
    if old_ext and new_ext and old_ext.get("study") == new_ext.get("study"):
        old_rate = old_ext.get("serial_pages_per_second", 0.0)
        new_rate = new_ext["serial_pages_per_second"]
        if old_rate > 0 and new_rate * factor < old_rate:
            failures.append(
                f"extension/{new_ext['study']}: serial throughput fell from "
                f"{old_rate:.2f} to {new_rate:.2f} pages/s "
                f"(> {factor:.1f}x regression, host_cpus={cpus})"
            )
        compare_parallel(f"extension/{new_ext['study']}", old_ext, new_ext)
    return failures


def check_gates(
    current: dict,
    *,
    kernel_floor: float,
    parallel_floor: float,
    ext_parallel_floor: float = 2.0,
) -> list[str]:
    """Kernel-speedup and parallel-speedup gate messages (empty = healthy).

    The parallel gate is skipped entirely on single-CPU hosts — a process
    pool cannot beat the serial path without a second core.  The extension
    ladder's stricter floor only applies with at least four cores, since
    its contract is the 4-worker speedup."""
    failures = []
    cpus = current.get("host_cpus") or 1
    multi_cpu = cpus > 1
    has_ladder = len(current.get("worker_ladder", ())) > 1
    for record in current["specs"]:
        if record["spec"] == GATED_SPEC and record.get("kernel"):
            if record["kernel_speedup"] < kernel_floor:
                failures.append(
                    f"{record['spec']}: kernel speedup "
                    f"{record['kernel_speedup']:.2f}x below the "
                    f"{kernel_floor:.1f}x floor (host_cpus={cpus})"
                )
        if multi_cpu and has_ladder and record["best_speedup"] < parallel_floor:
            failures.append(
                f"{record['spec']}: best parallel speedup "
                f"{record['best_speedup']:.2f}x below the "
                f"{parallel_floor:.1f}x floor (host_cpus={cpus})"
            )
    extension = current.get("extension")
    if extension:
        if multi_cpu and has_ladder and extension["best_speedup"] < parallel_floor:
            failures.append(
                f"extension/{extension['study']}: best parallel speedup "
                f"{extension['best_speedup']:.2f}x below the "
                f"{parallel_floor:.1f}x floor (host_cpus={cpus})"
            )
        if cpus >= 4 and has_ladder and extension["best_speedup"] < ext_parallel_floor:
            failures.append(
                f"extension/{extension['study']}: best parallel speedup "
                f"{extension['best_speedup']:.2f}x below the "
                f"{ext_parallel_floor:.1f}x extension floor (host_cpus={cpus})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pages", type=int, default=32)
    parser.add_argument("--blocks-per-page", type=int, default=32)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--curve-trials", type=int, default=400)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on a throughput regression vs the recorded file, a "
        "kernel speedup below --kernel-floor, or (multi-CPU hosts only) "
        "a parallel speedup below --parallel-floor",
    )
    parser.add_argument("--regression-factor", type=float, default=2.0)
    parser.add_argument("--kernel-floor", type=float, default=3.0)
    parser.add_argument("--parallel-floor", type=float, default=1.1)
    parser.add_argument(
        "--ext-parallel-floor",
        type=float,
        default=2.0,
        help="minimum extension-ladder speedup, enforced only on hosts "
        "with at least 4 CPUs (the contract is the 4-worker fan-out)",
    )
    args = parser.parse_args(argv)

    previous = None
    if args.output.exists():
        previous = json.loads(args.output.read_text())

    current = run_benchmark(
        n_pages=args.pages,
        blocks_per_page=args.blocks_per_page,
        worker_ladder=tuple(args.workers),
        curve_trials=args.curve_trials,
    )

    status = 0
    for record in current["specs"]:
        flag = "ok" if record["deterministic"] else "NON-DETERMINISTIC"
        kernel = (
            f"kernel {record['kernel_speedup']:.2f}x"
            if record["kernel"]
            else "no kernel"
        )
        print(
            f"{record['spec']:12s} serial {record['serial_pages_per_second']:8.2f} pages/s  "
            f"{kernel:14s}  best {record['best_speedup']:.2f}x @ "
            f"{record['best_speedup_workers']} workers  [{flag}]"
        )
        if not record["deterministic"]:
            status = 1
    extension = current["extension"]
    ext_flag = "ok" if extension["deterministic"] else "NON-DETERMINISTIC"
    print(
        f"ext:{extension['study']:8s} serial {extension['serial_pages_per_second']:8.2f} pages/s  "
        f"{'StudyRunner':14s}  best {extension['best_speedup']:.2f}x @ "
        f"{extension['best_speedup_workers']} workers  [{ext_flag}]"
    )
    if not extension["deterministic"]:
        status = 1
    if args.check:
        if current.get("host_cpus", 1) <= 1:
            print("single-CPU host: parallel-speedup gate skipped")
        elif (current.get("host_cpus") or 1) < 4:
            print("fewer than 4 CPUs: extension 2x floor skipped")
        failures = check_gates(
            current,
            kernel_floor=args.kernel_floor,
            parallel_floor=args.parallel_floor,
            ext_parallel_floor=args.ext_parallel_floor,
        )
        if previous is not None:
            guard = parallel_ladder_guard(previous, current)
            if guard is not None:
                print(f"note: {guard}")
            failures.extend(check_regression(previous, current, args.regression_factor))
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
