"""Reduction + determinism + memory benchmark for the fleet campaign engine.

Four ladders, recorded to ``BENCH_fleet.json`` so the campaign engine's
perf trajectory is tracked from PR to PR:

* a **reduction ladder** — the shard-side reduction's headline win: the
  pickled bytes a full-``PageResult`` gather would ship across the
  process boundary versus the constant-size shard state actually
  shipped, per chunk size.  The shard is O(aggregate), so the ratio
  grows linearly with the chunk size; ``--check`` gates the ratio at the
  default chunk size on ``--reduction-floor`` (5x).
* a **memory ladder** — tracemalloc peak of a streaming campaign versus
  the same campaign scaled ``--scale-factor`` (100x) larger.  Streaming
  folds every chunk into the running aggregate, so the peak must stay
  bounded (``--memory-factor``) while the would-be result-list footprint
  grows 100x; ``--check`` gates both.
* a **digest ladder** — the campaign digest across workers 1/2/4, both
  engines, and a stop/checkpoint/resume split.  Always gated: bit-equal
  digests are the engine's correctness contract on every host.
* a **worker ladder** — streaming campaign throughput per worker count,
  with host_cpus-aware records; the parallel-speedup gate self-skips on
  single-CPU hosts (and cross-core-count ladder comparisons are refused
  via :func:`benchmarks.hostmeta.parallel_ladder_guard`).

Usage::

    PYTHONPATH=src python -m benchmarks.bench_fleet             # measure + write
    PYTHONPATH=src python -m benchmarks.bench_fleet --check     # also gate
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from benchmarks.hostmeta import host_cpus, parallel_ladder_guard
from repro.fleet import CampaignSpec, run_campaign
from repro.sim.context import ExecContext

#: default result file, at the repository root
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: chunk sizes the reduction ladder sweeps; the last is the gated one
REDUCTION_CHUNKS = (16, 64, 128)

#: benchmark seed (fixed: digests are compared across runs)
SEED = 2013


def _campaign_spec(
    *, pages: int, chunk_pages: int, schemes: tuple[str, ...] = ("aegis-9x61", "ecp6")
) -> CampaignSpec:
    return CampaignSpec(
        schemes=schemes,
        pages_per_scheme=pages,
        blocks_per_page=2,
        chunk_pages=chunk_pages,
    )


def _reduction_ladder(pages: int) -> dict:
    """Bytes across the process boundary: full results vs shard states."""
    runs = []
    for chunk_pages in REDUCTION_CHUNKS:
        spec = _campaign_spec(
            pages=max(pages, chunk_pages), chunk_pages=chunk_pages,
            schemes=("aegis-9x61",),
        )
        report = run_campaign(spec, ExecContext(seed=SEED, workers=1))
        runs.append(
            {
                "chunk_pages": chunk_pages,
                "pages": spec.pages_per_scheme,
                "result_bytes": report.aggregate.result_bytes,
                "shard_bytes": report.aggregate.shard_bytes,
                "reduction": round(report.reduction_ratio, 3),
            }
        )
    gated = runs[-1]
    return {
        "runs": runs,
        "gated_chunk_pages": gated["chunk_pages"],
        "gated_reduction": gated["reduction"],
    }


def _memory_ladder(base_pages: int, scale_factor: int) -> dict:
    """Streaming peak memory: base campaign vs a ``scale_factor``x one."""

    def peak_of(pages: int) -> tuple[int, dict]:
        spec = _campaign_spec(pages=pages, chunk_pages=16, schemes=("aegis-9x61",))
        tracemalloc.start()
        report = run_campaign(spec, ExecContext(seed=SEED, workers=1))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, {
            "pages": pages,
            "peak_bytes": peak,
            "result_bytes": report.aggregate.result_bytes,
        }

    base_peak, base = peak_of(base_pages)
    big_peak, big = peak_of(base_pages * scale_factor)
    return {
        "scale_factor": scale_factor,
        "base": base,
        "scaled": big,
        "peak_growth": round(big_peak / base_peak, 3) if base_peak else 0.0,
        # the result-list path's footprint is O(pages): it grows with the
        # campaign while the streaming peak stays bounded
        "result_list_growth": (
            round(big["result_bytes"] / base["result_bytes"], 3)
            if base["result_bytes"]
            else 0.0
        ),
    }


def _digest_ladder(pages: int, tmp_dir: Path) -> dict:
    """Campaign digests across workers, engines, and kill/resume."""
    spec = _campaign_spec(pages=pages, chunk_pages=8)
    runs = []
    for label, ctx in (
        ("workers=1", ExecContext(seed=SEED, workers=1)),
        ("workers=2", ExecContext(seed=SEED, workers=2)),
        ("workers=4", ExecContext(seed=SEED, workers=4)),
        ("engine=scalar", ExecContext(seed=SEED, workers=1, engine="scalar")),
    ):
        report = run_campaign(spec, ctx)
        runs.append({"run": label, "digest": report.digest})
    # kill/resume drill: stop mid-campaign at a checkpoint, resume with a
    # different worker count, and require the same digest
    checkpoint = tmp_dir / "bench_fleet_checkpoint.jsonl"
    run_campaign(
        spec,
        ExecContext(seed=SEED, workers=2),
        checkpoint_path=str(checkpoint),
        checkpoint_interval=2,
        stop_after_chunks=3,
    )
    resumed = run_campaign(
        spec,
        ExecContext(seed=SEED, workers=1),
        checkpoint_path=str(checkpoint),
        resume=True,
    )
    checkpoint.unlink(missing_ok=True)
    runs.append({"run": "kill/resume", "digest": resumed.digest})
    digests = {entry["digest"] for entry in runs}
    return {
        "pages": spec.total_pages(),
        "runs": runs,
        "identical": len(digests) == 1,
    }


def _worker_ladder(pages: int, worker_ladder: tuple[int, ...]) -> dict:
    """Streaming campaign throughput per worker count."""
    spec = _campaign_spec(pages=pages, chunk_pages=8)
    runs = []
    baseline_digest = None
    deterministic = True
    for workers in worker_ladder:
        start = time.perf_counter()
        report = run_campaign(spec, ExecContext(seed=SEED, workers=workers))
        elapsed = time.perf_counter() - start
        if baseline_digest is None:
            baseline_digest = report.digest
        elif report.digest != baseline_digest:
            deterministic = False
        runs.append(
            {
                "workers": workers,
                "seconds": round(elapsed, 4),
                "pages_per_second": round(report.pages / elapsed, 3),
            }
        )
    serial = runs[0]["pages_per_second"]
    best = max(runs, key=lambda r: r["pages_per_second"])
    return {
        "pages": spec.total_pages(),
        "runs": runs,
        "serial_pages_per_second": serial,
        "best_speedup": round(best["pages_per_second"] / serial, 3),
        "best_speedup_workers": best["workers"],
        "deterministic": deterministic,
    }


def run_benchmark(
    *,
    pages: int = 48,
    base_pages: int = 16,
    scale_factor: int = 100,
    worker_ladder: tuple[int, ...] = (1, 2, 4),
    tmp_dir: Path | None = None,
) -> dict:
    """Measure every ladder and return the record."""
    return {
        "benchmark": "fleet campaign: shard reduction + streaming + digests",
        "host_cpus": host_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "worker_ladder": list(worker_ladder),
        "reduction": _reduction_ladder(pages),
        "memory": _memory_ladder(base_pages, scale_factor),
        "digests": _digest_ladder(pages, tmp_dir or DEFAULT_OUTPUT.parent),
        "workers": _worker_ladder(pages, worker_ladder),
    }


def check_gates(
    current: dict,
    *,
    reduction_floor: float,
    memory_factor: float,
    parallel_floor: float,
) -> list[str]:
    """Gate messages (empty = healthy).

    The digest and reduction gates apply on every host; the parallel gate
    self-skips without a second core."""
    failures = []
    cpus = current.get("host_cpus") or 1
    reduction = current["reduction"]["gated_reduction"]
    if reduction < reduction_floor:
        failures.append(
            f"IPC reduction {reduction:.2f}x at chunk_pages="
            f"{current['reduction']['gated_chunk_pages']} below the "
            f"{reduction_floor:.1f}x floor"
        )
    memory = current["memory"]
    if memory["peak_growth"] > memory_factor:
        failures.append(
            f"streaming peak grew {memory['peak_growth']:.2f}x on a "
            f"{memory['scale_factor']}x campaign (bound {memory_factor:.1f}x) "
            f"— the stream is accumulating results"
        )
    if not current["digests"]["identical"]:
        digests = {entry["run"]: entry["digest"][:12] for entry in current["digests"]["runs"]}
        failures.append(f"campaign digests diverged: {digests}")
    workers = current["workers"]
    if not workers["deterministic"]:
        failures.append("worker-ladder digests diverged")
    has_ladder = len(current.get("worker_ladder", ())) > 1
    if cpus > 1 and has_ladder and workers["best_speedup"] < parallel_floor:
        failures.append(
            f"best parallel speedup {workers['best_speedup']:.2f}x below "
            f"the {parallel_floor:.1f}x floor (host_cpus={cpus})"
        )
    return failures


def check_regression(previous: dict, current: dict, factor: float) -> list[str]:
    """Throughput/reduction regression vs the recorded file."""
    failures = []
    cpus = current.get("host_cpus") or host_cpus()
    old_rate = previous.get("workers", {}).get("serial_pages_per_second", 0.0)
    new_rate = current["workers"]["serial_pages_per_second"]
    if old_rate > 0 and new_rate * factor < old_rate:
        failures.append(
            f"serial campaign throughput fell from {old_rate:.2f} to "
            f"{new_rate:.2f} pages/s (> {factor:.1f}x regression, "
            f"host_cpus={cpus})"
        )
    old_reduction = previous.get("reduction", {}).get("gated_reduction", 0.0)
    new_reduction = current["reduction"]["gated_reduction"]
    if old_reduction > 0 and new_reduction * factor < old_reduction:
        failures.append(
            f"IPC reduction fell from {old_reduction:.2f}x to "
            f"{new_reduction:.2f}x (> {factor:.1f}x regression)"
        )
    if parallel_ladder_guard(previous, current) is None and cpus > 1:
        old_speedup = previous.get("workers", {}).get("best_speedup", 0.0)
        new_speedup = current["workers"]["best_speedup"]
        if old_speedup > 1.0 and new_speedup * factor < old_speedup:
            failures.append(
                f"best parallel speedup fell from {old_speedup:.2f}x to "
                f"{new_speedup:.2f}x (> {factor:.1f}x regression, "
                f"host_cpus={cpus})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pages", type=int, default=48, help="pages per scheme")
    parser.add_argument(
        "--base-pages", type=int, default=16,
        help="memory-ladder base campaign size (scaled by --scale-factor)",
    )
    parser.add_argument(
        "--scale-factor", type=int, default=100,
        help="memory-ladder scale multiple (the ISSUE's 100x campaign)",
    )
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on a reduction ratio below --reduction-floor, unbounded "
        "streaming memory, digest divergence, or a throughput regression "
        "vs the recorded file",
    )
    parser.add_argument("--regression-factor", type=float, default=2.0)
    parser.add_argument("--reduction-floor", type=float, default=5.0)
    parser.add_argument("--memory-factor", type=float, default=3.0)
    parser.add_argument("--parallel-floor", type=float, default=1.1)
    args = parser.parse_args(argv)

    previous = None
    if args.output.exists():
        previous = json.loads(args.output.read_text())

    current = run_benchmark(
        pages=args.pages,
        base_pages=args.base_pages,
        scale_factor=args.scale_factor,
        worker_ladder=tuple(args.workers),
        tmp_dir=args.output.parent,
    )

    reduction = current["reduction"]
    print(
        "reduction: "
        + "  ".join(
            f"chunk {run['chunk_pages']:3d} -> {run['reduction']:.1f}x"
            for run in reduction["runs"]
        )
    )
    memory = current["memory"]
    print(
        f"memory: peak {memory['base']['peak_bytes']:,} B -> "
        f"{memory['scaled']['peak_bytes']:,} B on a "
        f"{memory['scale_factor']}x campaign "
        f"({memory['peak_growth']:.2f}x growth vs "
        f"{memory['result_list_growth']:.0f}x result-list growth)"
    )
    digests = current["digests"]
    print(
        f"digests: {len(digests['runs'])} runs "
        f"[{'identical' if digests['identical'] else 'DIVERGED'}]"
    )
    workers = current["workers"]
    flag = "ok" if workers["deterministic"] else "NON-DETERMINISTIC"
    print(
        f"workers: serial {workers['serial_pages_per_second']:8.2f} pages/s  "
        f"best {workers['best_speedup']:.2f}x @ "
        f"{workers['best_speedup_workers']} workers  [{flag}]"
    )

    status = 0
    if not digests["identical"] or not workers["deterministic"]:
        status = 1
    if args.check:
        if (current.get("host_cpus") or 1) <= 1:
            print("single-CPU host: parallel-speedup gate skipped")
        failures = check_gates(
            current,
            reduction_floor=args.reduction_floor,
            memory_factor=args.memory_factor,
            parallel_floor=args.parallel_floor,
        )
        if previous is not None:
            guard = parallel_ladder_guard(previous, current)
            if guard is not None:
                print(f"note: {guard}")
            failures.extend(
                check_regression(previous, current, args.regression_factor)
            )
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
