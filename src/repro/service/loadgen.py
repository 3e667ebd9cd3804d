"""A deterministic closed-loop load generator for the memory-array service.

The generator shards a logical address space across independent
:class:`~repro.service.array.MemoryArray` instances (the way a production
array shards traffic across channels), drives each shard closed-loop with
one of the existing :class:`~repro.pcm.workload.Workload` generators, and
fans the shards over :class:`~repro.sim.parallel.SimExecutor` worker
processes.

Determinism contract
--------------------
Shard ``i`` draws every random number from ``rng_for(seed, i, 41)`` and
builds its own workload instance (the fork-safety contract of
:mod:`repro.pcm.workload`), so a shard's result is a pure function of
``(task, i)`` — independent of the worker count and of scheduling.  The
merged telemetry snapshot is therefore bit-identical for ``--workers
1/2/4``; only wall-clock throughput changes.  The shard count is part of
the experiment definition, *not* derived from the worker count, precisely
so that parallelism never changes the simulated numbers.

Every shard also keeps a shadow copy of the last payload written to each
address and audits read-after-write integrity — online on every read, and
in a final sweep over all surviving addresses — so the load generator
doubles as the service layer's end-to-end correctness check under
injected wear and stuck-at faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.tracer import NullTracer, Tracer
from repro.pcm.faults import fault_model_for
from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.pcm.workload import (
    HotColdWorkload,
    UniformWorkload,
    Workload,
    ZipfWorkload,
)
from repro.service.array import MemoryArray, service_fail_cache
from repro.service.controller import ServiceController
from repro.service.kernels import validate_engine
from repro.service.policy import validate_policy
from repro.service.telemetry import DEFAULT_EVENT_CAP, ServiceTelemetry
from repro.sim.parallel import SimExecutor
from repro.sim.rng import rng_for
from repro.sim.roster import SchemeSpec

#: workload kinds the generator can build per shard
WORKLOAD_KINDS = ("uniform", "zipf", "hotcold")


def build_workload(kind: str, params: dict[str, float] | None = None) -> Workload:
    """Construct a fresh workload instance from its registry name."""
    params = params or {}
    if kind == "uniform":
        return UniformWorkload()
    if kind == "zipf":
        return ZipfWorkload(alpha=float(params.get("alpha", 1.0)))
    if kind == "hotcold":
        return HotColdWorkload(
            hot_fraction=float(params.get("hot_fraction", 0.1)),
            hot_share=float(params.get("hot_share", 0.9)),
        )
    raise ConfigurationError(
        f"unknown workload {kind!r}; expected one of {WORKLOAD_KINDS}"
    )


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to run any shard of one load run.

    Frozen and picklable (the spec's factories are module-level partials);
    the shard index arrives separately, so one task describes the run.
    ``ops_extra`` spreads a non-divisible op count: shards below it run one
    extra op, keeping per-shard work independent of the worker count.
    """

    spec: SchemeSpec
    n_addresses: int
    spares: int
    ops_base: int
    ops_extra: int
    seed: int
    workload_kind: str
    workload_params: tuple[tuple[str, float], ...]
    lifetime_model: LifetimeModel
    read_fraction: float
    buffer_capacity: int
    proactive_migration: bool
    snapshot_interval: int
    #: drain engine for every shard ("auto" | "scalar"); never
    #: part of the snapshot because results are engine-invariant
    engine: str = "auto"
    #: trace every N-th root span (0 disables tracing entirely); root
    #: spans whose tree contains an error are always kept
    trace_sample: int = 0
    #: event-log ring capacity per shard (0 = unbounded)
    event_cap: int = DEFAULT_EVENT_CAP
    #: op-clock bucket width for time-series sampling (0 disables it);
    #: buckets are on each shard's own op clock, so the merged series is
    #: worker-count and engine invariant like the rest of the snapshot
    series_bucket: int = 0
    #: cell fault statistics for every shard's array (a registry name of
    #: :mod:`repro.pcm.faults`); "hard" reproduces the historical runs
    #: byte-for-byte
    fault_model: str = "hard"
    #: controller scheme policy ("fixed" | "adaptive"); adaptive runs are
    #: exactly as worker/engine invariant as fixed ones
    policy: str = "fixed"

    def ops_for(self, shard_index: int) -> int:
        return self.ops_base + (1 if shard_index < self.ops_extra else 0)

    def make_tracer(self) -> Tracer | NullTracer:
        if self.trace_sample < 1:
            return NullTracer()
        return Tracer(sample_every=self.trace_sample)


@dataclass
class ShardResult:
    """One shard's deterministic telemetry plus its (informational) timing."""

    shard_index: int
    ops: int
    telemetry: ServiceTelemetry
    capacity: dict[str, object]
    elapsed: float


def run_shard(task: ShardTask, shard_index: int) -> ShardResult:
    """Run one shard — a pure function of ``(task, shard_index)`` except
    for the ``elapsed`` wall-clock field."""
    rng = rng_for(task.seed, shard_index, 41)
    telemetry = ServiceTelemetry(event_cap=task.event_cap, tracer=task.make_tracer())
    recorder = None
    if task.series_bucket:
        recorder = telemetry.attach_timeseries(
            TimeSeriesRecorder(
                telemetry.metrics, bucket_width=task.series_bucket, auto=True
            )
        )
    fail_cache = service_fail_cache()
    array = MemoryArray(
        task.n_addresses,
        task.spec.n_bits,
        task.spec.make_controller,
        spares=task.spares,
        lifetime_model=task.lifetime_model,
        fail_cache=fail_cache,
        telemetry=telemetry,
        rng=rng,
        engine=task.engine,
        fault_model=task.fault_model,
        scheme_key=task.spec.key,
    )
    controller = ServiceController(
        array,
        buffer_capacity=task.buffer_capacity,
        proactive_migration=task.proactive_migration,
        policy=task.policy,
    )
    workload = build_workload(task.workload_kind, dict(task.workload_params))
    shadow: dict[int, np.ndarray] = {}
    ops = task.ops_for(shard_index)
    start = time.perf_counter()
    for op in range(ops):
        address = workload.next_logical_page(task.n_addresses, rng)
        is_read = rng.random() < task.read_fraction
        if array.is_dead(address):
            telemetry.metrics.inc("ops_rejected")
            continue
        if is_read:
            got = controller.read(address)
            expected = shadow.get(address)
            if expected is not None and not np.array_equal(got, expected):
                telemetry.metrics.inc("integrity_failures")
        else:
            payload = rng.integers(0, 2, task.spec.n_bits, dtype=np.uint8)
            controller.write(address, payload)
            shadow[address] = payload
        if task.snapshot_interval and (op + 1) % task.snapshot_interval == 0:
            telemetry.emit(
                "health_snapshot", op=array.op_clock, **array.capacity_summary()
            )
    controller.close()
    # final read-after-write audit over every surviving written address
    for address in sorted(shadow):
        if array.is_dead(address):
            continue
        telemetry.metrics.inc("integrity_checked")
        if not np.array_equal(array.read(address), shadow[address]):
            telemetry.metrics.inc("integrity_failures")
    telemetry.metrics.inc("fail_cache_hits", fail_cache.hits)
    telemetry.metrics.inc("fail_cache_misses", fail_cache.misses)
    telemetry.metrics.inc("fail_cache_evictions", fail_cache.evictions)
    if recorder is not None:
        # catch-up sample: fold counters bumped outside the drain path
        # (audit, fail-cache totals) into the final bucket
        recorder.sample(array.op_clock)
    elapsed = time.perf_counter() - start
    return ShardResult(
        shard_index=shard_index,
        ops=ops,
        telemetry=telemetry,
        capacity=array.capacity_summary(),
        elapsed=elapsed,
    )


@dataclass
class LoadReport:
    """The merged outcome of one load run.

    ``snapshot`` is the deterministic part (identical across worker
    counts); ``elapsed``/``ops_per_second`` are wall-clock and are not.
    """

    ops: int
    shards: int
    workers: int
    elapsed: float
    snapshot: dict
    telemetry: ServiceTelemetry
    per_shard: list[dict] = field(default_factory=list)

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0

    def write_telemetry_jsonl(self, path: str) -> int:
        """Export the merged event log + final snapshot as JSONL."""
        return self.telemetry.write_jsonl(path)

    def write_trace_jsonl(self, path: str) -> int:
        """Export the merged span trees + trace snapshot as JSONL (the
        deterministic ``--trace`` artifact); returns the line count."""
        tracer = self.telemetry.tracer
        if not getattr(tracer, "enabled", False):
            raise ConfigurationError(
                "tracing was not enabled for this run (pass trace_sample >= 1)"
            )
        assert isinstance(tracer, Tracer)
        return tracer.write_jsonl(path)

    def write_metrics(self, path: str) -> int:
        """Export the labeled metrics registry in Prometheus text format."""
        return self.telemetry.metrics.write_prometheus(path)

    def write_series_jsonl(self, path: str) -> int:
        """Export the merged op-clock time series as JSONL (requires the
        run to have sampled, i.e. ``series_bucket >= 1``)."""
        recorder = self.telemetry.timeseries
        if recorder is None:
            raise ConfigurationError(
                "time series were not recorded for this run (pass series_bucket >= 1)"
            )
        return recorder.write_jsonl(path)


def _merge_capacity(capacities: list[dict]) -> dict:
    merged: dict[str, object] = {}
    for capacity in capacities:
        for name, value in capacity.items():
            if name == "capacity_fraction":
                continue
            merged[name] = merged.get(name, 0) + value
    total = merged.get("total_addresses", 0)
    live = merged.get("live_addresses", 0)
    merged["capacity_fraction"] = round(live / total, 6) if total else 0.0
    return merged


def run_load(
    spec: SchemeSpec,
    *,
    ops: int,
    seed: int = 2013,
    shards: int = 4,
    workers: int | None = 1,
    n_addresses: int = 64,
    spares: int = 16,
    workload: str = "zipf",
    workload_params: dict[str, float] | None = None,
    lifetime_model: LifetimeModel | None = None,
    read_fraction: float = 0.25,
    buffer_capacity: int = 8,
    proactive_migration: bool = False,
    snapshot_interval: int = 0,
    engine: str = "auto",
    trace_sample: int = 0,
    event_cap: int = DEFAULT_EVENT_CAP,
    series_bucket: int = 0,
    fault_model: str = "hard",
    policy: str = "fixed",
) -> LoadReport:
    """Drive ``ops`` operations through ``shards`` independent arrays.

    ``n_addresses``/``spares`` are per shard (total logical capacity is
    ``shards * n_addresses``).  ``workers`` only changes wall-clock; the
    returned :attr:`LoadReport.snapshot` is worker-count invariant.
    ``engine`` picks the drain path (``"auto"``/``"scalar"``)
    for every shard; like ``workers`` it only changes wall-clock, so it is
    deliberately absent from the snapshot's ``config`` block.

    ``trace_sample=N`` records every N-th serviced operation as a span
    tree (failed writes are always kept);
    the merged trace rides :attr:`LoadReport.telemetry` and exports via
    :meth:`LoadReport.write_trace_jsonl` — deterministic like the
    snapshot.  ``series_bucket=N`` samples the metrics into
    N-op op-clock buckets after every drain (see
    :mod:`repro.obs.timeseries`); the merged series lands in the
    snapshot's ``timeseries`` block and is exactly as worker/engine
    invariant as the rest.
    """
    if ops < 1:
        raise ConfigurationError("a load run needs at least one op")
    if shards < 1:
        raise ConfigurationError("a load run needs at least one shard")
    if not 0 <= read_fraction <= 1:
        raise ConfigurationError("read fraction must be in [0, 1]")
    if trace_sample < 0:
        raise ConfigurationError("trace sample must be >= 0 (0 disables tracing)")
    if series_bucket < 0:
        raise ConfigurationError(
            "series bucket width must be >= 0 (0 disables time series)"
        )
    fault_model_for(fault_model)  # fail fast, not inside a worker process
    task = ShardTask(
        spec=spec,
        n_addresses=n_addresses,
        spares=spares,
        ops_base=ops // shards,
        ops_extra=ops % shards,
        seed=seed,
        workload_kind=workload,
        workload_params=tuple(sorted((workload_params or {}).items())),
        lifetime_model=(
            lifetime_model if lifetime_model is not None else NormalLifetime()
        ),
        read_fraction=read_fraction,
        buffer_capacity=buffer_capacity,
        proactive_migration=proactive_migration,
        snapshot_interval=snapshot_interval,
        engine=validate_engine(engine),
        trace_sample=trace_sample,
        event_cap=event_cap,
        series_bucket=series_bucket,
        fault_model=fault_model,
        policy=validate_policy(policy),
    )
    start = time.perf_counter()
    # one shard per chunk: shards are few and coarse, so load-balance fully
    with SimExecutor(workers, chunk_pages=1) as runner:
        results: list[ShardResult] = runner.map_indices(
            run_shard, task, range(shards)
        )
    elapsed = time.perf_counter() - start
    merged = ServiceTelemetry(event_cap=event_cap, tracer=task.make_tracer())
    for result in results:
        merged.merge(result.telemetry, shard=result.shard_index)
    capacity = _merge_capacity([result.capacity for result in results])
    config = {
        "spec": spec.key,
        "ops": ops,
        "shards": shards,
        "addresses_per_shard": n_addresses,
        "spares_per_shard": spares,
        "workload": workload,
        "seed": seed,
        "read_fraction": read_fraction,
    }
    # non-default dimensions only, so historical snapshots stay byte-identical
    if fault_model != "hard":
        config["fault_model"] = fault_model
    if policy != "fixed":
        config["policy"] = policy
    snapshot = {
        "config": config,
        "capacity": capacity,
        **merged.snapshot(),
    }
    return LoadReport(
        ops=ops,
        shards=shards,
        workers=runner.workers,
        elapsed=elapsed,
        snapshot=snapshot,
        telemetry=merged,
        per_shard=[
            {
                "shard": result.shard_index,
                "ops": result.ops,
                "elapsed": round(result.elapsed, 4),
                "live_addresses": result.capacity["live_addresses"],
            }
            for result in results
        ],
    )
