"""A deterministic multi-tenant load harness for :class:`ClusterService`.

``repro cluster-bench`` drives a weighted round-robin schedule of tenant
operations through the cluster and audits read-after-write integrity
end-to-end — including through backpressure retries and a mid-run degrade
drill that drains one array live.

Determinism contract
--------------------
The harness is a pure function of its :class:`ClusterBenchTask`:

* The interleave schedule is computed from the tenant weights alone.
* Tenant ``i``'s operation stream (addresses, read/write mix, payloads)
  is a pure function of ``(task, i)`` — drawn from ``rng_for(seed, i, 47)``
  — and is *pre-generated*, optionally in parallel over
  :class:`~repro.sim.parallel.SimExecutor` workers.  ``--workers`` only
  changes how fast the streams are generated, never their contents.
* The drive loop itself is serial and clocked by the schedule step, so
  backpressure retries (``retry_after`` steps later) and maintenance
  passes land at identical points in every run.
* The audit digest hashes the cluster's *actual* post-flush contents in
  sorted key order — bit-identical across worker counts and drain
  engines, which is exactly what the CI smoke job asserts.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.qos import TenantSpec, default_tenants
from repro.cluster.service import DEFAULT_BULK_WATERMARK, ClusterService
from repro.errors import BackpressureError, ConfigurationError, RetiredBlockError
from repro.obs.slo import SLOSpec
from repro.pcm.faults import fault_model_for
from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.service.policy import validate_policy
from repro.service.telemetry import ServiceTelemetry
from repro.sim.kernels import validate_engine
from repro.sim.parallel import SimExecutor
from repro.sim.rng import rng_for
from repro.sim.roster import SchemeSpec

#: schedule steps between control-plane maintenance passes
DEFAULT_MAINTENANCE_INTERVAL = 16

#: extra drain-phase steps allowed per leftover retry before the harness
#: forces the writes through with admission disabled (bounded liveness)
DRAIN_STEPS_PER_RETRY = 8


@dataclass(frozen=True)
class ClusterBenchTask:
    """Everything that determines one cluster-bench run (frozen, picklable)."""

    spec: SchemeSpec
    tenants: tuple[TenantSpec, ...]
    n_arrays: int
    ops: int
    seed: int
    tenant_addresses: int
    n_addresses: int
    spares: int
    buffer_capacity: int
    bulk_watermark: float
    lifetime_model: LifetimeModel
    maintenance_interval: int
    #: schedule step at which to drain ``degrade_array`` (0 disables)
    degrade_at: int = 0
    degrade_array: int = 0
    #: per-block fault count at which health degrades (None = scheme
    #: default, one below the hard FTC); lower thresholds widen the
    #: DEGRADED window the alert/pressure migration sweeps act on
    degrade_threshold: int | None = None
    engine: str = "auto"
    #: fault model every array's cells fail under (see docs/fault_models.md)
    fault_model: str = "hard"
    #: per-array scheme policy ("fixed" or "adaptive")
    policy: str = "fixed"
    #: op-clock bucket width for the cluster time series (0 disables);
    #: the resulting series + SLO verdicts enter the digested snapshot
    series_bucket: int = DEFAULT_MAINTENANCE_INTERVAL

    def schedule(self) -> list[int]:
        """The weighted round-robin interleave: tenant indices, one per
        operation, repeating each tenant ``weight`` times per cycle."""
        order: list[int] = []
        for index, spec in enumerate(self.tenants):
            order.extend([index] * spec.weight)
        return [order[step % len(order)] for step in range(self.ops)]

    def ops_for(self, tenant_index: int) -> int:
        return sum(1 for index in self.schedule() if index == tenant_index)


@dataclass
class TenantStream:
    """Tenant ``i``'s pre-generated operation stream — a pure function of
    ``(task, i)``, so worker count cannot change the run."""

    tenant_index: int
    addresses: np.ndarray
    is_read: np.ndarray
    payloads: np.ndarray


def generate_stream(task: ClusterBenchTask, tenant_index: int) -> TenantStream:
    """Generate one tenant's stream (module-level: picklable for workers)."""
    spec = task.tenants[tenant_index]
    ops = task.ops_for(tenant_index)
    rng = rng_for(task.seed, tenant_index, 47)
    return TenantStream(
        tenant_index=tenant_index,
        addresses=rng.integers(0, task.tenant_addresses, ops),
        is_read=rng.random(ops) < spec.read_fraction,
        payloads=rng.integers(0, 2, (ops, task.spec.n_bits), dtype=np.uint8),
    )


@dataclass
class ClusterBenchReport:
    """Outcome of one run: the deterministic ``snapshot``/digests plus
    wall-clock ``elapsed`` (which is not part of the contract)."""

    ops: int
    workers: int
    elapsed: float
    retries: int
    forced_writes: int
    audit_checked: int
    audit_failures: int
    dead_keys: int
    audit_digest: str
    snapshot_digest: str
    snapshot: dict
    telemetry: ServiceTelemetry
    per_tenant: dict = field(default_factory=dict)
    #: the SLO roster evaluated during the run (empty when series off)
    slos: tuple[SLOSpec, ...] = ()

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0


def _audit(
    cluster: ClusterService,
    shadow: dict[tuple[str, int], np.ndarray],
) -> tuple[int, int, int, str]:
    """Final read-after-write sweep: compare every surviving key against
    its shadow copy and hash the actual contents in sorted key order."""
    checked = failures = dead = 0
    digest = hashlib.sha256()
    for key in sorted(shadow):
        if cluster.is_dead(*key):
            dead += 1
            continue
        got = cluster.read(*key)
        checked += 1
        if not np.array_equal(got, shadow[key]):
            failures += 1
        digest.update(f"{key[0]}:{key[1]}:".encode("utf-8"))
        digest.update(np.packbits(got).tobytes())
    return checked, failures, dead, digest.hexdigest()


def run_cluster_bench(
    spec: SchemeSpec,
    *,
    ops: int,
    n_arrays: int = 3,
    tenants: tuple[TenantSpec, ...] | int = 4,
    seed: int = 2013,
    tenant_addresses: int = 32,
    n_addresses: int = 64,
    spares: int = 16,
    buffer_capacity: int = 8,
    bulk_watermark: float = DEFAULT_BULK_WATERMARK,
    lifetime_model: LifetimeModel | None = None,
    maintenance_interval: int = DEFAULT_MAINTENANCE_INTERVAL,
    degrade_at: int = 0,
    degrade_array: int = 0,
    degrade_threshold: int | None = None,
    engine: str = "auto",
    fault_model: str = "hard",
    policy: str = "fixed",
    series_bucket: int | None = None,
    workers: int | None = 1,
) -> ClusterBenchReport:
    """Drive ``ops`` multi-tenant operations through a fresh cluster.

    ``tenants`` is either an explicit roster or a count (expanded by
    :func:`~repro.cluster.qos.default_tenants` to the standard mixed-QoS
    mix).  ``degrade_at=N`` drains ``degrade_array`` after schedule step
    ``N`` — the live-migration drill; its keys must survive the final
    audit with zero failures.  ``workers`` parallelizes only the stream
    pre-generation; the report's digests are worker-count invariant.

    Time series and SLO evaluation are on by default: ``series_bucket``
    defaults to ``maintenance_interval`` (one bucket per control-plane
    pass) and the cluster evaluates
    :func:`~repro.obs.slo.default_cluster_slos` over it, so the series
    export and SLO verdicts are part of the digested snapshot — a
    ``--check`` digest match asserts they too are bit-identical across
    workers and engines.  Pass ``series_bucket=0`` to disable both.
    """
    if ops < 1:
        raise ConfigurationError("cluster bench needs at least one op")
    if tenant_addresses < 1:
        raise ConfigurationError("tenants need at least one address")
    if maintenance_interval < 1:
        raise ConfigurationError("maintenance interval must be positive")
    if series_bucket is None:
        series_bucket = maintenance_interval
    if series_bucket < 0:
        raise ConfigurationError(
            "series bucket width must be >= 0 (0 disables time series)"
        )
    roster = (
        default_tenants(tenants) if isinstance(tenants, int) else tuple(tenants)
    )
    if degrade_at and not 0 <= degrade_array < n_arrays:
        raise ConfigurationError(f"no array at index {degrade_array} to degrade")
    task = ClusterBenchTask(
        spec=spec,
        tenants=roster,
        n_arrays=n_arrays,
        ops=ops,
        seed=seed,
        tenant_addresses=tenant_addresses,
        n_addresses=n_addresses,
        spares=spares,
        buffer_capacity=buffer_capacity,
        bulk_watermark=bulk_watermark,
        lifetime_model=(
            lifetime_model if lifetime_model is not None else NormalLifetime()
        ),
        maintenance_interval=maintenance_interval,
        degrade_at=degrade_at,
        degrade_array=degrade_array,
        degrade_threshold=degrade_threshold,
        engine=validate_engine(engine),
        fault_model=fault_model_for(fault_model).key,
        policy=validate_policy(policy),
        series_bucket=series_bucket,
    )
    with SimExecutor(workers, chunk_pages=1) as runner:
        streams: list[TenantStream] = runner.map_indices(
            generate_stream, task, range(len(roster))
        )
    return _drive(task, streams, workers=runner.workers)


def _drive(
    task: ClusterBenchTask, streams: list[TenantStream], *, workers: int
) -> ClusterBenchReport:
    """The serial, schedule-clocked drive loop (see module docstring)."""
    cluster = ClusterService(
        task.n_arrays,
        task.spec,
        n_addresses=task.n_addresses,
        spares=task.spares,
        seed=task.seed,
        buffer_capacity=task.buffer_capacity,
        bulk_watermark=task.bulk_watermark,
        lifetime_model=task.lifetime_model,
        degrade_threshold=task.degrade_threshold,
        engine=task.engine,
        fault_model=task.fault_model,
        policy=task.policy,
        series_bucket=task.series_bucket,
    )
    for spec in task.tenants:
        cluster.register_tenant(spec)
    telemetry = cluster.telemetry
    schedule = task.schedule()
    cursors = [0] * len(task.tenants)
    shadow: dict[tuple[str, int], np.ndarray] = {}
    #: deferred bulk writes: (due_step, sequence, tenant_index, op_index)
    pending: list[tuple[int, int, int, int]] = []
    sequence = 0
    retries = forced = 0
    start = time.perf_counter()

    def attempt_write(tenant_index: int, op_index: int, *, admit: bool) -> int | None:
        """One write attempt; returns the ``retry_after`` hint when
        backpressured, ``None`` on success."""
        stream = streams[tenant_index]
        spec = task.tenants[tenant_index]
        address = int(stream.addresses[op_index])
        payload = stream.payloads[op_index]
        try:
            cluster.write(spec.tenant_id, address, payload, admit=admit)
        except BackpressureError as error:
            return max(1, error.retry_after)
        shadow[(spec.tenant_id, address)] = payload
        return None

    def run_reads_and_writes(step: int, tenant_index: int) -> None:
        nonlocal sequence, retries
        stream = streams[tenant_index]
        op_index = cursors[tenant_index]
        cursors[tenant_index] += 1
        spec = task.tenants[tenant_index]
        if bool(stream.is_read[op_index]):
            address = int(stream.addresses[op_index])
            key = (spec.tenant_id, address)
            try:
                got = cluster.read(spec.tenant_id, address)
            except RetiredBlockError:
                telemetry.metrics.inc("bench_dead_reads")
                return
            expected = shadow.get(key)
            if expected is not None and not np.array_equal(got, expected):
                telemetry.metrics.inc("integrity_failures")
            return
        delay = attempt_write(tenant_index, op_index, admit=True)
        if delay is not None:
            retries += 1
            heapq.heappush(pending, (step + delay, sequence, tenant_index, op_index))
            sequence += 1

    def run_due_retries(step: int) -> None:
        nonlocal sequence, retries
        while pending and pending[0][0] <= step:
            _, _, tenant_index, op_index = heapq.heappop(pending)
            delay = attempt_write(tenant_index, op_index, admit=True)
            if delay is not None:
                retries += 1
                heapq.heappush(
                    pending, (step + delay, sequence, tenant_index, op_index)
                )
                sequence += 1
                break  # same array is still saturated; wait for maintenance

    for step, tenant_index in enumerate(schedule):
        run_due_retries(step)
        run_reads_and_writes(step, tenant_index)
        if task.degrade_at and step + 1 == task.degrade_at:
            moved = cluster.drain_array(task.degrade_array)
            telemetry.emit("bench_degrade_drill", op=step + 1, moved=moved)
        if (step + 1) % task.maintenance_interval == 0:
            cluster.maintenance()

    # drain phase: retries left over from the schedule get maintenance
    # flushes until they are admitted, then a bounded forced fallback
    step = len(schedule)
    budget = len(pending) * DRAIN_STEPS_PER_RETRY
    while pending and budget > 0:
        cluster.maintenance()
        run_due_retries(step)
        step += 1
        budget -= 1
    while pending:  # liveness backstop — never triggers in practice
        _, _, tenant_index, op_index = heapq.heappop(pending)
        attempt_write(tenant_index, op_index, admit=False)
        forced += 1

    cluster.maintenance()
    cluster.flush_all()
    checked, failures, dead, audit_digest = _audit(cluster, shadow)
    # final sample: fold the audit reads and post-flush state into the
    # last bucket so the exported series covers the whole run
    cluster.observe()
    elapsed = time.perf_counter() - start
    snapshot = {
        "config": {
            "spec": task.spec.key,
            "ops": task.ops,
            "arrays": task.n_arrays,
            "tenants": [spec.tenant_id for spec in task.tenants],
            "tenant_addresses": task.tenant_addresses,
            "addresses_per_array": task.n_addresses,
            "spares_per_array": task.spares,
            "seed": task.seed,
            "degrade_at": task.degrade_at,
            "degrade_array": task.degrade_array if task.degrade_at else None,
            "degrade_threshold": task.degrade_threshold,
            "series_bucket": task.series_bucket,
        },
        "audit": {
            "checked": checked,
            "failures": failures,
            "dead_keys": dead,
            "digest": audit_digest,
            "retries": retries,
            "forced_writes": forced,
        },
        **cluster.snapshot(),
    }
    # non-default dimensions only, so historical digests stay byte-identical
    if task.fault_model != "hard":
        snapshot["config"]["fault_model"] = task.fault_model
    if task.policy != "fixed":
        snapshot["config"]["policy"] = task.policy
    snapshot_digest = hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return ClusterBenchReport(
        ops=task.ops,
        workers=workers,
        elapsed=elapsed,
        retries=retries,
        forced_writes=forced,
        audit_checked=checked,
        audit_failures=failures,
        dead_keys=dead,
        audit_digest=audit_digest,
        snapshot_digest=snapshot_digest,
        snapshot=snapshot,
        telemetry=telemetry,
        per_tenant=snapshot["tenants"],
        slos=cluster.slo_engine.specs if cluster.slo_engine is not None else (),
    )
