"""Multi-tenant cluster over sharded :class:`~repro.service.MemoryArray`\\ s.

:class:`ClusterService` is the synchronous core the asyncio front-end
(:mod:`repro.cluster.frontend`) and the deterministic load harness
(:mod:`repro.cluster.bench`) both drive.  It composes the pieces the
service layer already provides:

* **Routing** — every tenant key ``(tenant_id, address)`` is placed by the
  deterministic consistent-hash ring (:class:`~repro.cluster.ring.HashRing`)
  over the arrays; placement happens lazily on a key's *first write* and is
  remembered in an explicit placement table, so live migration can move a
  key without the ring ever lying about where data actually lives.
* **Namespaces** — tenants address disjoint spaces by construction: the
  routing key embeds the tenant, and each array-local logical address is
  owned by exactly one tenant key (the ``owners`` reverse map — also how
  per-row service cost is attributed back to tenants).
* **QoS admission** — bulk writes are refused with
  :class:`~repro.errors.BackpressureError` once the target array's write
  buffer crosses the bulk watermark; interactive writes are always
  admitted (and trigger the drain when the buffer fills).  A background
  :meth:`maintenance` pass flushes any watermarked buffer so bulk-only
  workloads make progress without an interactive writer to pay the flush.
* **Control plane** — :meth:`maintenance` watches per-array spare-pool
  occupancy and block health (the ``health_transitions_total`` signal) and
  migrates keys off pressured or draining arrays with copy-then-switch:
  flush the source, read the payload, write it (buffered) on the target,
  then switch the placement entry.  Read-your-writes holds throughout —
  before the switch reads hit the flushed source block, after it the
  target controller's write buffer forwards the pending copy.

Everything here is deterministic: no wall clocks, dict iteration in
insertion/sorted order, and ring placement from BLAKE2b — the property
``repro cluster-bench`` audits bit-identically across worker counts.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np

from repro.cluster.qos import QoSClass, TenantSpec
from repro.cluster.ring import HashRing
from repro.errors import (
    BackpressureError,
    ClusterCapacityError,
    ConfigurationError,
)
from repro.obs.slo import SLOEngine, default_cluster_slos
from repro.obs.timeseries import TimeSeriesRecorder
from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.service.array import MemoryArray, service_fail_cache
from repro.service.controller import ServiceController
from repro.service.health import BlockHealth
from repro.service.telemetry import DEFAULT_COST_EDGES, ServiceTelemetry
from repro.sim.rng import rng_for
from repro.sim.roster import SchemeSpec

#: write-buffer occupancy fraction above which bulk writes are refused
DEFAULT_BULK_WATERMARK = 0.75

#: spare-pool remaining at (or below) which an array is "pressured" and the
#: control plane starts migrating its degraded-block keys elsewhere
SPARE_LOW_BLOCKS = 2

#: pressure (and alert) migrations per maintenance pass (draining arrays
#: are unbounded)
MIGRATE_BATCH = 8


class ClusterNode:
    """One array + its controller + the local-address bookkeeping.

    The node hands out *local* logical addresses to cluster keys through a
    deterministic allocator (lowest freed address first, then the next
    fresh one) and keeps the ``owners`` reverse map — local address →
    cluster key — that migration and per-tenant cost attribution read.
    """

    def __init__(
        self, index: int, array: MemoryArray, controller: ServiceController
    ) -> None:
        self.index = index
        self.array = array
        self.controller = controller
        self.name = array.name
        #: local logical address -> owning (tenant_id, tenant_address) key
        self.owners: dict[int, tuple[str, int]] = {}
        self._free: list[int] = []
        self._next_local = 0
        #: set once the control plane decided to move everything off this
        #: array; a draining node accepts no new placements
        self.draining = False

    @property
    def has_capacity(self) -> bool:
        return bool(self._free) or self._next_local < self.array.n_addresses

    @property
    def occupancy(self) -> int:
        """Pending writes in this node's buffer (the admission signal)."""
        return len(self.controller.buffer)

    def allocate_local(self) -> int:
        """Claim a free local address (lowest freed first — deterministic)."""
        if self._free:
            return heapq.heappop(self._free)
        if self._next_local < self.array.n_addresses:
            local = self._next_local
            self._next_local += 1
            return local
        raise ClusterCapacityError(
            f"array {self.name}: logical address space exhausted"
        )

    def free_local(self, local: int) -> None:
        """Return a local address to the allocator (dead addresses are
        permanently lost capacity and are never reissued)."""
        self.owners.pop(local, None)
        if not self.array.is_dead(local):
            heapq.heappush(self._free, local)


class ClusterService:
    """Tenant-facing façade over ``n_arrays`` independent memory arrays.

    Parameters
    ----------
    n_arrays:
        Arrays in the cluster (named ``array0`` … ``arrayN-1``; the names
        are the ring's node identities).
    spec:
        Recovery-scheme spec every array's blocks use.
    n_addresses, spares, buffer_capacity, lifetime_model, engine,
    fault_model, policy:
        Per-array service-layer knobs, as in
        :func:`repro.service.loadgen.run_load`.
    degrade_threshold:
        Per-block fault count at which health degrades (the
        :class:`~repro.service.array.MemoryArray`
        ``degrade_fault_threshold``; ``None`` = one below the hard FTC).
    seed:
        Root seed; array ``i`` draws wear randomness from
        ``rng_for(seed, i, 43)`` so the cluster is a pure function of the
        seed regardless of construction order elsewhere.
    bulk_watermark:
        Write-buffer occupancy fraction at which bulk admission closes.
    series_bucket:
        Op-clock bucket width for time-series sampling (0 disables it);
        :meth:`observe` and :meth:`maintenance` are the sampling points.
        With series on, :func:`repro.obs.slo.default_cluster_slos` is
        evaluated over them; firing ``action="migrate"`` alerts make
        :meth:`maintenance` sweep degraded keys immediately — the
        observe→act loop.

    Control-plane thresholds are the module constants
    :data:`SPARE_LOW_BLOCKS` and :data:`MIGRATE_BATCH`; each array keeps
    a :func:`~repro.service.array.service_fail_cache`, and the ring
    places :data:`~repro.cluster.ring.REPLICAS` points per array.
    """

    def __init__(
        self,
        n_arrays: int,
        spec: SchemeSpec,
        *,
        n_addresses: int = 64,
        spares: int = 16,
        seed: int = 2013,
        buffer_capacity: int = 8,
        bulk_watermark: float = DEFAULT_BULK_WATERMARK,
        lifetime_model: LifetimeModel | None = None,
        degrade_threshold: int | None = None,
        engine: str = "auto",
        fault_model: str = "hard",
        policy: str = "fixed",
        series_bucket: int = 0,
    ) -> None:
        if n_arrays < 1:
            raise ConfigurationError("a cluster needs at least one array")
        if not 0 < bulk_watermark <= 1:
            raise ConfigurationError("bulk watermark must be in (0, 1]")
        if series_bucket < 0:
            raise ConfigurationError(
                "series bucket width must be >= 0 (0 disables time series)"
            )
        self.spec = spec
        self.telemetry = ServiceTelemetry()
        self.bulk_watermark = max(1, int(round(buffer_capacity * bulk_watermark)))
        model = lifetime_model if lifetime_model is not None else NormalLifetime()
        self.nodes: list[ClusterNode] = []
        for index in range(n_arrays):
            array = MemoryArray(
                n_addresses,
                spec.n_bits,
                spec.make_controller,
                spares=spares,
                lifetime_model=model,
                fail_cache=service_fail_cache(),
                degrade_fault_threshold=degrade_threshold,
                telemetry=self.telemetry,
                rng=rng_for(seed, index, 43),
                engine=engine,
                name=f"array{index}",
                fault_model=fault_model,
                scheme_key=spec.key,
            )
            controller = ServiceController(
                array, buffer_capacity=buffer_capacity, policy=policy
            )
            node = ClusterNode(index, array, controller)
            controller.cost_hook = self._make_cost_hook(node)
            self.nodes.append(node)
        self.block_bits = self.nodes[0].array.block_bits
        self.ring = HashRing(node.name for node in self.nodes)
        self._by_name = {node.name: node for node in self.nodes}
        #: (tenant_id, address) -> (node index, local address)
        self._placement: dict[tuple[str, int], tuple[int, int]] = {}
        self._tenants: dict[str, TenantSpec] = {}
        self._tenant_keys: dict[str, dict[str, tuple]] = {}
        #: the cluster op clock — admitted writes + reads, the time axis
        #: every observation and alert is stamped with (never wall time)
        self.clock = 0
        self.slo_engine: SLOEngine | None = None
        if series_bucket:
            self.telemetry.timeseries = TimeSeriesRecorder(
                self.telemetry.metrics, bucket_width=series_bucket, auto=False
            )
            self.slo_engine = SLOEngine(self.telemetry.timeseries, default_cluster_slos())

    # -- tenants ------------------------------------------------------------

    def register_tenant(self, spec: TenantSpec) -> None:
        """Admit a tenant (its id becomes part of every routing key)."""
        if spec.tenant_id in self._tenants:
            raise ConfigurationError(f"tenant {spec.tenant_id!r} already registered")
        self._tenants[spec.tenant_id] = spec
        metrics = self.telemetry.metrics
        labels = {"qos": spec.qos.value, "tenant": spec.tenant_id}
        self._tenant_keys[spec.tenant_id] = {
            "writes": metrics.series_key("tenant_writes_total", **labels),
            "reads": metrics.series_key("tenant_reads_total", **labels),
            "backpressure": metrics.series_key(
                "tenant_backpressure_total", **labels
            ),
        }

    @property
    def tenants(self) -> tuple[TenantSpec, ...]:
        """Registered tenants in registration order."""
        return tuple(self._tenants.values())

    def tenant(self, tenant_id: str) -> TenantSpec:
        spec = self._tenants.get(tenant_id)
        if spec is None:
            raise ConfigurationError(f"unknown tenant {tenant_id!r}")
        return spec

    def _make_cost_hook(self, node: ClusterNode):
        """Per-row cost attribution: the controller reports every serviced
        row's cell writes (engine-invariantly), the owners map names the
        tenant, and the labeled histogram buckets it."""
        owners = node.owners
        metrics = self.telemetry.metrics

        def hook(local: int, cell_writes: int) -> None:
            owner = owners.get(local)
            if owner is not None:
                metrics.observe(
                    "tenant_stage_cost",
                    cell_writes,
                    edges=DEFAULT_COST_EDGES,
                    tenant=owner[0],
                )

        return hook

    # -- placement ----------------------------------------------------------

    @staticmethod
    def routing_key(tenant_id: str, address: int) -> str:
        return f"{tenant_id}:{address}"

    def node_named(self, name: str) -> ClusterNode:
        node = self._by_name.get(name)
        if node is None:
            raise ConfigurationError(f"no array named {name!r}")
        return node

    def is_dead(self, tenant_id: str, address: int) -> bool:
        """True when the key's data was lost to spare-pool exhaustion."""
        placed = self._placement.get((tenant_id, address))
        if placed is None:
            return False
        return self.nodes[placed[0]].array.is_dead(placed[1])

    @property
    def key_count(self) -> int:
        return len(self._placement)

    def _place_node(self, key: tuple[str, int]) -> ClusterNode:
        """First placement: the ring's preference walk, skipping draining
        or full arrays — fallback placement equals post-retirement
        placement, so a later drain moves the minimum number of keys."""
        for name in self.ring.preference(self.routing_key(*key)):
            node = self._by_name[name]
            if not node.draining and node.has_capacity:
                return node
        raise ClusterCapacityError(
            "no array in the cluster has a free logical address"
        )

    def placement_digest(self) -> str:
        """SHA-256 over the sorted placement table — the cross-process,
        cross-worker-count placement fingerprint the bench audits."""
        digest = hashlib.sha256()
        for key in sorted(self._placement):
            node_index, local = self._placement[key]
            digest.update(
                f"{key[0]}:{key[1]}->{node_index}:{local}\n".encode("utf-8")
            )
        return digest.hexdigest()

    # -- data path ----------------------------------------------------------

    def write(
        self,
        tenant_id: str,
        address: int,
        payload: np.ndarray,
        *,
        admit: bool = True,
    ) -> None:
        """Accept a tenant write (serviced at the owning array's next drain).

        Raises :class:`BackpressureError` for a bulk tenant whose target
        array is watermarked (no state is consumed — the caller retries);
        pass ``admit=False`` to bypass admission (migration/replay paths).
        """
        spec = self.tenant(tenant_id)
        if address < 0:
            raise ConfigurationError("tenant addresses cannot be negative")
        key = (tenant_id, address)
        placed = self._placement.get(key)
        node = self.nodes[placed[0]] if placed is not None else self._place_node(key)
        if admit and spec.qos is QoSClass.BULK:
            occupancy = node.occupancy
            if occupancy >= self.bulk_watermark:
                self.telemetry.metrics.inc_key(
                    self._tenant_keys[tenant_id]["backpressure"]
                )
                raise BackpressureError(
                    f"array {node.name} buffer at {occupancy}/"
                    f"{node.controller.buffer.capacity} (bulk watermark "
                    f"{self.bulk_watermark})",
                    retry_after=max(1, occupancy - self.bulk_watermark + 1),
                    array=node.name,
                    tenant=tenant_id,
                )
        if placed is None:
            local = node.allocate_local()
            node.owners[local] = key
            self._placement[key] = (node.index, local)
        else:
            local = placed[1]
        self.telemetry.metrics.inc_key(self._tenant_keys[tenant_id]["writes"])
        node.controller.write(local, payload)
        self.clock += 1

    def read(self, tenant_id: str, address: int) -> np.ndarray:
        """The payload last written by ``tenant_id`` at ``address``.

        Unwritten keys read as zeros *at the cluster level* (no placement
        is created, and a recycled local address can never leak another
        key's stale data).  Dead keys raise the typed
        :class:`~repro.errors.RetiredBlockError` from the owning array.
        """
        self.tenant(tenant_id)
        self.telemetry.metrics.inc_key(self._tenant_keys[tenant_id]["reads"])
        self.clock += 1
        placed = self._placement.get((tenant_id, address))
        if placed is None:
            return np.zeros(self.block_bits, dtype=np.uint8)
        return self.nodes[placed[0]].controller.read(placed[1])

    def flush_all(self) -> None:
        """Drain every array's write buffer (call before final audits)."""
        for node in self.nodes:
            node.controller.flush()

    # -- control plane ------------------------------------------------------

    def observe(self) -> int | None:
        """Refresh the capacity-retention gauges and sample the time
        series at the current op clock; returns the bucket index sampled
        (``None`` when time series are disabled).

        This is the cluster's only sampling point — callers (the bench
        drive loop, the frontend maintenance loop) invoke it at
        deterministic schedule positions, so the bucket contents are a
        pure function of the operation sequence.
        """
        recorder = self.telemetry.timeseries
        if recorder is None:
            return None
        metrics = self.telemetry.metrics
        cluster_live = cluster_total = 0
        for node in self.nodes:
            summary = node.array.capacity_summary()
            live = int(summary["live_addresses"])
            total = int(summary["total_addresses"])
            cluster_live += live
            cluster_total += total
            metrics.set_gauge(
                "capacity_retention",
                live / total if total else 0.0,
                scope=node.name,
            )
        metrics.set_gauge(
            "capacity_retention",
            cluster_live / cluster_total if cluster_total else 0.0,
            scope="cluster",
        )
        return recorder.sample(self.clock)

    def maintenance(self) -> dict[str, int]:
        """One control-plane pass; returns ``{"flushed", "migrated",
        "alerts", "alert_migrated"}`` counts.

        1. Flush any watermarked buffer, so bulk writers blocked by
           admission control always see the occupancy fall (liveness).
        2. Observe: sample the time series and poll the SLO engine for
           burn-rate alerts; every alert is counted
           (``slo_alerts_total{slo, action}``) and logged as an
           ``slo_alert`` event.  While any ``action="migrate"`` spec is
           firing (level-triggered — the sweep keeps running for as long
           as the burn condition holds, not just at the rising edge),
           degraded-block keys across *all* non-draining arrays are
           migrated (up to :data:`MIGRATE_BATCH`) — acting on the burn
           signal without waiting for spare-pool pressure.
        3. Migrate keys off arrays under spare pressure (degraded-block
           keys only, up to :data:`MIGRATE_BATCH`) and off draining arrays
           (everything), onto the array with the most spare headroom.
        """
        flushed = 0
        for node in self.nodes:
            if node.occupancy >= self.bulk_watermark:
                node.controller.flush()
                flushed += 1
        alerts: list = []
        alert_migrated = 0
        if self.slo_engine is not None:
            self.observe()
            alerts, actions = self.slo_engine.poll()
            for alert in alerts:
                self.telemetry.metrics.inc(
                    "slo_alerts_total",
                    slo=alert.slo,
                    action=alert.action or "observe",
                )
                self.telemetry.emit(
                    "slo_alert",
                    op=self.clock,
                    slo=alert.slo,
                    bucket=alert.bucket,
                    clock=alert.clock,
                    burn_fast=alert.burn_fast,
                    burn_slow=alert.burn_slow,
                    action=alert.action,
                )
            if "migrate" in actions:
                for node in self.nodes:
                    if node.draining or alert_migrated >= MIGRATE_BATCH:
                        continue
                    for key in self._degraded_keys(node):
                        if alert_migrated >= MIGRATE_BATCH:
                            break
                        if self.migrate_key(key, kind="alert"):
                            alert_migrated += 1
        migrated = 0
        for node in self.nodes:
            if node.draining:
                keys = [node.owners[local] for local in sorted(node.owners)]
            elif node.array.pool.remaining <= SPARE_LOW_BLOCKS:
                keys = self._degraded_keys(node)[:MIGRATE_BATCH]
            else:
                continue
            for key in keys:
                if not node.draining and migrated >= MIGRATE_BATCH:
                    break
                if self.migrate_key(key):
                    migrated += 1
        return {
            "flushed": flushed,
            "migrated": migrated,
            "alerts": len(alerts),
            "alert_migrated": alert_migrated,
        }

    def _degraded_keys(self, node: ClusterNode) -> list[tuple[str, int]]:
        """Keys on this node whose backing block is ``DEGRADED`` (the
        health machine's proactive-migration signal), in local order."""
        keys = []
        for local in sorted(node.owners):
            if node.array.is_dead(local):
                continue
            if node.array.health_of(local) is BlockHealth.DEGRADED:
                keys.append(node.owners[local])
        return keys

    def migrate_key(self, key: tuple[str, int], *, kind: str = "cross_array") -> bool:
        """Copy-then-switch one key to the healthiest other array.

        Returns ``False`` (leaving the key in place) when it has no
        placement, its data is already lost, or no other array has
        capacity — migration is an optimisation, never a correctness
        requirement.  Read-your-writes holds at every step: the source is
        flushed before the copy, and after the placement switch the
        target's write buffer forwards the pending payload.  ``kind``
        labels the migration counter (``"cross_array"`` for pressure /
        drain sweeps, ``"alert"`` when an SLO burn-rate alert triggered
        the move).
        """
        placed = self._placement.get(key)
        if placed is None:
            return False
        source = self.nodes[placed[0]]
        local = placed[1]
        target = self._migration_target(exclude=source)
        if target is None:
            return False
        source.controller.flush()
        if source.array.is_dead(local):
            return False
        data = source.array.read(local)
        new_local = target.allocate_local()
        target.owners[new_local] = key
        with self.telemetry.tracer.span(
            "cluster_migration",
            tenant=key[0],
            source=source.name,
            target=target.name,
        ):
            target.controller.write(new_local, data)
        self._placement[key] = (target.index, new_local)
        source.free_local(local)
        self.telemetry.metrics.inc("cluster_migrations")
        self.telemetry.metrics.inc(
            "migrations_total",
            scheme=source.array.scheme_name,
            kind=kind,
        )
        self.telemetry.emit(
            "cluster_migrate",
            op=source.array.op_clock,
            tenant=key[0],
            address=key[1],
            source=source.name,
            target=target.name,
            kind=kind,
        )
        return True

    def _migration_target(self, *, exclude: ClusterNode) -> ClusterNode | None:
        """The non-draining array with the most spare blocks left (ties by
        index — deterministic), or ``None`` when nowhere can take a key."""
        best = None
        for node in self.nodes:
            if node is exclude or node.draining or not node.has_capacity:
                continue
            if best is None or node.array.pool.remaining > best.array.pool.remaining:
                best = node
        return best

    def drain_array(self, index: int) -> int:
        """Take ``array{index}`` out of rotation and move its keys off.

        Marks the array draining (no new placements), removes it from the
        ring (future placements of its arc land where its keys migrate
        to), force-degrades every mapped block — the transition shows up
        in ``health_transitions_total{to="degraded", reason="drained"}`` —
        then migrates every resident key.  Keys that cannot move yet (no
        capacity elsewhere) are retried by :meth:`maintenance`.  Returns
        the number of keys migrated now.
        """
        if not 0 <= index < len(self.nodes):
            raise ConfigurationError(f"no array at index {index}")
        node = self.nodes[index]
        if node.draining:
            return 0
        node.draining = True
        self.ring.remove_node(node.name)
        node.controller.flush()
        array = node.array
        for local in sorted(node.owners):
            physical = array.physical_of(local)
            if physical is not None:
                array.health.degrade(physical, op=array.op_clock, reason="drained")
        self.telemetry.metrics.inc("arrays_draining")
        self.telemetry.emit("array_draining", op=array.op_clock, array=node.name)
        moved = 0
        for key in [node.owners[local] for local in sorted(node.owners)]:
            if self.migrate_key(key):
                moved += 1
        return moved

    # -- snapshots ----------------------------------------------------------

    def tenant_summary(self) -> dict[str, dict[str, object]]:
        """Per-tenant SLO roll-up (sorted by tenant id, deterministic)."""
        metrics = self.telemetry.metrics
        summary: dict[str, dict[str, object]] = {}
        for tenant_id in sorted(self._tenants):
            spec = self._tenants[tenant_id]
            labels = {"qos": spec.qos.value, "tenant": tenant_id}
            histogram = metrics.histograms.get(
                ("tenant_stage_cost", (("tenant", tenant_id),))
            )
            keys = [key for key in self._placement if key[0] == tenant_id]
            dead = sum(1 for key in keys if self.is_dead(*key))
            summary[tenant_id] = {
                "qos": spec.qos.value,
                "writes": metrics.counter_value("tenant_writes_total", **labels),
                "reads": metrics.counter_value("tenant_reads_total", **labels),
                "backpressure": metrics.counter_value(
                    "tenant_backpressure_total", **labels
                ),
                "keys": len(keys),
                "dead_keys": dead,
                "stage_cost_ops": histogram.total if histogram else 0,
                "stage_cost_p50": histogram.quantile_label(0.5)
                if histogram
                else "0",
                "stage_cost_p99": histogram.quantile_label(0.99)
                if histogram
                else "0",
            }
        return summary

    def array_summary(self) -> list[dict[str, object]]:
        """Per-array capacity/health roll-up, in array order."""
        return [
            {
                "array": node.name,
                "draining": node.draining,
                "resident_keys": len(node.owners),
                "buffer_occupancy": node.occupancy,
                **node.array.capacity_summary(),
            }
            for node in self.nodes
        ]

    def slo_summary(self) -> dict | None:
        """The SLO engine's full evaluation (budgets, burn series,
        alerts) over the retained buckets, or ``None`` when time series
        are disabled.  Deterministic — safe to fold into digests."""
        if self.slo_engine is None:
            return None
        return self.slo_engine.evaluate()

    def snapshot(self) -> dict:
        """The deterministic cluster state summary: per-tenant and
        per-array sections, the placement fingerprint, the SLO verdicts
        (when time series are on — the series themselves ride the
        telemetry snapshot's ``timeseries`` block), and the shared
        telemetry snapshot — bit-identical across worker counts."""
        snapshot = {
            "tenants": self.tenant_summary(),
            "arrays": self.array_summary(),
            "placement_digest": self.placement_digest(),
            "clock": self.clock,
            **self.telemetry.snapshot(),
        }
        slo = self.slo_summary()
        if slo is not None:
            snapshot["slo"] = slo
        return snapshot
