"""Extension: the multi-tenant cluster under QoS load and a degrade drill.

The service experiment (``ext-service``) exercises one array's pipeline;
this one exercises the layer above it: tenant keys placed on a cluster of
arrays by consistent hashing, two-class QoS admission at each array's
write buffer, and the control plane live-migrating keys off an array that
is drained mid-run.  Each scheme serves the identical multi-tenant
schedule; the table compares how the cluster behaves on top of each
recovery strength.

Expected shape: every scheme completes the run with a clean
read-after-write audit (zero failures) even though one array is drained
mid-run — the copy-then-switch migration preserves every surviving key.
Interactive tenants see zero backpressure by construction; bulk tenants
absorb all of it.  Stronger in-chip recovery loses fewer keys to spare
exhaustion, the cluster-level restatement of the FREE-p sizing claim.
"""

from __future__ import annotations

from repro.cluster.bench import run_cluster_bench
from repro.experiments.base import ExperimentResult, register
from repro.pcm.lifetime import NormalLifetime
from repro.sim.context import ExecContext
from repro.sim.roster import aegis_rw_spec, aegis_spec, ecp_spec, safer_spec


@register("ext-cluster")
def run(
    ctx: ExecContext,
    *,
    block_bits: int = 512,
    ops: int = 1500,
    n_arrays: int = 3,
    tenants: int = 4,
    tenant_addresses: int = 24,
    n_addresses: int = 48,
    spares: int = 10,
    endurance: float = 18.0,
) -> ExperimentResult:
    """Cluster behaviour table per scheme, with a mid-run degrade drill."""
    specs = [
        ecp_spec(6, block_bits),
        safer_spec(64, block_bits),
        aegis_spec(17, 31, block_bits),
        aegis_spec(9, 61, block_bits),
        aegis_rw_spec(9, 61, block_bits),
    ]
    rows = []
    for spec in specs:
        report = run_cluster_bench(
            spec,
            ops=ops,
            n_arrays=n_arrays,
            tenants=tenants,
            seed=ctx.seed,
            tenant_addresses=tenant_addresses,
            n_addresses=n_addresses,
            spares=spares,
            lifetime_model=NormalLifetime(mean_lifetime=endurance),
            degrade_at=ops // 2,
            degrade_array=1,
            degrade_threshold=2,
            engine=ctx.engine,
            workers=ctx.workers,
        )
        metrics = report.telemetry.metrics
        counters = report.telemetry.metrics.flat_counters()
        migrations = metrics.counter_total("migrations_total", kind="cross_array")
        backpressure = metrics.counter_total("tenant_backpressure_total")
        interactive_bp = metrics.counter_total(
            "tenant_backpressure_total", qos="interactive"
        )
        rows.append(
            (
                spec.label,
                spec.overhead_bits,
                report.audit_checked,
                report.dead_keys,
                counters.get("remaps", 0),
                migrations,
                metrics.counter_total("slo_alerts_total"),
                metrics.counter_total("migrations_total", kind="alert"),
                backpressure,
                interactive_bp,
                report.retries,
                report.audit_failures,
            )
        )
    return ExperimentResult(
        experiment_id="ext-cluster",
        title=(
            f"Extension: multi-tenant cluster with live migration "
            f"({ops} ops, {n_arrays} arrays, {tenants} tenants, "
            f"array 1 drained at op {ops // 2}, endurance {endurance:g})"
        ),
        headers=(
            "Scheme",
            "Overhead bits",
            "Keys audited",
            "Keys lost",
            "Spare remaps",
            "Cross-array migrations",
            "SLO alerts",
            "Alert migrations",
            "Bulk backpressure",
            "Interactive backpressure",
            "Retries",
            "Audit failures",
        ),
        rows=tuple(rows),
        notes=(
            "identical multi-tenant schedule per scheme; audit failures and "
            "interactive backpressure must be 0",
            "array 1 is drained mid-run: its keys live-migrate "
            "(copy-then-switch) and must all survive the final audit",
            "SLO alerts are burn-rate rising edges from the default cluster "
            "roster; alert migrations are the control plane acting on them "
            "(migrations_total{kind=alert})",
        ),
        chart={"type": "bar", "label": "Scheme", "value": "Keys lost"},
    )
