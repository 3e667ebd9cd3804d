"""The memory-array service layer: serving traffic over the PCM model.

The reproduction's other packages *measure* Aegis; this one *serves* with
it.  ``repro.service`` turns the bit-accurate substrate into an
addressable array with a production-shaped request path and graceful
degradation:

:mod:`repro.service.array`
    :class:`MemoryArray` — a logical block address space routed through
    the wear-leveling policies, backed by per-block recovery controllers,
    with a healthy → degraded → retired health machine and FREE-p-style
    spare remapping (data loss only on pool exhaustion, signalled by the
    typed :class:`~repro.errors.RetiredBlockError`).
:mod:`repro.service.controller`
    :class:`ServiceController` — the request pipeline: coalescing write
    buffer, fail-cache consultation, differential write + verification
    read, retry-with-repartition escalation, spare remap.
:mod:`repro.service.telemetry`
    :class:`ServiceTelemetry` — counters, service-cost/latency histograms
    built from the controllers' write receipts, health snapshots, and a
    bounded JSONL event log; its counters live in a
    :class:`repro.obs.MetricsRegistry` (``telemetry.metrics``) and it can
    carry a :class:`repro.obs.Tracer` through worker processes (see
    ``docs/observability.md``).
:mod:`repro.service.kernels`
    The vectorized drain plane — numpy batch kernels that service a whole
    write-buffer drain at once (:func:`drain_vector`), the columnar
    :class:`BlockStore` every block's cell state lives in, and the
    :func:`kernel_for` lookup that decides when ``engine="auto"`` can
    take the batched path.  Bit-identical to the
    scalar pipeline by construction (``tests/test_service_kernels.py``).
:mod:`repro.service.health`
    The per-block health state machine.
:mod:`repro.service.policy`
    Adaptive per-block scheme selection — the deterministic
    :class:`SchemePolicyEngine` scoring an option table of schemes from
    observed block conditions (faults, maskable faults, write share,
    fault bursts), driven by ``ServiceController(policy="adaptive")``
    through :meth:`MemoryArray.switch_scheme`.
:mod:`repro.service.loadgen`
    A deterministic sharded closed-loop load generator over the existing
    workload generators and :class:`~repro.sim.parallel.SimExecutor` —
    the engine behind ``aegis-repro serve-bench`` and the ``ext-service``
    experiment.
"""

from repro.service.array import MemoryArray
from repro.service.controller import ServiceController
from repro.service.health import BlockHealth, HealthTracker
from repro.service.kernels import (
    BlockStore,
    drain_vector,
    kernel_for,
)
from repro.service.loadgen import (
    LoadReport,
    ShardResult,
    ShardTask,
    build_workload,
    run_load,
    run_shard,
)
from repro.service.policy import (
    POLICY_CHOICES,
    BlockConditions,
    SchemeOption,
    SchemePolicyEngine,
    default_policy_options,
    validate_policy,
)
from repro.service.telemetry import ServiceTelemetry

__all__ = [
    "POLICY_CHOICES",
    "BlockConditions",
    "BlockHealth",
    "BlockStore",
    "HealthTracker",
    "LoadReport",
    "MemoryArray",
    "SchemeOption",
    "SchemePolicyEngine",
    "ServiceController",
    "ServiceTelemetry",
    "ShardResult",
    "ShardTask",
    "build_workload",
    "default_policy_options",
    "drain_vector",
    "kernel_for",
    "run_load",
    "run_shard",
    "validate_policy",
]
