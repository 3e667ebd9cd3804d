"""Tenant identity and QoS classes for the cluster front-end.

Two service classes, mirroring the latency/throughput split every
storage front-end ends up with:

``INTERACTIVE``
    Latency-sensitive.  Writes are always admitted; when the target
    array's write buffer fills, an interactive write *triggers* the drain
    (paying the flush inline) instead of waiting behind it.
``BULK``
    Throughput traffic.  Admission-controlled: once the target array's
    write-buffer occupancy crosses the bulk watermark, bulk writes are
    refused with :class:`~repro.errors.BackpressureError` carrying a
    ``retry_after`` hint, so interactive writers keep draining while bulk
    writers back off — the classic two-class admission policy.

A :class:`TenantSpec` is the whole per-tenant contract: identity, QoS
class, a scheduling ``weight`` (its share of a closed-loop schedule) and
its read mix.  Tenants get *disjoint address namespaces* by construction:
every cluster key is ``(tenant_id, address)``, so two tenants writing
address 0 never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError


class QoSClass(Enum):
    INTERACTIVE = "interactive"
    BULK = "bulk"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's service contract (frozen, picklable).

    Parameters
    ----------
    tenant_id:
        Namespace identity; part of every routing key.
    qos:
        Service class (see module docstring).
    weight:
        Relative share of a weighted round-robin schedule (load harness).
    read_fraction:
        Fraction of the tenant's operations that are reads.
    """

    tenant_id: str
    qos: QoSClass = QoSClass.INTERACTIVE
    weight: int = 1
    read_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ConfigurationError("tenant_id cannot be empty")
        if self.weight < 1:
            raise ConfigurationError("tenant weight must be positive")
        if not 0 <= self.read_fraction <= 1:
            raise ConfigurationError("read fraction must be in [0, 1]")


def default_tenants(count: int) -> tuple[TenantSpec, ...]:
    """The standard mixed-QoS tenant roster: even indices interactive,
    odd indices bulk (with double weight, as bulk traffic dominates)."""
    if count < 1:
        raise ConfigurationError("a cluster needs at least one tenant")
    specs = []
    for index in range(count):
        interactive = index % 2 == 0
        specs.append(
            TenantSpec(
                tenant_id=f"tenant{index}",
                qos=QoSClass.INTERACTIVE if interactive else QoSClass.BULK,
                weight=1 if interactive else 2,
            )
        )
    return tuple(specs)
