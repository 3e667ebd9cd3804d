"""Multi-tenant cluster front-end over sharded memory arrays.

The cluster layer places tenant keys on a fleet of
:class:`~repro.service.MemoryArray`\\ s with deterministic consistent
hashing, enforces two-class QoS admission at each array's write buffer,
and runs a control plane that live-migrates keys off degraded or draining
arrays.  :mod:`repro.cluster.frontend` exposes it over asyncio
(``repro serve``); :mod:`repro.cluster.bench` drives it deterministically
(``repro cluster-bench``).
"""

from repro.cluster.bench import (
    ClusterBenchReport,
    ClusterBenchTask,
    run_cluster_bench,
)
from repro.cluster.frontend import (
    ClusterFrontend,
    LoopbackClient,
    decode_payload,
    encode_payload,
    loopback_selftest,
)
from repro.cluster.qos import QoSClass, TenantSpec, default_tenants
from repro.cluster.ring import HashRing, stable_hash64
from repro.cluster.service import ClusterNode, ClusterService

__all__ = [
    "ClusterBenchReport",
    "ClusterBenchTask",
    "ClusterFrontend",
    "ClusterNode",
    "ClusterService",
    "HashRing",
    "LoopbackClient",
    "QoSClass",
    "TenantSpec",
    "decode_payload",
    "default_tenants",
    "encode_payload",
    "loopback_selftest",
    "run_cluster_bench",
    "stable_hash64",
]
