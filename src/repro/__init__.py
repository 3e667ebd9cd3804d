"""repro — a full reproduction of *Aegis: Partitioning Data Block for
Efficient Recovery of Stuck-at-Faults in Phase Change Memory* (MICRO-46,
2013).

Public API layers
-----------------
``repro.core``
    The paper's contribution: the Cartesian partition scheme (Theorems 1
    and 2), the Aegis controller, and the Aegis-rw / Aegis-rw-p variants.
``repro.schemes``
    The comparator baselines (ECP, SAFER, SAFER-cache, RDIS, Hamming
    SEC-DED, no protection) behind one ``RecoveryScheme`` interface.
``repro.pcm``
    The device substrate: stuck-at cells, endurance models, protected
    blocks, 4 KB pages, devices, wear leveling, and the fail cache.
``repro.sim``
    Event-driven Monte Carlo engines reproducing the paper's evaluation at
    full scale.
``repro.service``
    The serving layer: :class:`MemoryArray` (logical addresses with
    graceful degradation and spare remapping), the request pipeline
    (:class:`ServiceController`), telemetry, and a deterministic load
    generator (``aegis-repro serve-bench``).
``repro.experiments``
    One driver per paper table/figure (Table 1, Figures 5-13), also exposed
    through the ``aegis-repro`` command line tool.

Quickstart
----------
>>> import numpy as np
>>> from repro import AegisScheme, CellArray, formation
>>> cells = CellArray(512)
>>> cells.inject_fault(17, stuck_value=1)
>>> scheme = AegisScheme(cells, formation(9, 61, 512))
>>> data = np.zeros(512, dtype=np.uint8)
>>> _ = scheme.write(data)          # the stuck-at-1 cell is masked by inversion
>>> bool(np.array_equal(scheme.read(), data))
True
"""

from repro.core import (
    AegisDoubleWriteScheme,
    AegisPartition,
    AegisRwPScheme,
    AegisRwScheme,
    AegisScheme,
    CollisionROM,
    Formation,
    Rectangle,
    aegis_hard_ftc,
    aegis_rw_hard_ftc,
    formation,
    minimal_rectangle,
    rectangle_for,
    standard_formations,
)
from repro.errors import (
    BlockRetiredError,
    CacheMissError,
    ConfigurationError,
    ReproError,
    RetiredBlockError,
    UncorrectableError,
)
from repro.pcm import (
    CellArray,
    DirectMappedFailCache,
    NormalLifetime,
    Page,
    PCMDevice,
    PerfectWearLeveling,
    ProtectedBlock,
    WriteBuffer,
)
from repro.schemes import (
    EcpScheme,
    HammingScheme,
    NoProtectionScheme,
    OracleKnowledge,
    RdisScheme,
    RecoveryScheme,
    SaferCacheScheme,
    SaferScheme,
    WriteReceipt,
    roundtrip,
)
from repro.service import (
    BlockHealth,
    MemoryArray,
    ServiceController,
    ServiceTelemetry,
)

__version__ = "1.0.0"

__all__ = [
    "AegisDoubleWriteScheme",
    "AegisPartition",
    "AegisRwPScheme",
    "AegisRwScheme",
    "AegisScheme",
    "BlockHealth",
    "BlockRetiredError",
    "CacheMissError",
    "CellArray",
    "CollisionROM",
    "ConfigurationError",
    "DirectMappedFailCache",
    "EcpScheme",
    "Formation",
    "HammingScheme",
    "MemoryArray",
    "NoProtectionScheme",
    "NormalLifetime",
    "OracleKnowledge",
    "PCMDevice",
    "Page",
    "PerfectWearLeveling",
    "ProtectedBlock",
    "RdisScheme",
    "Rectangle",
    "RecoveryScheme",
    "ReproError",
    "RetiredBlockError",
    "SaferCacheScheme",
    "SaferScheme",
    "ServiceController",
    "ServiceTelemetry",
    "UncorrectableError",
    "WriteBuffer",
    "WriteReceipt",
    "aegis_hard_ftc",
    "aegis_rw_hard_ftc",
    "formation",
    "minimal_rectangle",
    "rectangle_for",
    "roundtrip",
    "standard_formations",
]
