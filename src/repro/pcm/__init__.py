"""PCM device substrate: cells, blocks, pages, devices, wear, fail cache."""

from repro.pcm.block import ProtectedBlock, SchemeFactory
from repro.pcm.cell import CellArray
from repro.pcm.device import PCMDevice
from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys
from repro.pcm.faults import (
    FAULT_MODEL_CHOICES,
    DriftBurst,
    FaultModel,
    HardStuckAt,
    PartiallyStuck,
    fault_model_for,
)
from repro.pcm.lifetime import (
    PAPER_COV,
    PAPER_MEAN_LIFETIME,
    CorrelatedLifetime,
    FixedLifetime,
    LifetimeModel,
    LogNormalLifetime,
    NormalLifetime,
)
from repro.pcm.page import Page
from repro.pcm.wear import (
    NoWearLeveling,
    PerfectWearLeveling,
    SecurityRefreshWearLeveling,
    StartGapWearLeveling,
    WearLevelingPolicy,
)
from repro.pcm.workload import (
    HotColdWorkload,
    UniformWorkload,
    Workload,
    ZipfWorkload,
)
from repro.pcm.writebuffer import WriteBuffer

__all__ = [
    "FAULT_MODEL_CHOICES",
    "PAPER_COV",
    "PAPER_MEAN_LIFETIME",
    "CellArray",
    "CorrelatedLifetime",
    "DirectMappedFailCache",
    "DriftBurst",
    "FaultModel",
    "FixedLifetime",
    "HardStuckAt",
    "HotColdWorkload",
    "LifetimeModel",
    "LogNormalLifetime",
    "NoWearLeveling",
    "NormalLifetime",
    "PCMDevice",
    "Page",
    "PartiallyStuck",
    "PerfectWearLeveling",
    "ProtectedBlock",
    "SchemeFactory",
    "SecurityRefreshWearLeveling",
    "SequentialBlockKeys",
    "StartGapWearLeveling",
    "UniformWorkload",
    "WearLevelingPolicy",
    "Workload",
    "WriteBuffer",
    "ZipfWorkload",
    "fault_model_for",
]
