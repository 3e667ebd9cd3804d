"""Recovery schemes: the common interface and every comparator baseline."""

from repro.schemes.base import (
    FaultKnowledge,
    OracleKnowledge,
    RecoveryScheme,
    SchemeStats,
    WriteReceipt,
    roundtrip,
)
from repro.schemes.ecp import EcpScheme
from repro.schemes.hamming import HammingScheme
from repro.schemes.ideal import NoProtectionScheme
from repro.schemes.rdis import RdisScheme, rdis_mask
from repro.schemes.safer import SaferCacheScheme, SaferScheme, separates, vector_value

__all__ = [
    "EcpScheme",
    "FaultKnowledge",
    "HammingScheme",
    "NoProtectionScheme",
    "OracleKnowledge",
    "RdisScheme",
    "RecoveryScheme",
    "SaferCacheScheme",
    "SaferScheme",
    "SchemeStats",
    "WriteReceipt",
    "rdis_mask",
    "roundtrip",
    "separates",
    "vector_value",
]
