"""The paper's contribution: the Aegis partition scheme and its controllers."""

from repro.core.aegis import AegisScheme
from repro.core.aegis_dw import AegisDoubleWriteScheme
from repro.core.aegis_rw import AegisRwScheme, classify_faults
from repro.core.aegis_rw_p import AegisRwPScheme
from repro.core.collision import NO_COLLISION, CollisionROM, collision_rom_for
from repro.core.formations import (
    Formation,
    aegis_cost_for_ftc,
    aegis_hard_ftc,
    aegis_rw_cost_for_ftc,
    aegis_rw_hard_ftc,
    aegis_rw_p_cost_for_ftc,
    ecp_cost_for_ftc,
    formation,
    hamming_cost,
    rdis_cost,
    safer_cost,
    safer_cost_for_ftc,
    safer_group_count_for_ftc,
    safer_hard_ftc,
    slopes_needed,
    slopes_needed_rw,
    standard_formations,
)
from repro.core.geometry import (
    Rectangle,
    minimal_rectangle,
    rectangle_for,
    verify_theorem1,
    verify_theorem2,
)
from repro.core.partition import AegisPartition, partition_for

__all__ = [
    "NO_COLLISION",
    "AegisDoubleWriteScheme",
    "AegisPartition",
    "AegisRwPScheme",
    "AegisRwScheme",
    "AegisScheme",
    "CollisionROM",
    "Formation",
    "Rectangle",
    "aegis_cost_for_ftc",
    "aegis_hard_ftc",
    "aegis_rw_cost_for_ftc",
    "aegis_rw_hard_ftc",
    "aegis_rw_p_cost_for_ftc",
    "classify_faults",
    "collision_rom_for",
    "ecp_cost_for_ftc",
    "formation",
    "hamming_cost",
    "minimal_rectangle",
    "partition_for",
    "rdis_cost",
    "rectangle_for",
    "safer_cost",
    "safer_cost_for_ftc",
    "safer_group_count_for_ftc",
    "safer_hard_ftc",
    "slopes_needed",
    "slopes_needed_rw",
    "standard_formations",
    "verify_theorem1",
    "verify_theorem2",
]
