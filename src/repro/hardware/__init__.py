"""Gate-level models of the paper's lookup hardware (Figures 3 and 4)."""

from repro.hardware.cost import ChipCost, chip_cost
from repro.hardware.rom import GroupIdRom, InversionMaskRom

__all__ = [
    "ChipCost",
    "GroupIdRom",
    "InversionMaskRom",
    "chip_cost",
]
