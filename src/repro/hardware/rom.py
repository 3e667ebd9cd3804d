"""Gate-level models of the paper's Figure 3 and Figure 4 lookup logic.

The Aegis controller needs two combinational functions, both implemented in
the paper with small ROMs shared by all blocks of a chip:

* **Figure 3** — *which group does a fault belong to?*  A ``B*B x n`` ROM
  holds, for every (slope, group) combination, the one-hot membership word
  of that group; a second ``B*B x B`` ROM maps each combination row to its
  group ID.  Looking up a fault address selects the membership column; the
  row that fires under the current slope yields the group ID.
* **Figure 4** — *which bits must be written inverted?*  An AND-gate array
  combines the decoded slope with the inversion vector to select
  combination rows; OR-ing the selected membership words produces the
  inversion mask for the whole block.

These classes emulate the ROMs bit-for-bit and are cross-validated against
the arithmetic partition tables in ``tests/test_hardware.py`` — the
hardware and the math must agree everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.core.geometry import Rectangle
from repro.core.partition import partition_for


class GroupIdRom:
    """The Figure 3 structure: fault address + slope -> group ID."""

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        b = rect.b_size
        partition = partition_for(rect)
        # membership[slope * B + group, bit] = 1 when the bit is in the group
        self.membership = np.zeros((b * b, rect.n_bits), dtype=np.uint8)
        # group_id[combination] = the combination's group
        self.group_ids = np.zeros(b * b, dtype=np.int16)
        for slope in range(b):
            ids = partition.group_ids(slope)
            for group in range(b):
                row = slope * b + group
                self.membership[row] = (ids == group).astype(np.uint8)
                self.group_ids[row] = group

    def lookup(self, address: int, slope: int) -> int:
        """Group ID of the bit at ``address`` under ``slope`` (the Figure 3
        datapath: select the address column, find the firing row among the
        current slope's combinations, read its ID)."""
        if not 0 <= address < self.rect.n_bits:
            raise ValueError(f"address {address} outside block")
        if not 0 <= slope < self.rect.b_size:
            raise ValueError(f"slope {slope} outside [0, {self.rect.b_size})")
        b = self.rect.b_size
        column = self.membership[slope * b : (slope + 1) * b, address]
        fired = np.flatnonzero(column)
        if fired.size != 1:
            raise AssertionError(
                "exactly one group row must fire (Theorem 1)"
            )  # pragma: no cover - guaranteed by construction
        return int(self.group_ids[slope * b + fired[0]])


class InversionMaskRom:
    """The Figure 4 structure: slope + inversion vector -> inversion mask."""

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        self._group_rom = GroupIdRom(rect)

    def mask_for(self, slope: int, inversion_vector: np.ndarray) -> np.ndarray:
        """0/1 mask of bits to invert, given the decoded slope and the
        per-group inversion flags."""
        inversion_vector = np.asarray(inversion_vector, dtype=np.uint8)
        if inversion_vector.shape != (self.rect.b_size,):
            raise ValueError(
                f"inversion vector must have {self.rect.b_size} bits"
            )
        b = self.rect.b_size
        # the AND array: combination row (slope*B + group) fires when the
        # slope matches and the group's inversion flag is set
        selected = np.zeros(b * b, dtype=bool)
        selected[slope * b : (slope + 1) * b] = inversion_vector.astype(bool)
        # the OR plane over selected membership words
        if not selected.any():
            return np.zeros(self.rect.n_bits, dtype=np.uint8)
        return np.bitwise_or.reduce(self._group_rom.membership[selected], axis=0)
