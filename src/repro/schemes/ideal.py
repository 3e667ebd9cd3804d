"""The degenerate scheme: the unprotected baseline.

``NoProtectionScheme`` is the paper's reference point for lifetime
improvement (Figures 6 and 12): a block with no recovery metadata fails on
the first write for which some stuck cell holds the wrong value — under
random data, essentially as soon as the first cell dies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import RecoveryScheme, WriteReceipt


class NoProtectionScheme(RecoveryScheme):
    """No recovery at all: any stuck-at-wrong cell is an unrecoverable error."""

    def __init__(self, cells: CellArray) -> None:
        super().__init__(cells)

    @property
    def name(self) -> str:
        return "None"

    @property
    def overhead_bits(self) -> int:
        return 0

    @property
    def hard_ftc(self) -> int:
        return 0

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        receipt.cell_writes += self.cells.write(data)
        receipt.verification_reads += 1
        mismatches = self.cells.verify(data)
        if mismatches.size:
            raise UncorrectableError(
                f"{self.name}: {mismatches.size} stuck-at-wrong cells",
                fault_offsets=tuple(int(m) for m in mismatches),
            )
        return receipt

    def read(self) -> np.ndarray:
        return self.cells.read()

