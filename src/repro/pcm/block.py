"""A protected data block: cells + recovery scheme + endurance-driven wear.

:class:`ProtectedBlock` composes a :class:`~repro.pcm.cell.CellArray` with a
:class:`~repro.schemes.base.RecoveryScheme` and a per-cell endurance budget
drawn from a :class:`~repro.pcm.lifetime.LifetimeModel`.  Every serviced
write consumes endurance on the cells actually programmed; a cell whose
programming count crosses its endurance becomes permanently stuck at the
value it last held — the wear-out mechanism of §3.1, reproduced
write-by-write.

This is the *bit-accurate but slow* device path: it is what the examples
drive and what the fast Monte Carlo engines in :mod:`repro.sim` are
validated against (with small endurance values so blocks die quickly).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.errors import UncorrectableError
from repro.pcm.cell import CellArray, CellRows
from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.schemes.base import RecoveryScheme, SchemeStats, WriteReceipt

#: builds a scheme for a fresh cell array
SchemeFactory = Callable[[CellArray], RecoveryScheme]


class BlockRows(NamedTuple):
    """A block's cell rows and its float64 endurance row."""

    cells: CellRows
    endurance: np.ndarray


class ProtectedBlock:
    """One data block under wear, protected by a recovery scheme.

    ``rows`` builds the block on caller-owned :class:`BlockRows`, writing
    the sampled endurance into its row; by default it owns its arrays.
    """

    def __init__(
        self,
        n_bits: int,
        scheme_factory: SchemeFactory,
        *,
        lifetime_model: LifetimeModel | None = None,
        rng: np.random.Generator | None = None,
        fault_model: object | None = None,
        rows: BlockRows | None = None,
    ) -> None:
        self.rng = rng if rng is not None else np.random.default_rng()
        self.cells = CellArray(
            n_bits, fault_model=fault_model, rows=None if rows is None else rows.cells
        )
        self.scheme = scheme_factory(self.cells)
        model = lifetime_model if lifetime_model is not None else NormalLifetime()
        self.endurance = model.sample(n_bits, self.rng)
        if rows is not None:
            rows.endurance[:] = self.endurance
            self.endurance = rows.endurance
        self.stats = SchemeStats()
        self.writes_serviced = 0

    @property
    def n_bits(self) -> int:
        return self.cells.n_bits

    @property
    def failed(self) -> bool:
        return self.scheme.retired

    @property
    def fault_count(self) -> int:
        return self.cells.fault_count

    def _apply_wear(self) -> list[int]:
        """Kill cells whose programming count crossed their endurance.

        Returns the offsets that died.  A dying cell freezes at the value it
        currently holds (its last successfully stored value).
        """
        dead = np.flatnonzero(
            (self.cells._write_counts >= self.endurance) & ~self.cells._stuck
        )
        for offset in dead:
            self.cells.inject_fault(int(offset))
        return [int(d) for d in dead]

    def write(self, data: np.ndarray) -> WriteReceipt:
        """Service one write request, then age the cells it programmed.

        Raises :class:`UncorrectableError` when the scheme cannot recover,
        which retires the block permanently.
        """
        try:
            receipt = self.scheme.write(data)
        except UncorrectableError:
            self.stats.failures += 1
            raise
        finally:
            self._apply_wear()
        self.stats.record(receipt)
        self.writes_serviced += 1
        return receipt

    def read(self) -> np.ndarray:
        return self.scheme.read()

    def write_random(self) -> WriteReceipt:
        """Service a write of uniformly random data (the evaluation's
        workload model)."""
        data = self.rng.integers(0, 2, size=self.n_bits, dtype=np.uint8)
        return self.write(data)
