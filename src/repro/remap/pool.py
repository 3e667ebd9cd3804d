"""A FREE-p-style spare pool over physical block indices.

:mod:`repro.remap.sim` evaluates spare-backed recovery statistically
(event-driven lifetimes); :class:`SparePool` is the same idea as a live
data structure, used by the service layer's :class:`repro.service.MemoryArray`
to take over a failed block's address with a fresh physical block.  The
pool does not distinguish "data" from "spare" regions — any unallocated
block can serve a fresh address or a remap, which is exactly FREE-p's
graceful-degradation property: capacity shrinks block by block instead of
partition by partition.

Allocation is delegated to a
:class:`~repro.pcm.wear.WearLevelingPolicy` restricted to the free blocks,
so the same policies that level the paper's device model also level
service-layer placement.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.pcm.wear import WearLevelingPolicy


class SparePool:
    """Tracks which of ``n_blocks`` physical blocks are free to allocate."""

    def __init__(self, n_blocks: int, free: Iterable[int] | None = None) -> None:
        if n_blocks < 1:
            raise ConfigurationError("a spare pool needs at least one block")
        self.n_blocks = n_blocks
        self._free = np.full(n_blocks, free is None)
        for index in () if free is None else free:
            if not 0 <= index < n_blocks:
                raise ConfigurationError(f"free index {index} outside pool of {n_blocks}")
            self._free[index] = True
        self._remaining = int(self._free.sum())
        #: what placement policies see: the free mask, read-only
        self._free_view = self._free.view()
        self._free_view.flags.writeable = False
        self.allocations = 0

    @property
    def remaining(self) -> int:
        """Free blocks left in the pool."""
        return self._remaining

    def allocate(
        self,
        logical: int,
        policy: WearLevelingPolicy,
        rng: np.random.Generator,
    ) -> int | None:
        """Claim a free block for ``logical``, placed by ``policy`` (which
        is handed a read-only view of the free mask).

        Returns the physical index, or ``None`` when the pool is exhausted
        (the caller decides whether that is a :class:`RetiredBlockError`).
        """
        if self._remaining == 0:
            return None
        index = policy.place(logical, self._free_view, rng)
        if not self._free[index]:
            raise ConfigurationError(
                f"wear-leveling policy placed logical {logical} on allocated block {index}"
            )
        self._free[index] = False
        self._remaining -= 1
        self.allocations += 1
        return index
