"""Memory blocks ("pages"): the allocation granularity (paper §3.1).

A page groups a number of protected data blocks — 64 x 512-bit or
128 x 256-bit blocks for the paper's 4 KB pages.  The page is the unit the
OS allocates and the unit whose failure the evaluation measures: "when any
of its data blocks has an unrecoverable fault, the memory block is
considered to be a failed one ... which concludes the lifetime of the
memory block."
"""

from __future__ import annotations

import numpy as np

from repro.errors import BlockRetiredError, UncorrectableError
from repro.pcm.block import ProtectedBlock, SchemeFactory
from repro.pcm.lifetime import LifetimeModel


class Page:
    """A memory block of ``n_blocks`` protected data blocks."""

    def __init__(
        self,
        block_bits: int,
        n_blocks: int,
        scheme_factory: SchemeFactory,
        *,
        lifetime_model: LifetimeModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.rng = rng if rng is not None else np.random.default_rng()
        self.block_bits = block_bits
        self.blocks = [
            ProtectedBlock(
                block_bits,
                scheme_factory,
                lifetime_model=lifetime_model,
                rng=self.rng,
            )
            for _ in range(n_blocks)
        ]
        self.writes_serviced = 0
        self._failed = False

    @property
    def n_bits(self) -> int:
        return self.block_bits * len(self.blocks)

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def fault_count(self) -> int:
        """Total stuck cells across the page."""
        return sum(block.fault_count for block in self.blocks)

    def write(self, data: np.ndarray) -> None:
        """Service a full-page write (one write per data block).

        The first block failure marks the whole page failed; the page raises
        :class:`UncorrectableError` and accepts no further traffic.
        """
        if self._failed:
            raise BlockRetiredError("page already failed")
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.n_bits,):
            raise ValueError(f"page write needs shape ({self.n_bits},), got {data.shape}")
        for i, block in enumerate(self.blocks):
            chunk = data[i * self.block_bits : (i + 1) * self.block_bits]
            try:
                block.write(chunk)
            except UncorrectableError:
                self._failed = True
                raise
        self.writes_serviced += 1

    def write_random(self) -> None:
        self.write(self.rng.integers(0, 2, size=self.n_bits, dtype=np.uint8))

    def read(self) -> np.ndarray:
        return np.concatenate([block.read() for block in self.blocks])
