"""PAYG's shared pieces: the GEC pool and the overhead accounting.

Every block starts under a one-entry ECP (the LEC), which handles the
common case — most blocks die with very few faults thanks to lifetime
variability.  When a block's faults exceed the LEC, it requests a GEC
allocation: a full recovery-scheme metadata slot (Aegis here) from a
finite, chip-shared :class:`GecPool`.  :mod:`repro.payg.sim` runs that
policy as a Monte Carlo page study.

The overhead accounting follows PAYG's scheme: per-block LEC bits, plus
``pool_entries x (GEC metadata + a block-address tag)`` amortised over all
blocks.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.util.bitops import ceil_log2


class GecPool:
    """A finite pool of global error-correction slots."""

    def __init__(self, entries: int) -> None:
        if entries < 0:
            raise ConfigurationError("GEC pool size must be non-negative")
        self.entries = entries
        self.allocated = 0

    def try_allocate(self) -> bool:
        """Claim one slot; ``False`` when the pool is exhausted."""
        if self.allocated >= self.entries:
            return False
        self.allocated += 1
        return True


def payg_overhead_bits(
    n_blocks: int,
    block_bits: int,
    pool_entries: int,
    gec_bits: int,
    *,
    lec_pointers: int = 1,
) -> float:
    """Average per-block overhead of a PAYG organisation.

    ``LEC + pool_entries * (gec_bits + tag) / n_blocks`` where the tag
    addresses the owning block (PAYG's set-associative GEC directory is
    approximated by a full block-address tag — a slightly pessimistic
    bound).
    """
    if n_blocks <= 0:
        raise ConfigurationError("n_blocks must be positive")
    lec_bits = 1 + lec_pointers * (ceil_log2(block_bits) + 1)
    tag_bits = ceil_log2(max(n_blocks, 2))
    return lec_bits + pool_entries * (gec_bits + tag_bits) / n_blocks
