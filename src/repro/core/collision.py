"""The pairwise collision-slope ROM (paper §2.4).

Theorem 2 implies any two block bits share a group under *at most one*
slope.  Aegis-rw exploits this with an ``n x n`` ROM holding that unique
slope for every bit pair: given the stuck-at-wrong and stuck-at-right fault
sets of a block, reading the ROM for every (W, R) cross pair yields the set
of *poisoned* slopes; any slope outside that set is a collision-free
configuration, found without trial writes.

:class:`CollisionROM` is the vectorised software model of that ROM.  Entries
for same-column pairs (which never collide) hold :data:`NO_COLLISION`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from repro.core.geometry import Rectangle
from repro.util.primes import mod_inverse

#: sentinel for pairs that never share a group (same-column pairs)
NO_COLLISION = -1


class CollisionROM:
    """``n x n`` table of the unique colliding slope of every bit pair."""

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        n, a_size, b_size = rect.n_bits, rect.a_size, rect.b_size
        offsets = np.arange(n, dtype=np.int32)
        a = offsets % a_size
        b = offsets // a_size
        # multiplicative inverses of 1..B-1 modulo the prime B
        inverses = np.zeros(b_size, dtype=np.int32)
        for residue in range(1, b_size):
            inverses[residue] = mod_inverse(residue, b_size)
        # a pair's slope depends only on its column and row differences
        # mod B: tabulate db * inverse(da) once, then look every pair up
        by_diff = (np.arange(b_size, dtype=np.int32) * inverses[:, None]) % b_size
        by_diff[0] = NO_COLLISION  # same column: never collide
        da = (a[:, None] - a[None, :]) % b_size
        db = (b[:, None] - b[None, :]) % b_size
        # shared chip-wide via collision_rom_for: sealed read-only
        self._table = by_diff.astype(np.int16).ravel()[da * b_size + db]
        self._table.flags.writeable = False

    @property
    def n_bits(self) -> int:
        return self.rect.n_bits

    @property
    def storage_bits(self) -> int:
        """ROM size in bits: ``n * n * ceil(log2 B)`` (paper §2.4).

        This is chip-shared hardware, not per-block overhead, which is why
        it never appears in Table 1.
        """
        return self.rect.n_bits**2 * max(1, (self.rect.b_size - 1).bit_length())

    def slope_of(self, offset1: int, offset2: int) -> int:
        """Colliding slope of a pair, or :data:`NO_COLLISION`."""
        if offset1 == offset2:
            raise ValueError("a bit does not collide with itself")
        return int(self._table[offset1, offset2])

    def poisoned_slopes(
        self, wrong: Iterable[int], right: Iterable[int]
    ) -> np.ndarray:
        """Distinct slopes on which some W fault collides with some R fault."""
        w = np.fromiter(wrong, dtype=np.int64)
        r = np.fromiter(right, dtype=np.int64)
        if w.size == 0 or r.size == 0:
            return np.empty(0, dtype=np.int16)
        slopes = self._table[np.ix_(w, r)].ravel()
        slopes = slopes[slopes != NO_COLLISION]
        return np.unique(slopes)

    def find_rw_slope(
        self, wrong: Iterable[int], right: Iterable[int], start: int = 0
    ) -> int | None:
        """First slope from ``start`` (wrapping) under which no W fault
        shares a group with an R fault; ``None`` when every slope is
        poisoned."""
        poisoned = set(int(s) for s in self.poisoned_slopes(wrong, right))
        b_size = self.rect.b_size
        for trial in range(b_size):
            slope = (start + trial) % b_size
            if slope not in poisoned:
                return slope
        return None


@lru_cache(maxsize=None)
def collision_rom_for(rect: Rectangle) -> CollisionROM:
    """Shared, cached collision ROM for a rectangle."""
    return CollisionROM(rect)
