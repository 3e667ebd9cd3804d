"""Vectorised Aegis partition engine.

:class:`AegisPartition` wraps a :class:`~repro.core.geometry.Rectangle` with
precomputed numpy lookup tables so the hot operations of the recovery
controllers and Monte Carlo simulators are O(1) array lookups:

* ``group_ids(slope)`` — group ID of every block bit under a slope (one row
  of a ``B x n`` table, the software twin of the paper's Figure 3 ROM);
* ``members_mask(slope, groups)`` — 0/1 mask of the bits belonging to a set
  of groups (the Figure 4 inversion-mask ROM);
* ``find_separating_slope`` — the re-partition walk of §2.2: starting from
  the current slope-counter value, advance until a configuration is found
  in which all given fault offsets occupy distinct groups.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from repro.core.geometry import Rectangle


class AegisPartition:
    """Precomputed partition tables for one rectangle."""

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        offsets = np.arange(rect.n_bits, dtype=np.int64)
        a = offsets % rect.a_size
        b = offsets // rect.a_size
        slopes = np.arange(rect.b_size, dtype=np.int64)[:, None]
        # _table[k, x] = group of bit x under slope k; instances are shared
        # chip-wide via partition_for, so the table is sealed read-only
        self._table = ((b[None, :] - a[None, :] * slopes) % rect.b_size).astype(np.int16)
        self._table.flags.writeable = False
        self._members: dict[tuple[int, int], np.ndarray] = {}
        self._member_table: np.ndarray | None = None

    @property
    def n_bits(self) -> int:
        return self.rect.n_bits

    @property
    def slope_count(self) -> int:
        return self.rect.slope_count

    @property
    def group_count(self) -> int:
        return self.rect.group_count

    def group_ids(self, slope: int) -> np.ndarray:
        """Group ID of every bit under ``slope`` (read-only view)."""
        return self._table[slope]

    def members_array(self, group: int, slope: int) -> np.ndarray:
        """Bit offsets of ``group`` under ``slope`` as a shared read-only
        ``int64`` array (ascending) — the memoised counterpart of
        :meth:`Rectangle.group_members`, built once per (slope, group) and
        reused by every checker sharing this partition instance."""
        key = (slope, group)
        members = self._members.get(key)
        if members is None:
            members = np.flatnonzero(self._table[slope] == group).astype(np.int64)
            members.flags.writeable = False
            self._members[key] = members
        return members

    def member_table(self) -> np.ndarray:
        """Every group's bit offsets at once: ``table[slope, group]`` holds
        the ascending members of ``group`` under ``slope``, ``-1``-padded to
        the largest group.  Built on first use, shared and read-only."""
        if self._member_table is None:
            n_slopes, n_bits = self._table.shape
            order = np.argsort(self._table, axis=1, kind="stable")
            grouped = np.take_along_axis(self._table, order, axis=1).astype(np.int64)
            rows = np.arange(n_slopes)[:, None]
            counts = np.zeros((n_slopes, int(self._table.max()) + 1), dtype=np.int64)
            np.add.at(counts, (rows, grouped), 1)
            # position of each sorted cell within its group
            rank = np.arange(n_bits) - np.take_along_axis(
                np.cumsum(counts, axis=1) - counts, grouped, axis=1
            )
            table = np.full((*counts.shape, int(counts.max())), -1, dtype=np.int64)
            table[rows, grouped, rank] = order
            table.flags.writeable = False
            self._member_table = table
        return self._member_table

    def group_of(self, offset: int, slope: int) -> int:
        """Group ID of one bit under ``slope``."""
        return int(self._table[slope, offset])

    def members_mask(self, slope: int, groups: Iterable[int] | np.ndarray) -> np.ndarray:
        """0/1 ``uint8`` mask selecting the bits of the given groups."""
        selected = np.zeros(self.rect.b_size, dtype=bool)
        selected[np.asarray(list(groups) if not isinstance(groups, np.ndarray) else groups, dtype=np.int64)] = True
        return selected[self._table[slope]].astype(np.uint8)

    def separates(self, slope: int, offsets: Iterable[int]) -> bool:
        """True when all ``offsets`` fall into distinct groups under ``slope``."""
        ids = self._table[slope, np.fromiter(offsets, dtype=np.int64)]
        return len(np.unique(ids)) == ids.size

    def find_separating_slope(
        self, offsets: Iterable[int], start: int = 0
    ) -> tuple[int, int] | None:
        """Walk slopes from ``start`` (wrapping) until one separates all
        ``offsets`` into distinct groups.

        Returns ``(slope, trials)`` where ``trials`` counts the
        configurations examined (1 when the current one already works), or
        ``None`` when no configuration separates the faults — the block is
        unrecoverable for plain Aegis.
        """
        offs = np.fromiter(offsets, dtype=np.int64)
        if offs.size <= 1:
            return start % self.rect.b_size, 1
        for trial in range(self.rect.b_size):
            slope = (start + trial) % self.rect.b_size
            ids = self._table[slope, offs]
            if len(np.unique(ids)) == ids.size:
                return slope, trial + 1
        return None

    def groups_hit(self, slope: int, offsets: Iterable[int]) -> list[int]:
        """Sorted distinct group IDs containing any of ``offsets``."""
        offs = np.fromiter(offsets, dtype=np.int64)
        if offs.size == 0:
            return []
        return [int(g) for g in np.unique(self._table[slope, offs])]


@lru_cache(maxsize=None)
def partition_for(rect: Rectangle) -> AegisPartition:
    """Shared, cached partition tables for a rectangle (tables are immutable)."""
    return AegisPartition(rect)
