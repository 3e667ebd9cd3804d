"""SAFER — Stuck-At-Fault Error Recovery (Seong et al., MICRO 2010; §1.2).

The partition-and-inversion comparator in the paper's evaluation.  SAFER
partitions the block by a *partition vector*: a set of up to ``m`` selected
bit-positions of the in-block offset address.  A bit's group is the value of
its offset at the selected positions, so ``j`` selected positions induce
``2^j`` groups and the hardware budgets for ``N = 2^m`` inversion flags.

Two re-partition policies are provided (DESIGN.md §4):

* ``"incremental"`` — faithful to SAFER's hardware: the vector only ever
  *grows* (:func:`grow_vector`); when two detected faults collide, one
  bit-position at which their addresses differ is appended.  With the
  vector full, any further collision kills the block.  This is the
  behaviour the Aegis paper critiques (only ``n + 1`` usable
  configurations).
* ``"exhaustive"`` — a generous upper bound: search every combination of at
  most ``m`` positions for one that separates all detected faults.  For
  512-bit blocks that is at most ``C(9, m) <= 126`` candidates, so the
  search is trivially cheap in software even though SAFER's hardware cannot
  perform it.

Every figure runs the incremental policy (``safer_spec``'s default).  Only
the rows that build ``SaferScheme(cells, n)`` bare, whose default is
exhaustive, run the upper bound: ext-writecost, ext-latency,
ext-intrablock and ``examples/quickstart.py``.

``SaferCacheScheme`` adds the paper's fail-cache variant (SAFER-N-cache):
with known stuck-at values, a group may hold any number of same-type faults,
so the vector only has to grow when a group mixes W and R faults, and the
block is programmed in a single pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations

import numpy as np

from repro.core.formations import safer_cost, safer_hard_ftc
from repro.errors import ConfigurationError, UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import FaultKnowledge, OracleKnowledge, RecoveryScheme, WriteReceipt
from repro.util.bitops import ceil_log2


def vector_value(offset: int, positions: tuple[int, ...]) -> int:
    """Group of ``offset`` under a partition vector: its address bits at the
    selected positions, packed LSB-first.

    >>> vector_value(0b1010, (1, 3))
    3
    """
    value = 0
    for i, position in enumerate(positions):
        value |= ((offset >> position) & 1) << i
    return value


@lru_cache(maxsize=None)
def group_ids(n_bits: int, positions: tuple[int, ...]) -> np.ndarray:
    """:func:`vector_value` of every bit of an ``n_bits`` block, as ``int64``,
    cached process-wide as one shared read-only array per partition vector."""
    offsets = np.arange(n_bits, dtype=np.int64)
    ids = np.zeros(n_bits, dtype=np.int64)
    for i, position in enumerate(positions):
        ids |= ((offsets >> position) & 1) << i
    ids.flags.writeable = False
    return ids


def check_group_count(group_count: int, n_bits: int) -> None:
    """Reject a SAFER group count that is not a power of two in
    ``[2, n_bits]``."""
    if group_count < 2 or group_count & (group_count - 1):
        raise ConfigurationError(
            f"SAFER group count must be a power of two >= 2, got {group_count}"
        )
    if group_count > n_bits:
        raise ConfigurationError("SAFER cannot use more groups than block bits")


def separates(positions: tuple[int, ...], offsets: list[int]) -> bool:
    """True when all ``offsets`` have distinct vector values."""
    values = {vector_value(o, positions) for o in offsets}
    return len(values) == len(offsets)


def check_policy(policy: str) -> None:
    """Reject a SAFER re-partition policy other than ``incremental`` or
    ``exhaustive``."""
    if policy not in ("incremental", "exhaustive"):
        raise ConfigurationError(f"unknown SAFER policy {policy!r}")


@lru_cache(maxsize=None)
def partition_vectors(n_bits: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Every ``size``-position partition vector of an ``n_bits`` block, in
    lexicographic order — shared across the thousands of checkers a page
    study constructs."""
    return tuple(combinations(range(ceil_log2(n_bits)), size))


def _crowding(groups: list[int]) -> int:
    """Sum of every group's size squared: the fault count plus twice the
    pairs of faults sharing a group, so it ranks vectors as that pair
    count does (``list.count`` beats a ``Counter`` on the few faults of a
    typical growth step)."""
    return sum(map(groups.count, groups))


def grow_vector(
    positions: tuple[int, ...],
    offsets: Sequence[int],
    max_positions: int,
    wrong: Sequence[bool] | None = None,
) -> tuple[int, ...] | None:
    """SAFER's grow-only rule: append address bits to ``positions`` until no
    group holds a conflict; ``None`` when the vector is full with one left.

    A conflict is two ``offsets`` in one group or, given ``wrong`` (a flag
    per offset: the fail cache's W faults), a W and an R fault in one
    group.  Each step takes one conflicting pair — the first repeated group
    in ``offsets`` order with its first holder, or the first R fault whose
    group holds a W fault with the last such W fault — and appends the bit
    at which the pair differs that leaves the fewest pairs of ``offsets``
    sharing a group (ties toward the lowest bit; the hardware scores every
    candidate against its fail-address registers in parallel).  The pair
    agrees on every selected position, so each such bit is free.
    """
    values = [vector_value(offset, positions) for offset in offsets]
    while True:
        pair = None
        if wrong is None:
            holders: dict[int, int] = {}
            for offset, value in zip(offsets, values):
                if value in holders:
                    pair = holders[value], offset
                    break
                holders[value] = offset
        else:
            last_w = {v: o for o, v, w in zip(offsets, values, wrong) if w}
            for offset, value, is_wrong in zip(offsets, values, wrong):
                if not is_wrong and value in last_w:
                    pair = last_w[value], offset
                    break
        if pair is None:
            return positions
        if len(positions) >= max_positions:
            return None
        shift = len(positions)
        differing = int(pair[0] ^ pair[1])
        added = min(
            (p for p in range(differing.bit_length()) if (differing >> p) & 1),
            key=lambda p: _crowding(
                [v | (((o >> p) & 1) << shift) for o, v in zip(offsets, values)]
            ),
        )
        positions = (*positions, added)
        values = [v | (((o >> added) & 1) << shift) for o, v in zip(offsets, values)]


class SaferScheme(RecoveryScheme):
    """SAFER-N bound to one cell array (no fail cache)."""

    def __init__(
        self,
        cells: CellArray,
        group_count: int,
        *,
        policy: str = "exhaustive",
    ) -> None:
        super().__init__(cells)
        check_group_count(group_count, cells.n_bits)
        check_policy(policy)
        self.group_count = group_count
        self.max_positions = ceil_log2(group_count)
        self.policy = policy
        self.positions: tuple[int, ...] = ()
        self.inversion = np.zeros(group_count, dtype=np.uint8)
        self.known_fault_offsets: set[int] = set()

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return f"SAFER{self.group_count}"

    @property
    def overhead_bits(self) -> int:
        return safer_cost(self.group_count, self.cells.n_bits)

    @property
    def hard_ftc(self) -> int:
        """``m + 1`` under the incremental policy (the published guarantee)."""
        return safer_hard_ftc(self.group_count)

    # -- partition machinery -----------------------------------------------

    def _inversion_mask(self) -> np.ndarray:
        ids = group_ids(self.cells.n_bits, self.positions)
        return self.inversion[ids].astype(np.uint8)

    def _repartition(self, detected: set[int]) -> tuple[int, ...]:
        """Find a vector separating ``detected``; raises when none exists
        under the configured policy."""
        faults = sorted(detected)
        if self.policy == "incremental":
            positions = grow_vector(self.positions, faults, self.max_positions)
            if positions is None:
                raise UncorrectableError(
                    f"{self.name}: partition vector full with a collision remaining",
                    fault_offsets=tuple(faults),
                )
            return positions
        for size in range(self.max_positions + 1):
            for candidate in partition_vectors(self.cells.n_bits, size):
                if separates(candidate, faults):
                    return candidate
        raise UncorrectableError(
            f"{self.name}: no {self.max_positions}-position vector separates "
            f"{len(faults)} faults",
            fault_offsets=tuple(faults),
        )

    # -- data path -----------------------------------------------------------

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        detected: set[int] = set()
        max_iterations = 2 * self.cells.n_bits + ceil_log2(self.cells.n_bits) + 4
        for _ in range(max_iterations):
            stored_form = np.bitwise_xor(data, self._inversion_mask())
            receipt.cell_writes += self.cells.write(stored_form)
            receipt.verification_reads += 1
            mismatches = self.cells.verify(stored_form)
            if mismatches.size == 0:
                self.known_fault_offsets |= detected
                return receipt
            detected.update(int(m) for m in mismatches)
            if separates(self.positions, sorted(detected)):
                flipped = {
                    vector_value(int(m), self.positions) for m in mismatches
                }
                for group in flipped:
                    self.inversion[group] ^= 1
                receipt.inversion_writes += len(flipped)
                continue
            try:
                new_positions = self._repartition(detected)
            except UncorrectableError:
                self.known_fault_offsets |= detected
                raise
            receipt.repartitions += 1
            self.positions = new_positions
            self.inversion[:] = 0
        raise AssertionError(
            f"{self.name}: write service did not converge"
        )  # pragma: no cover - loop is bounded

    def read(self) -> np.ndarray:
        return np.bitwise_xor(self.cells.read(), self._inversion_mask())


class SaferCacheScheme(SaferScheme):
    """SAFER-N-cache: SAFER with a fail cache revealing stuck-at values.

    The cache buys two things (paper §2.4): groups may hold any number of
    *same-type* faults (only W/R mixing forces a re-partition), and writes
    complete in a single pass.  The partition vector itself remains SAFER's
    grow-only hardware structure, so the ``m + 1`` separation guarantee
    carries over: separated faults are never type-mixed.  The per-block
    cost is SAFER's; the fail cache is chip-shared SRAM whose cost the
    paper deliberately leaves out of this accounting.
    """

    def __init__(
        self,
        cells: CellArray,
        group_count: int,
        knowledge: FaultKnowledge | None = None,
    ) -> None:
        super().__init__(cells, group_count, policy="incremental")
        self.knowledge = knowledge if knowledge is not None else OracleKnowledge()

    @property
    def name(self) -> str:
        return f"SAFER{self.group_count}-cache"

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        max_attempts = self.cells.n_bits + 2
        for _ in range(max_attempts):
            faults = self.knowledge.known_faults(self.cells)
            offsets = list(faults)
            wrong = [stuck != int(data[o]) for o, stuck in faults.items()]
            vector = grow_vector(self.positions, offsets, self.max_positions, wrong)
            if vector is None:
                n_wrong = sum(wrong)
                raise UncorrectableError(
                    f"{self.name}: partition vector full with W and R faults "
                    f"mixed ({n_wrong} W, {len(wrong) - n_wrong} R)",
                    fault_offsets=tuple(sorted(faults)),
                )
            self.positions = vector
            self.inversion[:] = 0
            for offset, is_wrong in zip(offsets, wrong):
                if is_wrong:
                    self.inversion[vector_value(offset, vector)] = 1
            stored_form = np.bitwise_xor(data, self._inversion_mask())
            receipt.cell_writes += self.cells.write(stored_form)
            receipt.verification_reads += 1
            mismatches = self.cells.verify(stored_form)
            if mismatches.size == 0:
                return receipt
            receipt.inversion_writes += 1
            for offset in mismatches:
                stored = int(self.cells.read()[offset])
                self.knowledge.record(self.cells, int(offset), stored)
        raise AssertionError(
            f"{self.name}: write service did not converge"
        )  # pragma: no cover - each retry learns a new fault
