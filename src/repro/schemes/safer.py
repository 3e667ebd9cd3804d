"""SAFER — Stuck-At-Fault Error Recovery (Seong et al., MICRO 2010; §1.2).

The partition-and-inversion comparator in the paper's evaluation.  SAFER
partitions the block by a *partition vector*: a set of up to ``m`` selected
bit-positions of the in-block offset address.  A bit's group is the value of
its offset at the selected positions, so ``j`` selected positions induce
``2^j`` groups and the hardware budgets for ``N = 2^m`` inversion flags.

Two re-partition policies are provided (DESIGN.md §4):

* ``"incremental"`` — faithful to SAFER's hardware: the vector only ever
  *grows*; when two detected faults collide, one bit-position at which their
  addresses differ is appended.  With the vector full, any further collision
  kills the block.  This is the behaviour the Aegis paper critiques (only
  ``n + 1`` usable configurations).
* ``"exhaustive"`` — a generous upper bound: search every combination of at
  most ``m`` positions for one that separates all detected faults.  For
  512-bit blocks that is at most ``C(9, m) <= 126`` candidates, so the
  search is trivially cheap in software even though SAFER's hardware cannot
  perform it.  Benchmarks default to this policy so that the reproduced
  Aegis advantage is conservative.

``SaferCacheScheme`` adds the paper's fail-cache variant (SAFER-N-cache):
with known stuck-at values, a group may hold any number of same-type faults,
so the vector search only needs to avoid mixing W and R faults in a group,
and the block is programmed in a single pass.
"""

from __future__ import annotations

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


def vector_values(offsets: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    """Array form of :func:`vector_value`: the group of every offset in
    ``offsets``, as ``int64``.

    >>> vector_values(np.arange(4), (1,)).tolist()
    [0, 0, 1, 1]
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    ids = np.zeros(offsets.shape, dtype=np.int64)
    for i, position in enumerate(positions):
        ids |= ((offsets >> position) & 1) << i
    return ids


@lru_cache(maxsize=None)
def group_ids(n_bits: int, positions: tuple[int, ...]) -> np.ndarray:
    """:func:`vector_values` of every bit of an ``n_bits`` block, cached
    process-wide as one shared read-only array per partition vector."""
    ids = vector_values(np.arange(n_bits), positions)
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


def colliding_pairs(positions: tuple[int, ...], offsets: list[int]) -> int:
    """Number of fault pairs sharing a vector value under ``positions``."""
    counts: dict[int, int] = {}
    for offset in offsets:
        value = vector_value(offset, positions)
        counts[value] = counts.get(value, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def best_extension(
    positions: tuple[int, ...],
    faults: list[int],
    colliding: tuple[int, int],
    addr_bits: int,
) -> int | None:
    """The position to append to a partition vector: among the positions at
    which the colliding pair differs, the one leaving the fewest colliding
    pairs overall (ties broken toward the lowest index)."""
    differing = colliding[0] ^ colliding[1]
    best: int | None = None
    best_score = None
    for position in range(addr_bits):
        if position in positions or not (differing >> position) & 1:
            continue
        score = colliding_pairs((*positions, position), faults)
        if best_score is None or score < best_score:
            best, best_score = position, score
    return best


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
        if policy not in ("incremental", "exhaustive"):
            raise ConfigurationError(f"unknown SAFER policy {policy!r}")
        self.group_count = group_count
        self.max_positions = ceil_log2(group_count)
        self.addr_bits = ceil_log2(cells.n_bits)
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
        if self.policy == "exhaustive":
            for size in range(self.max_positions + 1):
                for candidate in combinations(range(self.addr_bits), size):
                    if separates(candidate, faults):
                        return candidate
            raise UncorrectableError(
                f"{self.name}: no {self.max_positions}-position vector separates "
                f"{len(faults)} faults",
                fault_offsets=tuple(faults),
            )
        # incremental: extend the current vector one position at a time,
        # choosing the distinguishing position that minimises remaining
        # collisions (the hardware can evaluate all candidate positions
        # against its fail-address registers in parallel)
        positions = self.positions
        while not separates(positions, faults):
            if len(positions) >= self.max_positions:
                raise UncorrectableError(
                    f"{self.name}: partition vector full with a collision remaining",
                    fault_offsets=tuple(faults),
                )
            colliding = self._first_colliding_pair(positions, faults)
            added = best_extension(positions, faults, colliding, self.addr_bits)
            if added is None:
                raise UncorrectableError(
                    f"{self.name}: no free position distinguishes colliding faults",
                    fault_offsets=tuple(faults),
                )
            positions = (*positions, added)
        return positions

    @staticmethod
    def _first_colliding_pair(
        positions: tuple[int, ...], faults: list[int]
    ) -> tuple[int, int]:
        seen: dict[int, int] = {}
        for offset in faults:
            value = vector_value(offset, positions)
            if value in seen:
                return seen[value], offset
            seen[value] = offset
        raise AssertionError("no collision among separated faults")  # pragma: no cover

    # -- data path -----------------------------------------------------------

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        detected: set[int] = set()
        max_iterations = 2 * self.cells.n_bits + self.addr_bits + 4
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


def grow_vector_for_mixing(
    positions: tuple[int, ...],
    wrong: list[int],
    right: list[int],
    max_positions: int,
    addr_bits: int,
) -> tuple[int, ...] | None:
    """Extend a grow-only partition vector until no group mixes a W fault
    with an R fault; ``None`` when the vector fills up with mixing left.

    This is the cache-assisted collision rule on SAFER's actual hardware:
    the fail cache relaxes *what counts as a collision* (same-type faults
    may share a group) but the partition vector still only ever grows.
    """
    while True:
        w_groups: dict[int, int] = {}
        for offset in wrong:
            w_groups[vector_value(offset, positions)] = offset
        mixing: tuple[int, int] | None = None
        for offset in right:
            value = vector_value(offset, positions)
            if value in w_groups:
                mixing = (w_groups[value], offset)
                break
        if mixing is None:
            return positions
        if len(positions) >= max_positions:
            return None
        added = best_extension(positions, [*wrong, *right], mixing, addr_bits)
        if added is None:
            return None
        positions = (*positions, added)


class SaferCacheScheme(RecoveryScheme):
    """SAFER-N-cache: SAFER with a fail cache revealing stuck-at values.

    The cache buys two things (paper §2.4): groups may hold any number of
    *same-type* faults (only W/R mixing forces a re-partition), and writes
    complete in a single pass.  The partition vector itself remains SAFER's
    grow-only hardware structure.
    """

    def __init__(
        self,
        cells: CellArray,
        group_count: int,
        knowledge: FaultKnowledge | None = None,
    ) -> None:
        super().__init__(cells)
        check_group_count(group_count, cells.n_bits)
        self.group_count = group_count
        self.max_positions = ceil_log2(group_count)
        self.addr_bits = ceil_log2(cells.n_bits)
        self.knowledge = knowledge if knowledge is not None else OracleKnowledge()
        self.positions: tuple[int, ...] = ()
        self.inversion = np.zeros(group_count, dtype=np.uint8)

    @property
    def name(self) -> str:
        return f"SAFER{self.group_count}-cache"

    @property
    def overhead_bits(self) -> int:
        """Per-block bits only; the fail cache is chip-shared SRAM whose
        cost the paper deliberately leaves out of this accounting."""
        return safer_cost(self.group_count, self.cells.n_bits)

    @property
    def hard_ftc(self) -> int:
        """The grow-only separation guarantee carries over: ``m + 1``
        faults are always fully separable, hence never type-mixed."""
        return safer_hard_ftc(self.group_count)

    def _inversion_mask(self) -> np.ndarray:
        ids = group_ids(self.cells.n_bits, self.positions)
        return self.inversion[ids].astype(np.uint8)

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        max_attempts = self.cells.n_bits + 2
        for _ in range(max_attempts):
            faults = self.knowledge.known_faults(self.cells)
            wrong = [o for o, stuck in faults.items() if stuck != int(data[o])]
            right = [o for o, stuck in faults.items() if stuck == int(data[o])]
            vector = grow_vector_for_mixing(
                self.positions, wrong, right, self.max_positions, self.addr_bits
            )
            if vector is None:
                raise UncorrectableError(
                    f"{self.name}: partition vector full with W and R faults "
                    f"mixed ({len(wrong)} W, {len(right)} R)",
                    fault_offsets=tuple(sorted(faults)),
                )
            self.positions = vector
            self.inversion[:] = 0
            for offset in wrong:
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

    def read(self) -> np.ndarray:
        return np.bitwise_xor(self.cells.read(), self._inversion_mask())
