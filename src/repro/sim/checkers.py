"""Incremental block-recoverability checkers for the Monte Carlo engines.

The bit-accurate controllers in :mod:`repro.core` and :mod:`repro.schemes`
service every write; at the paper's scale (1e8-write endurance, billions of
page writes) that is infeasible, and also unnecessary: between two cell
deaths the fault set of a block is constant, so the only question the
simulation must answer is *"with this fault set, can the scheme still store
arbitrary data?"* — asked once per fault arrival.

Each checker consumes fault arrivals one at a time via
:meth:`BlockChecker.add_fault` and answers that question incrementally.
Two families exist:

* **static** checkers, for schemes whose recoverability is data-independent
  (plain Aegis, SAFER without a cache, ECP, Hamming, no protection): the
  survival condition is an exact set property of the fault locations.  For
  Aegis it is "some slope separates all faults" — by Theorem 2 each fault
  pair poisons exactly one slope, so the block lives while fewer than
  ``B`` slopes are poisoned.
* **sampled** checkers, for schemes whose recoverability depends on the
  written data (Aegis-rw/-rw-p, SAFER-cache, RDIS): each fault
  arrival draws ``samples`` random data patterns at the fault positions in
  one draw from the walk's :class:`~repro.sim.rng.BitSource` — standing in
  for the millions of real writes that hit the block before the next fault
  arrives — and the block dies if any pattern is unrecoverable, exactly the
  paper's failure criterion.  An arrival's patterns are decided as a whole,
  in numpy passes (Aegis-rw poisoned sets are ``ceil(B / 64)``-word bitsets,
  so ``B > 63`` works) or, for RDIS and SAFER-cache, on per-fault
  ``samples``-bit ints;
  draws never run ahead of the arrival, as callers share the source, and a
  checker draws nothing when it is built.
  Below a fixed fault count, ``draws_from``, an arrival neither draws nor
  fails; from it on, every arrival draws (the page scheduler draws stuck
  values in runs up to the next drawing arrival, page_sim ``_draw_stuck_run``).
  After its draw an arrival is *skipped* (alive, no pattern evaluated) when
  the fault set alone proves every pattern recoverable: for RDIS when no
  fault has both a row-mate and a column-mate (toggle 1 then inverts exactly
  the wrong faults); for Aegis-rw when plain Aegis's poisoned set, which
  holds every split's, misses a slope, and for Aegis-rw-p when also
  ``f <= 2p + 1``; for SAFER-cache when the vector already puts every
  fault in its own group.  Proofs: ``docs/simulation_methods.md`` §2.

Every checker is cross-validated against its bit-accurate controller in
``tests/test_checkers.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import Protocol

import numpy as np

from repro.core.collision import NO_COLLISION, CollisionROM, collision_rom_for
from repro.core.geometry import Rectangle
from repro.core.partition import partition_for
from repro.errors import ConfigurationError
from repro.schemes.hamming import DATA_BITS
from repro.schemes.safer import (
    check_group_count,
    group_ids,
    grow_vector,
    partition_vectors,
    vector_value,
)
from repro.sim.rng import BitSource
from repro.util.bitops import ceil_log2

#: default number of data patterns sampled per fault arrival
DEFAULT_SAMPLES = 128


class BlockChecker(Protocol):
    """Incremental survival oracle for one data block.

    A checker that draws patterns may set ``draws_from``: the fault count
    from which every arrival draws, and below which no arrival draws or
    fails.  Without it the page scheduler assumes any arrival may do both.
    """

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        """Record a new stuck cell; ``False`` means the block just failed."""

    def group_members(self, offset: int) -> np.ndarray:
        """Bits sharing a recovery group with ``offset`` under the current
        configuration — the cells that suffer extra inversion-write wear.
        Empty for schemes without group inversion."""


def _check_samples(samples: int) -> None:
    if samples < 1:  # no draws, no failing pattern: an immortal block
        raise ConfigurationError(f"a sampled checker needs samples >= 1, got {samples}")


@lru_cache(maxsize=64)
def _pair_indices(n: int) -> np.ndarray:
    """Cached, sealed ``np.triu_indices(n, k=1)``: it outweighs a small pattern check."""
    pairs = np.array(np.triu_indices(n, k=1))
    pairs.flags.writeable = False
    return pairs


# ---------------------------------------------------------------------------
# Plain Aegis (static)
# ---------------------------------------------------------------------------


class AegisChecker:
    """Static survival for plain ``A x B`` Aegis.

    Alive iff some slope separates all faults into distinct groups.  Each
    new fault poisons at most one new slope per existing fault (the unique
    colliding slope of the pair, Theorem 2); the block dies when all ``B``
    slopes are poisoned.
    """

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        self._rom = collision_rom_for(rect)
        self._partition = partition_for(rect)
        self.fault_offsets: list[int] = []
        # the offsets again, in a preallocated growable buffer: the ROM row
        # lookup below needs an int64 array every arrival, and rebuilding it
        # from the list is O(f) per fault (O(f^2) per trial)
        self._offset_buffer = np.empty(16, dtype=np.int64)
        self.poisoned: set[int] = set()
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        count = len(self.fault_offsets)
        if count:
            self.poisoned.update(self._rom._table[offset, self._offset_buffer[:count]].tolist())
            self.poisoned.discard(NO_COLLISION)
        if count == self._offset_buffer.shape[0]:
            grown = np.empty(2 * count, dtype=np.int64)
            grown[:count] = self._offset_buffer
            self._offset_buffer = grown
        self._offset_buffer[count] = offset
        self.fault_offsets.append(offset)
        self.alive = len(self.poisoned) < self.rect.b_size
        return self.alive

    def current_slope(self) -> int | None:
        """Lowest unpoisoned slope (the configuration a controller would
        settle on), or ``None`` when dead."""
        for slope in range(self.rect.b_size):
            if slope not in self.poisoned:
                return slope
        return None

    def group_members(self, offset: int) -> np.ndarray:
        slope = self.current_slope()
        if slope is None:
            return np.empty(0, dtype=np.int64)
        group = self._partition.group_of(offset, slope)
        return self._partition.members_array(group, slope)


# ---------------------------------------------------------------------------
# Aegis-rw (sampled)
# ---------------------------------------------------------------------------


class AegisRwChecker:
    """Sampled survival for Aegis-rw.

    A data pattern is recoverable iff some slope has no (W, R) cross-pair
    collision.  For each sampled pattern the poisoned-slope set is the
    collision slopes of all W x R fault pairs; the pattern fails when that
    set covers all ``B`` slopes.  Patterns with too few cross pairs to cover
    ``B`` slopes are skipped analytically.
    """

    def __init__(
        self,
        rect: Rectangle,
        bits: BitSource,
        samples: int = DEFAULT_SAMPLES,
    ) -> None:
        _check_samples(samples)
        self.rect = rect
        self.bits = bits
        self.samples = samples
        self._rom = collision_rom_for(rect)
        self._partition = partition_for(rect)
        self.fault_offsets: list[int] = []
        self.alive = True
        # plain Aegis's poisoned set, the union over all fault pairs
        self._plain = AegisChecker(rect)
        self.draws_from = _rw_draws_from(rect.b_size)

    def _separable(self) -> bool:
        """Whether some slope separates every fault, so that no W/R split
        can poison it.  Folds the faults the plain checker has not seen only
        when asked, i.e. on arrivals that draw."""
        plain = self._plain
        while plain.alive and len(plain.fault_offsets) < len(self.fault_offsets):
            plain.add_fault(self.fault_offsets[len(plain.fault_offsets)], 0)
        return plain.alive

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        f = len(self.fault_offsets)
        b = self.rect.b_size
        if f < self.draws_from:
            return True
        wrong = self.bits.patterns(self.samples, f).view(bool)
        if self._separable():
            return True
        poisoned = _poisoned_slopes(self._rom, self.fault_offsets, wrong)
        # a pattern fails when its split poisons all B slopes
        self.alive = not (np.bitwise_count(poisoned).sum(axis=1) == b).any()
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        """Aegis-rw performs single-pass writes (no extra inversion wear)."""
        return np.empty(0, dtype=np.int64)


@lru_cache(maxsize=None)
def _rw_draws_from(b_size: int) -> int:
    """The fault count from which an Aegis-rw block can fail: below it, the
    most W/R cross pairs any split has, ``(f // 2) * ((f + 1) // 2)``,
    cannot cover ``b_size`` slopes."""
    f = 1
    while (f // 2) * ((f + 1) // 2) < b_size:
        f += 1
    return f


def _poisoned_slopes(rom: CollisionROM, offsets: list[int], wrong: np.ndarray) -> np.ndarray:
    """Poisoned-slope bitsets, ``(samples, ceil(B / 64))`` ``uint64`` words, of
    the W/R splits ``wrong`` (``(samples, f)``): the OR of ``1 << slope`` over a
    split's ``i < j`` cross pairs (Theorem 2; the ROM is symmetric)."""
    offs = np.asarray(offsets, dtype=np.int64)
    i, j = _pair_indices(offs.size)
    slopes = rom._table[offs[i], offs[j]]  # NO_COLLISION (-1) lands in no word
    by_fault = wrong.T.copy()  # row gathers beat column gathers
    cross = by_fault[i] != by_fault[j]  # (pairs, samples)
    bits = np.uint64(1) << (slopes & 63).astype(np.uint64)
    words = np.empty((wrong.shape[0], -(-rom.rect.b_size // 64)), dtype=np.uint64)
    for word in range(words.shape[1]):
        in_word = np.where(slopes >> 6 == word, bits, np.uint64(0))
        words[:, word] = np.bitwise_or.reduce(cross * in_word[:, None], axis=0)
    return words


# ---------------------------------------------------------------------------
# Aegis-rw-p (sampled)
# ---------------------------------------------------------------------------


class AegisRwPChecker(AegisRwChecker):
    """Sampled survival for Aegis-rw-p with a ``p``-pointer budget.

    A pattern is recoverable iff some unpoisoned slope exists at which the
    W-fault groups or the R-fault groups fit within ``p`` pointers.  Fast
    paths: patterns with ``min(f_W, f_R) <= p`` succeed at any unpoisoned
    slope (group count <= fault count), so the expensive per-slope group
    counting only runs for patterns where both sides exceed the budget.
    """

    def __init__(
        self,
        rect: Rectangle,
        pointers: int,
        bits: BitSource,
        samples: int = DEFAULT_SAMPLES,
    ) -> None:
        if pointers < 1:
            raise ConfigurationError("Aegis-rw-p needs at least one pointer")
        super().__init__(rect, bits, samples)
        self.pointers = pointers
        # past p faults a split can overflow the pointer budget
        self.draws_from = min(self.draws_from, pointers + 1)

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        f = len(self.fault_offsets)
        b = self.rect.b_size
        if f < self.draws_from:
            return True  # every split fits the budget and leaves a free slope
        wrong = self.bits.patterns(self.samples, f).view(bool)
        # min(f_W, f_R) <= p for every split, and a separating slope is free
        if f <= 2 * self.pointers + 1 and self._separable():
            return True
        poisoned = _poisoned_slopes(self._rom, self.fault_offsets, wrong)
        recoverable = np.bitwise_count(poisoned).sum(axis=1) < b
        # min(f_W, f_R) <= p (f_W == 0 included, as p >= 1) fits at any free
        # slope; only the other patterns need per-slope group counts
        f_w = wrong.sum(axis=1)
        hard = recoverable & (np.minimum(f_w, f - f_w) > self.pointers)
        if hard.any() and recoverable.all():
            slopes = np.arange(b)
            free = (poisoned[hard][:, slopes >> 6] >> (slopes & 63).astype(np.uint64)) & 1 == 0
            # name groups by their first fault; one matmul with the one-hot
            # (fault, name * B + slope) table counts W, then R, faults per group
            groups = self._partition._table[:, self.fault_offsets]
            first = (groups[:, :, None] == groups[:, None, :]).argmax(axis=2)
            onehot = np.zeros((f, f * b), dtype=np.float32)
            onehot[np.arange(f)[None, :], first * b + slopes[:, None]] = 1
            counts = np.concatenate([wrong[hard], ~wrong[hard]]).astype(np.float32) @ onehot
            distinct = (counts.reshape(-1, f, b) > 0).sum(axis=1, dtype=np.int16)
            fits = (distinct <= self.pointers).reshape(2, -1, b).any(axis=0)
            recoverable[hard] = (fits & free).any(axis=1)
        self.alive = bool(recoverable.all())
        return self.alive


# ---------------------------------------------------------------------------
# SAFER (static, exhaustive or incremental) and SAFER-cache (sampled)
# ---------------------------------------------------------------------------


class SaferChecker:
    """Static survival for SAFER-N with the exhaustive re-partition policy.

    Maintains the set of still-viable partition vectors (all combinations
    of ``m`` of the address bits); a vector dies when two faults share a
    value under it.  The block lives while some vector survives.
    """

    def __init__(self, n_bits: int, group_count: int) -> None:
        self.n_bits = n_bits
        self.max_positions = ceil_log2(group_count)
        self._live: dict[tuple[int, ...], int] = dict.fromkeys(
            partition_vectors(n_bits, self.max_positions), 0
        )  # vector -> bitmask of used group values
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        doomed = []
        for vector, used in self._live.items():
            bit = 1 << vector_value(offset, vector)
            if used & bit:
                doomed.append(vector)
            else:
                self._live[vector] = used | bit
        for vector in doomed:
            del self._live[vector]
        self.alive = bool(self._live)
        return self.alive

    def current_vector(self) -> tuple[int, ...] | None:
        return next(iter(self._live), None)

    def group_members(self, offset: int) -> np.ndarray:
        vector = self.current_vector()
        if vector is None:
            return np.empty(0, dtype=np.int64)
        ids = group_ids(self.n_bits, vector)
        return np.flatnonzero(ids == vector_value(offset, vector))


class SaferIncrementalChecker:
    """Static survival for SAFER-N under the faithful incremental policy:
    the vector only grows, one distinguishing position per collision."""

    def __init__(self, n_bits: int, group_count: int) -> None:
        self.n_bits = n_bits
        self.max_positions = ceil_log2(group_count)
        self.positions: tuple[int, ...] = ()
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        grown = grow_vector(self.positions, self.fault_offsets, self.max_positions)
        self.alive = grown is not None
        if self.alive:
            self.positions = grown
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        ids = group_ids(self.n_bits, self.positions)
        return np.flatnonzero(ids == vector_value(offset, self.positions))


class SaferCacheChecker:
    """Sampled survival for SAFER-N-cache on the grow-only hardware vector.

    The fail cache relaxes the collision criterion — only a W fault and an
    R fault sharing a group force a re-partition — but the partition
    vector remains SAFER's append-only structure, so vector state persists
    across sampled patterns exactly as it would across real writes.  The
    block dies when a sampled pattern still has W/R mixing with the vector
    full.  Each fault's group is kept until the vector grows, and the
    patterns are decided on per-fault sample bitsets (:func:`_sample_bitsets`).
    """

    def __init__(
        self,
        n_bits: int,
        group_count: int,
        bits: BitSource,
        samples: int = DEFAULT_SAMPLES,
    ) -> None:
        check_group_count(group_count, n_bits)
        _check_samples(samples)
        self.n_bits = n_bits
        self.group_count = group_count
        self.bits = bits
        self.samples = samples
        self.max_positions = ceil_log2(group_count)
        self.positions: tuple[int, ...] = ()
        self.fault_offsets: list[int] = []
        self._groups: list[int] = []  # each fault's group under ``positions``
        self.alive = True
        self.draws_from = 1

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        self._groups.append(vector_value(offset, self.positions))
        f = len(self.fault_offsets)
        # draw even at small f: the vector must grow in response to the
        # sampled traffic, exactly as the hardware's would
        data = self.bits.patterns(self.samples, f)
        if len(set(self._groups)) == f:  # every fault in its own group: nothing mixes
            return True
        wrong = _sample_bitsets(data)
        start = 0
        while True:
            # a pattern without W/R mixing leaves the vector as it is, so
            # only the first mixing pattern from ``start`` can grow it
            any_w: dict[int, int] = {}
            all_w: dict[int, int] = {}
            for group, bits in zip(self._groups, wrong):
                any_w[group] = any_w.get(group, 0) | bits
                all_w[group] = all_w.get(group, bits) & bits
            mixing = 0
            for group, bits in any_w.items():
                mixing |= bits & ~all_w[group]
            mixing >>= start
            if not mixing:
                return True
            start += (mixing & -mixing).bit_length() - 1
            grown = grow_vector(
                self.positions, self.fault_offsets, self.max_positions,
                [(bits >> start) & 1 for bits in wrong],
            )
            if grown is None:
                self.alive = False
                return False
            self.positions = grown
            self._groups = [vector_value(o, grown) for o in self.fault_offsets]
            start += 1

    def group_members(self, offset: int) -> np.ndarray:
        """Cache-assisted single-pass writes: no extra inversion wear."""
        return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# ECP, RDIS, Hamming, no protection
# ---------------------------------------------------------------------------


class EcpChecker:
    """Static survival for ECP-p: the block dies with fault ``p + 1``
    (under random data the uncovered fault is written wrong almost
    immediately, the paper's 'almost vertical rise')."""

    def __init__(self, pointers: int) -> None:
        self.pointers = pointers
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        self.alive = len(self.fault_offsets) <= self.pointers
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


class RdisChecker:
    """Sampled survival for RDIS-``depth`` on the fault coordinates only.

    The recursive invertible-set construction touches healthy cells too,
    but recoverability is decided purely by whether every *fault* ends up
    consistent — so the per-pattern check runs on the fault coordinates,
    on all sampled patterns at once through per-fault sample bitsets
    (:func:`_any_rdis_failure`).  ``depth`` follows the paper's naming
    (RDIS-3): the mask toggles ``depth - 1`` times.
    """

    def __init__(
        self,
        n_bits: int,
        rows: int,
        cols: int,
        depth: int,
        bits: BitSource,
        samples: int = DEFAULT_SAMPLES,
    ) -> None:
        if rows * cols < n_bits:
            raise ConfigurationError(f"a {rows}x{cols} RDIS grid cannot hold {n_bits} bits")
        if depth < 2:
            raise ConfigurationError("RDIS needs depth >= 2")
        _check_samples(samples)
        self.n_bits = n_bits
        self.rows = rows
        self.cols = cols
        self.depth = depth
        self.toggle_levels = depth - 1
        self.bits = bits
        self.samples = samples
        self.fault_offsets: list[int] = []
        self.stuck_values: list[int] = []
        self.alive = True
        # any 3 faults resolve within two toggles (tests/test_rdis.py)
        self.draws_from = (3 if self.toggle_levels >= 2 else 1) + 1
        self._row_faults = [0] * rows  # fault counts per grid row and column
        self._col_faults = [0] * cols
        self._fault_rows: list[int] = []  # each fault's grid row and column
        self._fault_cols: list[int] = []
        # some fault has a row-mate and a column-mate; faults are only
        # added, so once true it stays true
        self._crossed = False

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        row, col = divmod(offset, self.cols)
        self.fault_offsets.append(offset)
        self.stuck_values.append(stuck_value)
        self._fault_rows.append(row)
        self._fault_cols.append(col)
        self._row_faults[row] += 1
        self._col_faults[col] += 1
        if len(self.fault_offsets) < self.draws_from:
            return True
        data = self.bits.patterns(self.samples, len(self.fault_offsets))
        # toggle 1 marks a correct fault only if it has a row-mate and a
        # column-mate; without such a fault it inverts exactly the wrong ones
        if not self._crossed:
            rows, cols = self._row_faults, self._col_faults
            self._crossed = any(
                rows[r] > 1 and cols[c] > 1 for r, c in zip(self._fault_rows, self._fault_cols)
            )
            if not self._crossed:
                return True
        self.alive = not _any_rdis_failure(
            self._fault_rows, self._fault_cols, self.stuck_values, data, self.toggle_levels
        )
        return self.alive

    def group_members(self, offset: int) -> np.ndarray:
        """Cache-assisted single-pass writes: no extra inversion wear."""
        return np.empty(0, dtype=np.int64)


def _sample_bitsets(data: np.ndarray) -> list[int]:
    """Each fault's column of a ``(K, f)`` 0/1 draw as a ``K``-bit int, bit
    ``k`` for pattern ``k``."""
    width = -(-data.shape[0] // 8)
    packed = np.packbits(data.T, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]


def _any_rdis_failure(
    frows: Sequence[int],
    fcols: Sequence[int],
    stuck: Sequence[int],
    data: np.ndarray,
    levels: int,
) -> bool:
    """True when some sampled pattern is unrecoverable by RDIS-``levels``.

    ``data`` holds the ``(K, f)`` sampled bits at the ``f`` faults.  Each
    fault carries ``K``-bit sample bitsets (Python ints, bit ``k`` for
    pattern ``k``): ``E`` where it is written wrong with no inversion,
    ``M`` the inversion mask and ``R`` the current region.  Per toggle,
    ``wrong = R & (E ^ M)``; a row (column) is marked in a pattern when a
    fault in it is wrong there, so the marks are ORs of ``wrong`` over the
    faults of each row (column); then ``R &= rowmark & colmark`` and
    ``M ^= R``.  A pattern fails when some fault still has ``E != M``.
    """
    full = (1 << data.shape[0]) - 1
    wrong_at_rest = [
        bits ^ (full if value else 0) for bits, value in zip(_sample_bitsets(data), stuck)
    ]
    region = [full] * len(wrong_at_rest)
    mask = [0] * len(wrong_at_rest)
    for _ in range(levels):
        wrong = [r & (e ^ m) for r, e, m in zip(region, wrong_at_rest, mask)]
        if not any(wrong):
            break
        row_marks: dict[int, int] = {}
        col_marks: dict[int, int] = {}
        for bits, row, col in zip(wrong, frows, fcols):
            row_marks[row] = row_marks.get(row, 0) | bits
            col_marks[col] = col_marks.get(col, 0) | bits
        region = [
            r & row_marks[row] & col_marks[col] for r, row, col in zip(region, frows, fcols)
        ]
        mask = [m ^ r for m, r in zip(mask, region)]
    return any(e != m for e, m in zip(wrong_at_rest, mask))


class HammingChecker:
    """Static survival for per-64-bit-word SEC-DED: the block dies with the
    second fault in one word."""

    def __init__(self, n_bits: int) -> None:
        self.n_bits = n_bits
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        words = np.asarray(self.fault_offsets, dtype=np.int64) // DATA_BITS
        new_word = offset // DATA_BITS
        collocated = int((words == new_word).sum())
        if collocated < 2:
            return True
        # two+ faults in one word: both wrong with prob 1 - (3/4)^pairs per
        # write; over the inter-fault write stream this is certain death
        self.alive = False
        return False

    def group_members(self, offset: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


class NoProtectionChecker:
    """The unprotected baseline: the first fault is fatal."""

    def __init__(self) -> None:
        self.fault_offsets: list[int] = []
        self.alive = True

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        self.fault_offsets.append(offset)
        self.alive = False
        return False

    def group_members(self, offset: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Dynamic-closure ablation checker for plain Aegis
# ---------------------------------------------------------------------------


class AegisDynamicChecker:
    """Sampled *dynamic* survival for plain Aegis (ablation aid).

    The static :class:`AegisChecker` declares a block dead as soon as no
    slope separates *all* faults.  The real controller only ever sees the
    faults a write's verification reads reveal, so a marginal block can
    limp on until an unlucky data pattern arrives.  This checker replays
    that detection closure for ``samples`` random patterns per fault
    arrival; comparing it against the static criterion quantifies how
    conservative the static cut is (see ``benchmarks/test_ablations.py``).
    """

    def __init__(
        self,
        rect: Rectangle,
        bits: BitSource,
        samples: int = 32,
    ) -> None:
        _check_samples(samples)
        self.rect = rect
        self.bits = bits
        self.samples = samples
        self._rom = collision_rom_for(rect)
        self._partition = partition_for(rect)
        self.fault_offsets: list[int] = []
        self.stuck_values: list[int] = []
        self.alive = True
        self.slope = 0

    def _pattern_fails(self, data: np.ndarray) -> bool:
        """Replay one write's detection closure without touching cells."""
        offs = np.asarray(self.fault_offsets, dtype=np.int64)
        stuck = np.asarray(self.stuck_values, dtype=np.uint8)
        inversion = np.zeros(self.rect.b_size, dtype=np.uint8)
        slope = self.slope
        detected: set[int] = set()
        table = self._partition._table
        for _ in range(4 * len(offs) + self.rect.b_size + 4):
            groups = table[slope, offs]
            stored_wanted = data ^ inversion[groups]
            wrong = np.flatnonzero(stuck != stored_wanted)
            new_wrong = [int(offs[i]) for i in wrong]
            if not new_wrong:
                self.slope = slope
                return False
            detected.update(new_wrong)
            found = self._partition.find_separating_slope(detected, start=slope)
            if found is None:
                return True
            new_slope, _ = found
            if new_slope == slope:
                for i in wrong:
                    inversion[groups[i]] ^= 1
            else:
                slope = new_slope
                inversion[:] = 0
        raise AssertionError("dynamic closure did not converge")  # pragma: no cover

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if not self.alive:
            return False
        self.fault_offsets.append(offset)
        self.stuck_values.append(stuck_value)
        f = len(self.fault_offsets)
        if (f * (f - 1)) // 2 < self.rect.b_size:
            return True  # all faults separable: no pattern can fail
        for pattern in self.bits.patterns(self.samples, f):
            if self._pattern_fails(pattern):
                self.alive = False
                return False
        return True

    def group_members(self, offset: int) -> np.ndarray:
        group = self._partition.group_of(offset, self.slope)
        return self._partition.members_array(group, self.slope)
