"""Formation catalogue and hardware-cost formulas (paper §2.3, Table 1).

This module is the closed-form half of the reproduction: for every scheme in
the paper's Table 1 it computes the per-block overhead bits needed to reach
a given *hard FTC* (the number of faults tolerated regardless of fault
placement and written data), and for every concrete configuration used in
the evaluation figures it computes the actual overhead.

Derivation notes (validated against the paper's published numbers):

* **Aegis** with ``A x B`` needs ``ceil_log2(B)`` slope-counter bits plus a
  ``B``-bit inversion vector.  For a *target* hard FTC ``f`` the counter can
  shrink to ``ceil_log2(C(f,2) + 1)`` bits because at most ``C(f,2)``
  re-partitions ever happen (paper §2.3).  Hard FTC of ``A x B`` Aegis is
  the largest ``f`` with ``f(f-1)/2 + 1 <= B``.
* **Aegis-rw** needs only ``floor(f/2) * ceil(f/2) + 1`` slopes for hard FTC
  ``f`` (worst-case split of ``f`` faults into stuck-at-wrong and
  stuck-at-right).  Its cost formula matches Aegis's with that relaxed
  slope requirement; the counter is still capped at ``ceil_log2(B)``.
* **Aegis-rw-p** replaces the inversion vector with ``p = floor(f/2)``
  group-ID pointers of ``ceil_log2(B)`` bits each (pigeonhole:
  ``min(f_W, f_R) <= floor(f/2)``), plus a whole-block-inversion flag and an
  all-pointers-used flag.  Hard FTC 1 is the paper's special case needing a
  single inversion bit.
* **ECP-p** costs ``1 + p * (ceil_log2(n) + 1)`` bits (a full flag plus, per
  entry, an in-block pointer and a replacement cell):  ``1 + 10p`` for
  512-bit blocks and ``1 + 9p`` for 256-bit blocks, matching the paper.
* **SAFER-N** with ``m = log2(N)`` selected bit-positions costs
  ``m * ceil_log2(log2 n) + N + ceil_log2(m + 1)`` bits (the selected
  positions, the per-group inversion flags, and a counter of used
  positions); hard FTC is ``m + 1``.  This reproduces the paper's row
  1, 7, 14, 22, 35, 55, 91, 159, 292, 552 exactly.
* **RDIS-3** does not appear in Table 1; its overhead is calibrated to the
  paper's quoted 25% (256-bit) / 19% (512-bit): ``2*(w+h) + 1`` marker bits
  for the most-square power-of-two ``w x h`` arrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.core.geometry import Rectangle, minimal_rectangle, rectangle_for
from repro.errors import ConfigurationError
from repro.util.bitops import ceil_log2
from repro.util.primes import next_prime


def pairs(f: int) -> int:
    """Number of unordered fault pairs ``C(f, 2)``."""
    return f * (f - 1) // 2


def slopes_needed(f: int) -> int:
    """Slopes guaranteeing a collision-free configuration for plain Aegis."""
    return pairs(f) + 1


def slopes_needed_rw(f: int) -> int:
    """Slopes guaranteeing a collision-free configuration when stuck-at-wrong
    and stuck-at-right faults are distinguished (worst split of ``f``)."""
    return (f // 2) * ((f + 1) // 2) + 1


def aegis_hard_ftc(b_size: int) -> int:
    """Hard FTC of an ``A x B`` Aegis scheme: largest ``f`` with
    ``C(f,2) + 1 <= B``.

    >>> aegis_hard_ftc(23), aegis_hard_ftc(31), aegis_hard_ftc(61), aegis_hard_ftc(71)
    (7, 8, 11, 12)
    """
    f = int((1 + math.isqrt(8 * b_size - 7)) // 2)
    while slopes_needed(f + 1) <= b_size:
        f += 1
    while f > 0 and slopes_needed(f) > b_size:
        f -= 1
    return f


def aegis_rw_hard_ftc(b_size: int) -> int:
    """Hard FTC of ``A x B`` Aegis-rw: largest ``f`` with
    ``floor(f/2)*ceil(f/2) + 1 <= B``.

    >>> aegis_rw_hard_ftc(23), aegis_rw_hard_ftc(29)
    (9, 10)
    """
    f = 1
    while slopes_needed_rw(f + 1) <= b_size:
        f += 1
    return f


# ---------------------------------------------------------------------------
# Table 1: minimal per-block cost to reach a target hard FTC (512-bit blocks
# in the paper; the n_bits argument generalises the formulas).
# ---------------------------------------------------------------------------


def _min_b_for(n_bits: int, required_slopes: int) -> int:
    """Smallest valid prime ``B``: at least the square-ish minimum for
    ``n_bits`` (so that ``A <= B``) and at least ``required_slopes``."""
    base = minimal_rectangle(n_bits).b_size
    return next_prime(max(base, required_slopes))


def aegis_cost_for_ftc(f: int, n_bits: int = 512) -> int:
    """Aegis bits to guarantee hard FTC ``f`` on an ``n_bits`` block.

    >>> [aegis_cost_for_ftc(f) for f in range(1, 11)]
    [23, 24, 25, 26, 27, 27, 28, 34, 43, 53]
    """
    if f < 1:
        raise ConfigurationError("hard FTC must be at least 1")
    b_size = _min_b_for(n_bits, slopes_needed(f))
    counter = min(ceil_log2(slopes_needed(f)), ceil_log2(b_size))
    return counter + b_size


def aegis_rw_cost_for_ftc(f: int, n_bits: int = 512) -> int:
    """Aegis-rw bits to guarantee hard FTC ``f``.

    >>> [aegis_rw_cost_for_ftc(f) for f in range(1, 11)]
    [23, 24, 25, 26, 27, 27, 28, 28, 28, 34]
    """
    if f < 1:
        raise ConfigurationError("hard FTC must be at least 1")
    b_size = _min_b_for(n_bits, slopes_needed_rw(f))
    counter = min(ceil_log2(slopes_needed(f)), ceil_log2(b_size))
    return counter + b_size


def aegis_rw_p_cost_for_ftc(f: int, n_bits: int = 512) -> int:
    """Aegis-rw-p bits to guarantee hard FTC ``f``.

    >>> [aegis_rw_p_cost_for_ftc(f) for f in range(1, 11)]
    [1, 8, 9, 15, 15, 21, 21, 27, 27, 32]
    """
    if f < 1:
        raise ConfigurationError("hard FTC must be at least 1")
    if f == 1:
        return 1  # paper's special case: a single inversion bit
    b_size = _min_b_for(n_bits, slopes_needed_rw(f))
    p = f // 2
    counter = min(ceil_log2(slopes_needed_rw(f)), ceil_log2(b_size))
    return counter + p * ceil_log2(b_size) + 2


def ecp_cost_for_ftc(f: int, n_bits: int = 512) -> int:
    """ECP bits for ``f`` correction entries: full flag + per-entry pointer
    and replacement cell.

    >>> [ecp_cost_for_ftc(f) for f in range(1, 11)]
    [11, 21, 31, 41, 51, 61, 71, 81, 91, 101]
    """
    if f < 1:
        raise ConfigurationError("hard FTC must be at least 1")
    return 1 + f * (ceil_log2(n_bits) + 1)


def safer_group_count_for_ftc(f: int) -> int:
    """SAFER group count ``N = 2^(f-1)`` reaching hard FTC ``f``.

    >>> [safer_group_count_for_ftc(f) for f in range(1, 11)]
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    """
    if f < 1:
        raise ConfigurationError("hard FTC must be at least 1")
    return 2 ** (f - 1)


def safer_cost(group_count: int, n_bits: int = 512) -> int:
    """SAFER-N per-block bits: selected bit-positions + inversion flags +
    used-position counter.

    >>> [safer_cost(2 ** m) for m in range(10)]
    [1, 7, 14, 22, 35, 55, 91, 159, 292, 552]
    """
    if group_count < 1 or group_count & (group_count - 1):
        raise ConfigurationError(f"SAFER group count must be a power of two, got {group_count}")
    addr_bits = ceil_log2(n_bits)
    if group_count > n_bits:
        raise ConfigurationError("SAFER cannot use more groups than block bits")
    m = ceil_log2(group_count)
    position_field = ceil_log2(addr_bits)
    counter = ceil_log2(m + 1) if m else 0
    return m * position_field + group_count + counter


def safer_cost_for_ftc(f: int, n_bits: int = 512) -> int:
    """SAFER bits to guarantee hard FTC ``f`` (via ``N = 2^(f-1)`` groups)."""
    return safer_cost(safer_group_count_for_ftc(f), n_bits)


def safer_hard_ftc(group_count: int) -> int:
    """Hard FTC of SAFER-N: ``log2(N) + 1``."""
    if group_count < 1 or group_count & (group_count - 1):
        raise ConfigurationError(f"SAFER group count must be a power of two, got {group_count}")
    return ceil_log2(group_count) + 1


def rdis_dimensions(n_bits: int) -> tuple[int, int]:
    """Most-square power-of-two ``(rows, cols)`` arrangement for RDIS."""
    bits = ceil_log2(n_bits)
    if 2**bits != n_bits:
        raise ConfigurationError(f"RDIS requires a power-of-two block size, got {n_bits}")
    rows = 2 ** (bits // 2)
    cols = n_bits // rows
    return rows, cols


def rdis_cost(n_bits: int = 512, depth: int = 3) -> int:
    """RDIS-``depth`` marker-bit overhead.

    RDIS-k builds invertible sets ``SI_1 .. SI_k`` and requires ``SI_k`` to
    be empty, so ``k - 1`` levels of row/column markers are stored (plus a
    flag bit).  This matches the paper's quoted overheads for RDIS-3
    exactly: 25% of a 256-bit block and 19% of a 512-bit block.

    >>> rdis_cost(256), rdis_cost(512)
    (65, 97)
    """
    if depth < 2:
        raise ConfigurationError("RDIS needs depth >= 2 (one stored marker level)")
    rows, cols = rdis_dimensions(n_bits)
    return (depth - 1) * (rows + cols) + 1


def hamming_cost(n_bits: int = 512) -> int:
    """(72, 64) Hamming SEC-DED overhead scaled to the block: 8 check bits
    per 64 data bits (the paper's 12.5% ECC budget ceiling)."""
    if n_bits % 64:
        raise ConfigurationError("Hamming reference assumes 64-bit words")
    return (n_bits // 64) * 8


# ---------------------------------------------------------------------------
# Concrete formations used in the evaluation figures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formation:
    """A named ``A x B`` Aegis formation bound to a block size."""

    rect: Rectangle

    @property
    def a_size(self) -> int:
        return self.rect.a_size

    @property
    def b_size(self) -> int:
        return self.rect.b_size

    @property
    def n_bits(self) -> int:
        return self.rect.n_bits

    @property
    def name(self) -> str:
        return f"{self.a_size}x{self.b_size}"

    @property
    def hard_ftc(self) -> int:
        return aegis_hard_ftc(self.b_size)

    @property
    def aegis_overhead_bits(self) -> int:
        """Full slope counter + B-bit inversion vector (the evaluation's
        per-formation cost, e.g. 67 bits for Aegis 9x61)."""
        return ceil_log2(self.b_size) + self.b_size

    def aegis_rw_p_overhead_bits(self, pointers: int) -> int:
        """Slope counter + ``p`` group pointers + the two flag bits."""
        if pointers < 1:
            raise ConfigurationError("Aegis-rw-p needs at least one pointer")
        return ceil_log2(self.b_size) * (1 + pointers) + 2


@lru_cache(maxsize=None)
def formation(a_size: int, b_size: int, n_bits: int) -> Formation:
    """Build (and validate) a named formation such as ``formation(9, 61, 512)``."""
    rect = rectangle_for(n_bits, b_size)
    if rect.a_size != a_size:
        raise ConfigurationError(
            f"A={a_size} is not the minimal width for n={n_bits}, B={b_size} "
            f"(expected A={rect.a_size})"
        )
    return Formation(rect)


#: formations the paper evaluates on 512-bit data blocks
STANDARD_FORMATIONS_512 = ((23, 23), (17, 31), (9, 61), (8, 71))

#: formations the paper evaluates on 256-bit data blocks
STANDARD_FORMATIONS_256 = ((16, 17), (12, 23), (9, 31))


def standard_formations(n_bits: int) -> list[Formation]:
    """The paper's evaluated formations for a block size."""
    if n_bits == 512:
        shapes = STANDARD_FORMATIONS_512
    elif n_bits == 256:
        shapes = STANDARD_FORMATIONS_256
    else:
        raise ConfigurationError(f"no standard formations for {n_bits}-bit blocks")
    return [formation(a, b, n_bits) for a, b in shapes]
