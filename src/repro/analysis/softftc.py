"""Closed-form soft-FTC estimates, cross-checked against the Monte Carlo.

The paper distinguishes *hard* FTC (guaranteed) from *soft* FTC (what a
block tolerates in practice, Figure 8).  The Monte Carlo measures the soft
side; this module derives the same quantities analytically where the
combinatorics permit, giving the test suite an independent oracle:

* **Aegis** — a block with ``f`` faults survives iff its ``C(f,2)`` fault
  pairs have not poisoned all ``B`` slopes.  For faults at uniformly random
  positions, each *inter-column* pair poisons a uniformly random slope
  (independence across pairs is an approximation — pairs sharing a fault
  are weakly dependent), so the poisoned-slope count follows a
  coupon-collector occupancy law and the failure probability is a classic
  surjection bound.
* **SAFER-N** (full vector) — once the partition vector is full, the block
  holds at most one fault per group; the birthday bound over ``N`` groups
  estimates the soft FTC.
* **ECP** — soft equals hard: ``p`` faults exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.errors import ConfigurationError


def birthday_collision_probability(items: int, bins: int) -> float:
    """P(some bin holds >= 2 of ``items`` uniform balls).

    >>> round(birthday_collision_probability(23, 365), 3)
    0.507
    """
    if bins <= 0:
        raise ConfigurationError("bins must be positive")
    if items > bins:
        return 1.0
    log_no_collision = sum(
        math.log1p(-k / bins) for k in range(1, items)
    )
    return 1.0 - math.exp(log_no_collision)


@lru_cache(maxsize=None)
def _occupancy_full_probability(throws: int, bins: int) -> float:
    """P(all ``bins`` occupied after ``throws`` uniform throws) by
    inclusion-exclusion (exact, numerically careful for small bins)."""
    if throws < bins:
        return 0.0
    total = 0.0
    for j in range(bins + 1):
        sign = -1.0 if j % 2 else 1.0
        total += sign * math.comb(bins, j) * (1.0 - j / bins) ** throws
    return min(max(total, 0.0), 1.0)


def aegis_failure_probability(fault_count: int, b_size: int, a_size: int) -> float:
    """Approximate P(an ``A x B`` Aegis block has failed | ``fault_count``
    faults at uniform positions) — the analytic twin of a Figure 8 point.

    Model: of the ``C(f,2)`` pairs, a pair is *inter-column* (and poisons
    exactly one uniform slope) with probability ``1 - 1/A`` (two uniform
    positions share a column w.p. ~1/A); intra-column pairs poison nothing.
    Failure requires the poisoned slopes to cover all ``B`` values.
    """
    if fault_count < 2:
        return 0.0
    pairs = fault_count * (fault_count - 1) // 2
    effective = pairs * (1.0 - 1.0 / a_size)
    return _occupancy_full_probability(round(effective), b_size)


def aegis_expected_soft_ftc(b_size: int, a_size: int, max_faults: int = 200) -> float:
    """Expected faults at block death for ``A x B`` Aegis under uniform
    fault arrival: ``sum_f P(alive with f faults)`` (+1 for the fatal one)."""
    expected = 1.0
    for f in range(1, max_faults):
        survive = 1.0 - aegis_failure_probability(f, b_size, a_size)
        expected += survive
        if survive < 1e-9:
            break
    return expected


def safer_birthday_soft_ftc(group_count: int) -> float:
    """Median-style soft-FTC estimate for SAFER-N with a full vector: the
    fault count at which a same-group (birthday) collision reaches 50%.

    This deliberately models the *post-saturation* regime — the paper's
    point that SAFER's group count must grow exponentially to keep pace.
    """
    f = 1
    while birthday_collision_probability(f, group_count) < 0.5:
        f += 1
    return float(f)
