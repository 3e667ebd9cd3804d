"""Bit-width arithmetic shared across schemes and the hardware cost model."""

from __future__ import annotations


def ceil_log2(n: int) -> int:
    """``ceil(log2(n))`` for positive ``n``; 0 when ``n == 1``.

    This is the paper's sizing function for counters and pointers.

    >>> [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)]
    [0, 1, 2, 2, 3, 3, 4]
    """
    if n <= 0:
        raise ValueError("ceil_log2 requires a positive argument")
    return (n - 1).bit_length()
