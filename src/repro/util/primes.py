"""Small prime-number utilities used by the Aegis partition scheme.

The Aegis ``A x B`` formation requires ``B`` to be prime (Theorem 2 of the
paper relies on the integers modulo ``B`` forming a field).  The numbers
involved are tiny (``B < 1000`` for any realistic block size), so simple
trial division is plenty fast and keeps the code dependency-free.
"""

from __future__ import annotations

from functools import lru_cache


def is_prime(n: int) -> bool:
    """Return ``True`` when ``n`` is a prime number.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    divisor = 3
    while divisor * divisor <= n:
        if n % divisor == 0:
            return False
        divisor += 2
    return True


@lru_cache(maxsize=None)
def next_prime(n: int) -> int:
    """Return the smallest prime ``>= n``.

    >>> next_prime(23)
    23
    >>> next_prime(24)
    29
    """
    candidate = max(n, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def mod_inverse(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo a prime ``modulus``.

    Uses Fermat's little theorem (``modulus`` must be prime, which is always
    the case for Aegis's ``B``).

    >>> mod_inverse(3, 7)
    5
    """
    value %= modulus
    if value == 0:
        raise ZeroDivisionError(f"0 has no inverse modulo {modulus}")
    return pow(value, modulus - 2, modulus)
