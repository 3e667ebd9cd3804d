"""Unit tests for repro.util.primes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.formations import STANDARD_FORMATIONS_256, STANDARD_FORMATIONS_512
from repro.util.primes import is_prime, mod_inverse, next_prime


class TestIsPrime:
    def test_small_values(self):
        assert [n for n in range(30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_negative_and_zero(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)

    def test_square_of_prime(self):
        assert not is_prime(49)
        assert not is_prime(121)

    def test_large_prime(self):
        assert is_prime(7919)
        assert not is_prime(7917)

    def test_agrees_with_a_sieve_below_1000(self):
        sieve = [False, False] + [True] * 998
        for n in range(2, 32):
            if sieve[n]:
                sieve[n * n::n] = [False] * len(range(n * n, 1000, n))
        assert [n for n in range(1000) if is_prime(n)] == [
            n for n in range(1000) if sieve[n]
        ]

    def test_every_paper_formation_has_a_prime_b(self):
        # Theorem 2 needs the integers modulo B to form a field
        for _, b_size in STANDARD_FORMATIONS_512 + STANDARD_FORMATIONS_256:
            assert is_prime(b_size)


class TestNextPrime:
    def test_at_prime(self):
        assert next_prime(23) == 23

    def test_between_primes(self):
        assert next_prime(24) == 29
        assert next_prime(62) == 67

    def test_below_two(self):
        assert next_prime(-5) == 2
        assert next_prime(0) == 2

    @given(st.integers(min_value=0, max_value=5000))
    def test_result_is_prime_and_minimal(self, n):
        p = next_prime(n)
        assert p >= n
        assert is_prime(p)
        assert not any(is_prime(q) for q in range(max(n, 2), p))


class TestModInverse:
    @given(st.sampled_from([7, 23, 31, 61, 71]), st.integers(min_value=1, max_value=1000))
    def test_inverse_property(self, modulus, value):
        if value % modulus == 0:
            return
        inv = mod_inverse(value, modulus)
        assert (value * inv) % modulus == 1
        assert 0 < inv < modulus

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            mod_inverse(0, 7)
        with pytest.raises(ZeroDivisionError):
            mod_inverse(14, 7)
