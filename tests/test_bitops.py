"""Unit tests for repro.util.bitops."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitops import bits_to_int, ceil_log2, int_to_bits, offsets_from_mask


class TestRoundtrips:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_int_bits_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 64)) == value

    @given(st.lists(st.integers(min_value=0, max_value=200), unique=True))
    def test_mask_offsets_roundtrip(self, offsets):
        assert offsets_from_mask(sum(1 << offset for offset in offsets)) == sorted(offsets)

    @given(st.integers(min_value=0, max_value=2**512 - 1))
    def test_wide_roundtrip_survives_packbits(self, value):
        # 512-bit masks exercise the multi-byte packbits fast path
        assert bits_to_int(int_to_bits(value, 512)) == value

    @given(st.integers(min_value=1, max_value=77))
    def test_ragged_width(self, width):
        # widths that are not byte multiples must not gain phantom bits
        bits = int_to_bits((1 << width) - 1, width)
        assert bits.shape == (width,)
        assert bits_to_int(bits) == (1 << width) - 1

    def test_zero_width(self):
        assert int_to_bits(0, 0).tolist() == []
        assert bits_to_int(np.zeros(0, dtype=np.uint8)) == 0

    def test_bits_to_int_accepts_bool_and_int_dtypes(self):
        expected = 0b101
        for dtype in (np.uint8, bool, np.int64):
            assert bits_to_int(np.array([1, 0, 1], dtype=dtype)) == expected

    def test_int_to_bits_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_int_to_bits_boundary_fits(self):
        assert bits_to_int(int_to_bits(15, 4)) == 15

    def test_int_to_bits_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)


class TestCeilLog2:
    def test_table(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 4, 7, 8, 9, 512)] == [
            0, 1, 2, 2, 3, 3, 4, 9,
        ]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_bounds(self, n):
        k = ceil_log2(n)
        assert 2**k >= n
        assert k == 0 or 2 ** (k - 1) < n

