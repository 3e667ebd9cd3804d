"""Unit tests for repro.util.bitops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitops import ceil_log2


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

