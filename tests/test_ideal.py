"""Tests for the no-protection baseline."""

import numpy as np
import pytest

from repro.errors import UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.ideal import NoProtectionScheme
from tests.conftest import random_data


class TestNoProtection:
    def test_zero_overhead(self):
        scheme = NoProtectionScheme(CellArray(512))
        assert scheme.overhead_bits == 0
        assert scheme.hard_ftc == 0

    def test_faultless_roundtrip(self, rng):
        scheme = NoProtectionScheme(CellArray(512))
        data = random_data(rng, 512)
        scheme.write(data)
        assert np.array_equal(scheme.read(), data)

    def test_stuck_wrong_is_fatal(self):
        cells = CellArray(512)
        cells.inject_fault(5, stuck_value=1)
        scheme = NoProtectionScheme(cells)
        with pytest.raises(UncorrectableError):
            scheme.write(np.zeros(512, dtype=np.uint8))
        assert scheme.retired

    def test_stuck_right_survives_until_it_bites(self):
        cells = CellArray(512)
        cells.inject_fault(5, stuck_value=0)
        scheme = NoProtectionScheme(cells)
        scheme.write(np.zeros(512, dtype=np.uint8))  # fine: stuck right
        with pytest.raises(UncorrectableError):
            scheme.write(np.ones(512, dtype=np.uint8))

