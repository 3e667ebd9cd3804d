"""Tests for the (72, 64) Hamming SEC-DED codec and block scheme."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import roundtrip
from repro.schemes.hamming import CODE_BITS, DATA_BITS, HammingScheme, decode, encode
from tests.conftest import random_data


class TestCodec:
    def test_clean_roundtrip(self, rng):
        for _ in range(20):
            data = random_data(rng, DATA_BITS)
            decoded, corrected = decode(encode(data))
            assert corrected == 0
            assert np.array_equal(decoded, data)

    def test_single_error_corrected_every_position(self, rng):
        data = random_data(rng, DATA_BITS)
        code = encode(data)
        for position in range(CODE_BITS):
            corrupted = code.copy()
            corrupted[position] ^= 1
            decoded, corrected = decode(corrupted)
            assert corrected == 1
            assert np.array_equal(decoded, data)

    def test_double_error_detected(self, rng):
        data = random_data(rng, DATA_BITS)
        code = encode(data)
        for p1, p2 in [(0, 1), (3, 70), (64, 71), (10, 40)]:
            corrupted = code.copy()
            corrupted[p1] ^= 1
            corrupted[p2] ^= 1
            with pytest.raises(UncorrectableError):
                decode(corrupted)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            encode(np.zeros(63, dtype=np.uint8))
        with pytest.raises(ValueError):
            decode(np.zeros(71, dtype=np.uint8))


class TestHammingScheme:
    def test_identity(self):
        scheme = HammingScheme(CellArray(512))
        assert scheme.overhead_bits == 64  # 12.5%, the paper's ECC budget
        assert scheme.hard_ftc == 1

    def test_block_size_validation(self):
        with pytest.raises(ConfigurationError):
            HammingScheme(CellArray(100))

    def test_one_fault_per_word_recoverable(self, rng):
        cells = CellArray(512)
        for word in range(8):
            cells.inject_fault(word * 64 + int(rng.integers(0, 64)),
                               stuck_value=int(rng.integers(0, 2)))
        scheme = HammingScheme(cells)
        for _ in range(10):
            assert roundtrip(scheme, random_data(rng, 512))

    def test_two_wrong_in_one_word_fails(self):
        cells = CellArray(512)
        cells.inject_fault(0, stuck_value=1)
        cells.inject_fault(1, stuck_value=1)
        scheme = HammingScheme(cells)
        with pytest.raises(UncorrectableError):
            scheme.write(np.zeros(512, dtype=np.uint8))

    def test_two_faults_one_wrong_survives(self):
        cells = CellArray(512)
        cells.inject_fault(0, stuck_value=1)  # wrong for zeros
        cells.inject_fault(1, stuck_value=0)  # right for zeros
        scheme = HammingScheme(cells)
        data = np.zeros(512, dtype=np.uint8)
        scheme.write(data)
        assert np.array_equal(scheme.read(), data)

    def test_fault_in_check_bits_corrected(self):
        cells = CellArray(512)
        scheme = HammingScheme(cells)
        scheme._checks.inject_fault(0, stuck_value=1)  # the check-bit array
        data = np.zeros(512, dtype=np.uint8)
        scheme.write(data)
        assert np.array_equal(scheme.read(), data)
