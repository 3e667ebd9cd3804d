"""Tests for the Figure 3/4 hardware models — ROMs must agree with the math."""

import numpy as np
import pytest

from repro.core.formations import formation
from repro.core.geometry import rectangle_for
from repro.core.partition import partition_for
from repro.hardware.cost import chip_cost
from repro.hardware.rom import GroupIdRom, InversionMaskRom


@pytest.fixture
def figure_rect():
    """The paper's Figure 3/4 example: a 32-bit block in a 5x7 rectangle."""
    return rectangle_for(32, 7)


class TestGroupIdRom:
    def test_paper_rom_dimensions(self, figure_rect):
        rom = GroupIdRom(figure_rect)
        # the paper: a 49 x 32-bit ROM and a 49 x 7-bit ROM, as priced
        assert rom.membership.shape == (49, 32)
        assert rom.group_ids.shape == (49,)
        cost = chip_cost(formation(5, 7, 32))
        assert rom.membership.size == cost.group_rom_bits
        assert rom.group_ids.size * 7 == cost.id_rom_bits

    def test_lookup_matches_partition(self, figure_rect):
        rom = GroupIdRom(figure_rect)
        partition = partition_for(figure_rect)
        for slope in range(7):
            for address in range(32):
                assert rom.lookup(address, slope) == partition.group_of(
                    address, slope
                )

    def test_lookup_validation(self, figure_rect):
        rom = GroupIdRom(figure_rect)
        with pytest.raises(ValueError):
            rom.lookup(32, 0)
        with pytest.raises(ValueError):
            rom.lookup(0, 7)

    def test_membership_rows_partition_the_block(self, figure_rect):
        rom = GroupIdRom(figure_rect)
        for slope in range(7):
            rows = rom.membership[slope * 7 : (slope + 1) * 7]
            assert np.all(rows.sum(axis=0) == 1)  # Theorem 1 in silicon


class TestInversionMaskRom:
    def test_matches_partition_masks(self, figure_rect, rng):
        rom = InversionMaskRom(figure_rect)
        partition = partition_for(figure_rect)
        for _ in range(20):
            slope = int(rng.integers(0, 7))
            vector = rng.integers(0, 2, size=7, dtype=np.uint8)
            expected = partition.members_mask(slope, np.flatnonzero(vector))
            actual = rom.mask_for(slope, vector)
            assert np.array_equal(actual, expected)

    def test_empty_vector_empty_mask(self, figure_rect):
        rom = InversionMaskRom(figure_rect)
        assert rom.mask_for(3, np.zeros(7, dtype=np.uint8)).sum() == 0

    def test_vector_shape_validated(self, figure_rect):
        rom = InversionMaskRom(figure_rect)
        with pytest.raises(ValueError):
            rom.mask_for(0, np.zeros(6, dtype=np.uint8))


class TestChipCost:
    def test_figure_example(self):
        cost = chip_cost(formation(5, 7, 32))
        assert cost.group_rom_bits == 49 * 32
        assert cost.id_rom_bits == 49 * 7
        assert cost.and_gates == 49
        assert cost.collision_rom_bits == 32 * 32 * 3  # ceil(log2 7)-bit slopes
