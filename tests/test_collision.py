"""Tests for the pairwise collision-slope ROM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collision import NO_COLLISION, CollisionROM, collision_rom_for
from repro.core.formations import formation
from repro.core.geometry import rectangle_for


@pytest.fixture
def rom(paper_rect) -> CollisionROM:
    return collision_rom_for(paper_rect)


class TestTable:
    def test_matches_geometry(self, paper_rect, rom):
        for o1 in range(paper_rect.n_bits):
            for o2 in range(paper_rect.n_bits):
                if o1 == o2:
                    continue
                expected = paper_rect.collision_slope(o1, o2)
                actual = rom.slope_of(o1, o2)
                assert actual == (NO_COLLISION if expected is None else expected)

    @pytest.mark.parametrize(
        "a_size, b_size, n_bits", [(17, 31, 512), (9, 61, 512), (23, 23, 512), (9, 31, 256)]
    )
    def test_roster_tables_match_geometry(self, a_size, b_size, n_bits):
        rect = formation(a_size, b_size, n_bits).rect
        table = CollisionROM(rect)._table
        assert table.dtype == np.int16 and not table.flags.writeable
        pairs = np.random.default_rng(0).integers(0, n_bits, size=(3000, 2))
        for o1, o2 in pairs.tolist():
            if o1 != o2:
                expected = rect.collision_slope(o1, o2)
                assert table[o1, o2] == (NO_COLLISION if expected is None else expected)

    def test_symmetric(self, rom, paper_rect):
        n = paper_rect.n_bits
        for o1 in range(n):
            for o2 in range(o1 + 1, n):
                assert rom.slope_of(o1, o2) == rom.slope_of(o2, o1)

    def test_self_lookup_rejected(self, rom):
        with pytest.raises(ValueError):
            rom.slope_of(4, 4)

    def test_storage_bits(self):
        rom = collision_rom_for(rectangle_for(512, 61))
        assert rom.storage_bits == 512 * 512 * 6  # ceil(log2 61) = 6

    def test_cached(self, paper_rect):
        assert collision_rom_for(paper_rect) is collision_rom_for(paper_rect)


class TestPoisonedSlopes:
    def test_empty_sides(self, rom):
        assert rom.poisoned_slopes([], [1, 2]).size == 0
        assert rom.poisoned_slopes([3], []).size == 0

    def test_cross_pairs_only(self, rom, paper_rect):
        # slopes poisoned by W={0}, R={1,2} are exactly the pair collisions
        expected = set()
        for r in (1, 2):
            slope = paper_rect.collision_slope(0, r)
            if slope is not None:
                expected.add(slope)
        assert set(int(s) for s in rom.poisoned_slopes([0], [1, 2])) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_poisoned_definition(self, data):
        rect = rectangle_for(64, 11)
        rom = collision_rom_for(rect)
        wrong = data.draw(
            st.lists(st.integers(0, 63), min_size=1, max_size=4, unique=True)
        )
        right = data.draw(
            st.lists(
                st.integers(0, 63).filter(lambda o: o not in wrong),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        poisoned = set(int(s) for s in rom.poisoned_slopes(wrong, right))
        for slope in range(11):
            mixes = any(
                rect.group_of(w, slope) == rect.group_of(r, slope)
                for w in wrong
                for r in right
            )
            assert (slope in poisoned) == mixes


class TestFindRwSlope:
    def test_prefers_start(self, rom):
        assert rom.find_rw_slope([], [], start=4) == 4

    def test_skips_poisoned(self, rom, paper_rect):
        # W=0 and R=1 collide on exactly one slope; starting there must skip
        slope = paper_rect.collision_slope(0, 1)
        assert slope is not None
        found = rom.find_rw_slope([0], [1], start=slope)
        assert found != slope
        assert paper_rect.group_of(0, found) != paper_rect.group_of(1, found)

    @pytest.mark.parametrize(
        "a_size, b_size, n_bits", [(17, 31, 512), (9, 61, 512), (23, 23, 512), (9, 31, 256)]
    )
    def test_found_slope_separates_roster_faults(self, a_size, b_size, n_bits):
        rect = formation(a_size, b_size, n_bits).rect
        rom = collision_rom_for(rect)
        rng = np.random.default_rng(b_size)
        for _ in range(20):
            cells = rng.choice(n_bits, size=10, replace=False).tolist()
            wrong, right = cells[:4], cells[4:]
            start = int(rng.integers(0, b_size))
            found = rom.find_rw_slope(wrong, right, start=start)
            mixed = [
                any(rect.group_of(w, s) == rect.group_of(r, s) for w in wrong for r in right)
                for s in range(b_size)
            ]
            if found is None:
                assert all(mixed)
            else:
                assert not mixed[found]
                # no collision-free slope is skipped on the way from start
                skipped = [(start + k) % b_size for k in range((found - start) % b_size)]
                assert all(mixed[s] for s in skipped)

    def test_exhaustion_returns_none(self):
        # 3x3 rectangle: W fills column 0, R fills column 1 — the four
        # cross pairs poison all three slopes
        rect = rectangle_for(9, 3)
        rom = collision_rom_for(rect)
        assert rom.find_rw_slope([0, 3], [1, 4], start=0) is None
