"""Tests for the vectorised partition engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import rectangle_for
from repro.core.partition import AegisPartition, partition_for


@pytest.fixture
def partition(paper_rect) -> AegisPartition:
    return partition_for(paper_rect)


class TestTables:
    def test_matches_arithmetic(self, paper_rect, partition):
        for slope in range(paper_rect.b_size):
            for offset in range(paper_rect.n_bits):
                assert partition.group_of(offset, slope) == paper_rect.group_of(
                    offset, slope
                )

    def test_group_ids_read_only(self, partition):
        view = partition.group_ids(0)
        with pytest.raises(ValueError):
            view[0] = 5

    def test_member_table_lists_every_group(self, paper_rect, partition):
        table = partition.member_table()
        assert table.shape[:2] == (paper_rect.b_size, paper_rect.group_count)
        assert not table.flags.writeable
        for slope in range(paper_rect.b_size):
            for group in range(paper_rect.group_count):
                members = partition.members_array(group, slope).tolist()
                row = table[slope, group].tolist()
                assert row[: len(members)] == members
                assert all(cell == -1 for cell in row[len(members):])
        assert partition.member_table() is table

    def test_cached_instance_shared(self, paper_rect):
        assert partition_for(paper_rect) is partition_for(paper_rect)


class TestMembersMask:
    def test_single_group(self, paper_rect, partition):
        for slope in (0, 3):
            mask = partition.members_mask(slope, [2])
            members = set(paper_rect.group_members(2, slope))
            assert set(np.flatnonzero(mask)) == members

    def test_multiple_groups_union(self, paper_rect, partition):
        mask = partition.members_mask(1, [0, 4, 6])
        expected = set()
        for g in (0, 4, 6):
            expected |= set(paper_rect.group_members(g, 1))
        assert set(np.flatnonzero(mask)) == expected

    def test_empty_groups(self, partition):
        assert partition.members_mask(0, []).sum() == 0


class TestSeparation:
    def test_separates_matches_group_ids(self, partition):
        rng = np.random.default_rng(3)
        for _ in range(50):
            offsets = rng.choice(32, size=4, replace=False)
            for slope in range(7):
                ids = [partition.group_of(int(o), slope) for o in offsets]
                assert partition.separates(slope, offsets) == (
                    len(set(ids)) == len(ids)
                )

    def test_find_separating_slope_walks_from_start(self, partition):
        # a single fault is separated by whatever the current slope is
        assert partition.find_separating_slope([5], start=3) == (3, 1)

    def test_find_separating_slope_skips_colliding(self, paper_rect, partition):
        # pick two offsets colliding on slope 0 (same row)
        o1, o2 = paper_rect.group_members(0, 0)[:2]
        slope, trials = partition.find_separating_slope([o1, o2], start=0)
        assert slope == 1 and trials == 2  # slope 0 collides, slope 1 works

    def test_find_separating_slope_exhausted(self):
        # 3x3 square, 9 bits: any 4 faults in general position can exhaust
        # B=3 slopes only if every slope has a collision; force it with a
        # full column + more
        rect = rectangle_for(9, 3)
        partition = partition_for(rect)
        # four faults, C(4,2)=6 pairs >= 3 slopes: choose corners colliding everywhere
        result = partition.find_separating_slope([0, 1, 3, 4], start=0)
        assert result is None  # 2x2 sub-square poisons all 3 slopes

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_separating_slope_really_separates(self, data):
        rect = rectangle_for(512, 31)
        partition = partition_for(rect)
        count = data.draw(st.integers(min_value=2, max_value=7))
        offsets = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=511),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        start = data.draw(st.integers(min_value=0, max_value=30))
        found = partition.find_separating_slope(offsets, start=start)
        assert found is not None  # 7 faults within B=31's hard guarantee... (C(7,2)+1=22<=31)
        slope, trials = found
        assert partition.separates(slope, offsets)
        assert 1 <= trials <= 31


class TestGroupsHit:
    def test_groups_hit(self, paper_rect, partition):
        offsets = [0, 1, 2]
        hit = partition.groups_hit(0, offsets)
        assert hit == [0]  # all on the bottom row under slope 0
        hit1 = partition.groups_hit(1, offsets)
        assert len(hit1) == 3  # a row is spread across groups under slope 1

    def test_groups_hit_empty(self, partition):
        assert partition.groups_hit(0, []) == []
