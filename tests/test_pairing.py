"""Tests for the dynamic page-pairing extension."""

import pytest

from repro.pairing.pairing import FailedPage, compatible, pair_failed_pages
from repro.pairing.sim import pairing_study
from repro.sim.roster import ecp_spec


def fp(page_id, *blocks):
    return FailedPage(page_id=page_id, failed_blocks=frozenset(blocks))


class TestCompatibility:
    def test_disjoint_pages_compatible(self):
        assert compatible(fp(0, 1, 2), fp(1, 3, 4))

    def test_overlapping_pages_incompatible(self):
        assert not compatible(fp(0, 1, 2), fp(1, 2, 3))

    def test_failed_page_needs_faults(self):
        with pytest.raises(ValueError):
            FailedPage(page_id=0, failed_blocks=frozenset())


class TestMatching:
    def test_simple_pair(self):
        pairs, unpaired = pair_failed_pages([fp(0, 1), fp(1, 2)])
        assert len(pairs) == 1
        assert unpaired == []

    def test_conflict_leaves_one_out(self):
        pages = [fp(0, 1), fp(1, 1), fp(2, 2)]
        pairs, unpaired = pair_failed_pages(pages)
        assert len(pairs) == 1
        assert len(unpaired) == 1
        a, b = pairs[0]
        assert compatible(a, b)

    def test_maximum_cardinality_beats_greedy(self):
        # pages: A={1}, B={2}, C={1,2} -- greedy pairing A-B strands C,
        # but C is incompatible with both anyway; construct a real case:
        # A={1}, B={2}, C={3}, D={1,2}: matching A-D impossible (share 1);
        # max matching pairs (A,B) and ... A-B, C-D? C={3}, D={1,2}
        # compatible -> 2 pairs total.
        pages = [fp(0, 1), fp(1, 2), fp(2, 3), fp(3, 1, 2)]
        pairs, unpaired = pair_failed_pages(pages)
        assert len(pairs) == 2
        assert unpaired == []
        for a, b in pairs:
            assert compatible(a, b)

    def test_every_page_appears_once(self):
        pages = [fp(i, i % 3, (i + 1) % 5) for i in range(9)]
        pairs, unpaired = pair_failed_pages(pages)
        seen = [p.page_id for a, b in pairs for p in (a, b)]
        seen += [p.page_id for p in unpaired]
        assert sorted(seen) == list(range(9))


class TestPairingStudy:
    def test_study_shape_and_invariants(self):
        study = pairing_study(
            ecp_spec(2, 512), n_pages=10, blocks_per_page=8, grid_points=6, seed=2
        )
        assert len(study.ages) == 6
        # pairing never loses capacity and never exceeds what pairing can give
        for without, with_pairing in zip(study.usable_without, study.usable_with):
            assert with_pairing >= without
            assert with_pairing <= without + 0.5 + 1e-9
        # usable capacity decays over time
        assert study.usable_without[0] >= study.usable_without[-1]
        assert study.peak_gain >= 0
