"""Tests for the PAYG extension (GEC pool, overhead model, Monte Carlo)."""

import hashlib

import pytest

from repro.core.formations import formation
from repro.errors import ConfigurationError
from repro.payg import sim as payg_sim
from repro.payg.payg import GecPool, payg_overhead_bits
from repro.payg.sim import PaygChecker, payg_page_study
from repro.sim.checkers import AegisChecker


class TestGecPool:
    def test_allocation(self):
        pool = GecPool(2)
        assert pool.try_allocate()
        assert pool.try_allocate()
        assert not pool.try_allocate()
        assert pool.allocated == 2

    def test_empty_pool_never_allocates(self):
        pool = GecPool(0)
        assert not pool.try_allocate()
        assert pool.allocated == 0

    def test_allocated_counts_each_claim(self):
        pool = GecPool(3)
        seen = [pool.allocated]
        while pool.try_allocate():
            seen.append(pool.allocated)
        assert seen == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GecPool(-1)


class TestOverheadModel:
    def test_flat_pool_costs_more_than_lec(self):
        lec_only = payg_overhead_bits(64, 512, 0, 36)
        half_pool = payg_overhead_bits(64, 512, 32, 36)
        assert lec_only == 11  # ECP-1 bits
        assert half_pool > lec_only

    def test_pool_amortised_with_block_tags(self):
        # LEC 1 + (9 + 1) = 11 bits; 8 slots of (36 GEC + 6 tag bits) over 64 blocks
        assert payg_overhead_bits(64, 512, 8, 36) == 11 + 8 * 42 / 64

    def test_each_lec_pointer_adds_a_pointer_and_a_cell(self):
        one = payg_overhead_bits(64, 512, 0, 36, lec_pointers=1)
        two = payg_overhead_bits(64, 512, 0, 36, lec_pointers=2)
        assert two - one == 10  # 9-bit in-block pointer + replacement cell
        assert payg_overhead_bits(64, 256, 0, 36, lec_pointers=2) == 1 + 2 * 9

    def test_single_block_tag_is_one_bit(self):
        assert payg_overhead_bits(1, 512, 1, 36) == 11 + 36 + 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            payg_overhead_bits(0, 512, 1, 36)


class TestPaygStudy:
    def test_capacity_grows_with_pool(self):
        form = formation(17, 31, 512)
        small = payg_page_study(form, pool_entries=2, blocks_per_page=16,
                                n_pages=8, seed=5)
        large = payg_page_study(form, pool_entries=16, blocks_per_page=16,
                                n_pages=8, seed=5)
        assert large.faults.mean > small.faults.mean
        assert small.pool_exhaustion_deaths >= large.pool_exhaustion_deaths
        assert large.overhead_bits_per_block > small.overhead_bits_per_block

    def test_allocations_bounded_by_pool(self):
        form = formation(17, 31, 512)
        result = payg_page_study(form, pool_entries=4, blocks_per_page=16,
                                 n_pages=6, seed=5)
        assert result.gec_allocations.mean <= 4


#: sha256 prefixes of ``repr(payg_page_study(...))`` for 8 pages of 16
#: Aegis 17x31 blocks behind an ECP-4 LEC (seed 2013): at 15 slots 4 of
#: the 8 pages die of pool exhaustion, at 16 every page dies of a GEC
#: death.  A scheduler change must not move them.
PAYG_DIGESTS = {15: "8d042efa931fde93", 16: "1a083f11c3862139"}


class TestPaygStudyDigests:
    @pytest.mark.parametrize("pool", sorted(PAYG_DIGESTS))
    def test_study_matches_recorded_digest(self, pool):
        result = payg_page_study(formation(17, 31, 512), pool_entries=pool,
                                 blocks_per_page=16, lec_pointers=4, n_pages=8,
                                 seed=2013)
        assert result.pool_exhaustion_deaths == {15: 4, 16: 0}[pool]
        assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == PAYG_DIGESTS[pool]


def payg_checker(entries, lec_pointers):
    return PaygChecker(formation(17, 31, 512).rect, GecPool(entries), lec_pointers)


class TestPaygChecker:
    def test_lec_absorbs_the_first_faults(self):
        checker = payg_checker(1, lec_pointers=2)
        assert checker.add_fault(0, 0) and checker.add_fault(1, 1)
        assert checker.pool.allocated == 0 and checker.gec is None

    def test_fault_past_the_lec_claims_a_slot(self):
        checker = payg_checker(1, lec_pointers=2)
        checker.add_fault(0, 0)
        checker.add_fault(1, 1)
        assert checker.add_fault(2, 0)
        assert checker.pool.allocated == 1
        assert checker.gec.fault_offsets == [0, 1, 2]
        assert not checker.pool_ran_dry

    def test_dry_pool_kills_the_block_and_sets_the_flag(self):
        checker = payg_checker(0, lec_pointers=1)
        assert checker.add_fault(0, 0)
        assert not checker.add_fault(1, 0)
        assert checker.pool_ran_dry and checker.pool.allocated == 0

    def test_gec_death_leaves_the_flag_clear(self):
        checker = payg_checker(1, lec_pointers=1)
        assert not all(checker.add_fault(offset, 0) for offset in range(512))
        assert checker.pool.allocated == 1 and not checker.gec.alive
        assert not checker.pool_ran_dry

    def test_replay_keeps_each_fault_stuck_value(self, monkeypatch):
        seen = []

        class RecordingChecker(AegisChecker):
            def add_fault(self, offset, stuck_value):
                seen.append((offset, stuck_value))
                return super().add_fault(offset, stuck_value)

        monkeypatch.setattr(payg_sim, "AegisChecker", RecordingChecker)
        checker = payg_checker(1, lec_pointers=2)
        for fault in [(5, 1), (6, 0), (7, 1), (8, 0)]:
            checker.add_fault(*fault)
        assert seen == [(5, 1), (6, 0), (7, 1), (8, 0)]
