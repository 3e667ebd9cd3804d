"""Tests for the PAYG extension (GEC pool, overhead model, Monte Carlo)."""

import pytest

from repro.core.formations import formation
from repro.errors import ConfigurationError
from repro.payg.payg import GecPool, payg_overhead_bits
from repro.payg.sim import payg_page_study


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
