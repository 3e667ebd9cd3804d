"""Tests for the wear-driven protected block."""

import numpy as np
import pytest

from repro.core.aegis import AegisScheme
from repro.core.formations import formation
from repro.errors import UncorrectableError
from repro.pcm.block import ProtectedBlock
from repro.pcm.lifetime import FixedLifetime
from repro.schemes.ecp import EcpScheme
from repro.schemes.ideal import NoProtectionScheme
from tests.conftest import write_until_failure


def aegis_factory(cells):
    return AegisScheme(cells, formation(9, 61, 512))


class TestWearLifecycle:
    def test_cells_die_after_endurance(self, rng):
        block = ProtectedBlock(
            512, aegis_factory, lifetime_model=FixedLifetime(3), rng=rng
        )
        assert block.fault_count == 0
        for _ in range(12):
            try:
                block.write_random()
            except UncorrectableError:
                break
        assert block.fault_count > 0

    def test_unprotected_block_dies_fast(self, rng):
        block = ProtectedBlock(
            512,
            NoProtectionScheme,
            lifetime_model=FixedLifetime(4),
            rng=rng,
        )
        writes = write_until_failure(block, max_writes=1000)
        # endurance 4 with ~50% flip probability: death within a few writes
        assert block.failed
        assert writes < 40

    def test_protected_outlives_unprotected(self, rng):
        seeds = [np.random.default_rng(s) for s in (1, 1)]
        unprotected = ProtectedBlock(
            512, NoProtectionScheme, lifetime_model=FixedLifetime(10), rng=seeds[0]
        )
        protected = ProtectedBlock(
            512, aegis_factory, lifetime_model=FixedLifetime(10), rng=seeds[1]
        )
        writes_unprotected = write_until_failure(unprotected, max_writes=100_000)
        writes_protected = write_until_failure(protected, max_writes=100_000)
        assert writes_protected > writes_unprotected

    def test_failure_is_permanent(self, rng):
        block = ProtectedBlock(
            512, lambda c: EcpScheme(c, 1), lifetime_model=FixedLifetime(2), rng=rng
        )
        write_until_failure(block, max_writes=10_000)
        assert block.failed
        with pytest.raises(Exception):
            block.write_random()

    def test_stats_accumulate(self, rng):
        block = ProtectedBlock(512, aegis_factory, rng=rng)
        for _ in range(5):
            block.write_random()
        assert block.stats.writes == 5
        assert block.stats.cell_writes > 0
        assert block.stats.verification_reads >= 5

    def test_read_returns_last_write(self, rng):
        block = ProtectedBlock(512, aegis_factory, rng=rng)
        data = rng.integers(0, 2, 512, dtype=np.uint8)
        block.write(data)
        assert np.array_equal(block.read(), data)
