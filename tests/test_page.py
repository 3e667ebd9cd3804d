"""Tests for the 4 KB page model."""

import numpy as np
import pytest

from repro.core.aegis import AegisScheme
from repro.core.formations import formation
from repro.errors import BlockRetiredError
from repro.pcm.lifetime import FixedLifetime
from repro.pcm.page import Page
from repro.schemes.ideal import NoProtectionScheme
from tests.conftest import write_until_failure


def aegis_factory(cells):
    return AegisScheme(cells, formation(9, 61, 512))


class TestConstruction:
    @pytest.mark.parametrize("block_bits, n_blocks", [(512, 64), (256, 128)])
    def test_4kb_page_shapes(self, rng, block_bits, n_blocks):
        page = Page(block_bits, n_blocks, NoProtectionScheme, rng=rng)
        assert len(page.blocks) == n_blocks
        assert page.n_bits == 4096 * 8
        assert page.fault_count == 0 and not page.failed

    def test_write_shape_checked(self, rng):
        page = Page(512, 2, NoProtectionScheme, rng=rng)
        with pytest.raises(ValueError):
            page.write(np.zeros(512, dtype=np.uint8))
        assert page.writes_serviced == 0


class TestWriteLifecycle:
    def test_roundtrip(self, rng):
        page = Page(512, 4, aegis_factory, rng=rng)
        data = rng.integers(0, 2, 4 * 512, dtype=np.uint8)
        page.write(data)
        assert np.array_equal(page.read(), data)
        assert page.writes_serviced == 1

    def test_first_block_failure_fails_page(self, rng):
        page = Page(
            512, 4, NoProtectionScheme, lifetime_model=FixedLifetime(3), rng=rng
        )
        write_until_failure(page, max_writes=1000)
        assert page.failed
        with pytest.raises(BlockRetiredError):
            page.write_random()

    def test_shape_validation(self, rng):
        page = Page(512, 2, aegis_factory, rng=rng)
        with pytest.raises(ValueError):
            page.write(np.zeros(100, dtype=np.uint8))

    def test_fault_count_sums_blocks(self, rng):
        page = Page(512, 2, aegis_factory, rng=rng)
        page.blocks[0].cells.inject_fault(0, stuck_value=1)
        page.blocks[1].cells.inject_fault(5, stuck_value=0)
        assert page.fault_count == 2
