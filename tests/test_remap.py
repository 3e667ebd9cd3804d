"""Tests for the FREE-p-style spare-block remapping extension."""

import heapq

import pytest

from repro.pcm.lifetime import NormalLifetime
from repro.remap.sim import _REMAP_SALT, RemapTask, remap_page_study, simulate_remap_page
from repro.sim.rng import rng_for
from repro.sim.roster import aegis_spec, ecp_spec
from tests.conftest import SequentialLifetime


class TestRemapStudy:
    def test_spares_extend_lifetime_monotonically(self):
        lifetimes = []
        for spares in (0, 2, 6):
            result = remap_page_study(
                ecp_spec(2, 512), spares=spares, blocks_per_page=8, n_pages=6, seed=1
            )
            lifetimes.append(result.lifetime.mean)
        assert lifetimes == sorted(lifetimes)
        assert lifetimes[2] > lifetimes[0]

    def test_aegis_needs_fewer_spares_than_ecp(self):
        """The §4 claim: strong in-chip recovery delays redirection."""
        aegis_bare = remap_page_study(
            aegis_spec(17, 31, 512), spares=0, blocks_per_page=8, n_pages=8, seed=3
        )
        ecp_spared = remap_page_study(
            ecp_spec(6, 512), spares=6, blocks_per_page=8, n_pages=8, seed=3
        )
        assert aegis_bare.lifetime.mean > ecp_spared.lifetime.mean

    def test_faults_grow_with_spares(self):
        small = remap_page_study(
            ecp_spec(2, 512), spares=0, blocks_per_page=8, n_pages=6, seed=4
        )
        large = remap_page_study(
            ecp_spec(2, 512), spares=6, blocks_per_page=8, n_pages=6, seed=4
        )
        assert large.faults.mean > small.faults.mean


def remap_page_by_cell_heap(spec, blocks_per_page, spares, rng, model, write_probability):
    """Oracle for ``simulate_remap_page``: one heap over every cell of every
    live block, popped in ``(time, slot, offset)`` order (the remap walk
    before it ran blocks on the page scheduler)."""
    n_bits = spec.n_bits

    def fresh_block_events(block_slot, start_time):
        endurance = model.sample(n_bits, rng)
        times = start_time + endurance / write_probability
        return [(float(t), block_slot, offset) for offset, t in enumerate(times)]

    heap = []
    checkers = {}
    for slot in range(blocks_per_page):
        heap.extend(fresh_block_events(slot, 0.0))
        checkers[slot] = spec.make_checker(rng)
    heapq.heapify(heap)
    next_slot = blocks_per_page
    spares_left = spares
    deaths = 0
    retired = set()
    while heap:
        now, slot, offset = heapq.heappop(heap)
        if slot in retired:
            continue
        deaths += 1
        if checkers[slot].add_fault(offset, int(rng.integers(0, 2))):
            continue
        retired.add(slot)
        if spares_left == 0:
            return now, deaths - 1
        spares_left -= 1
        checkers[next_slot] = spec.make_checker(rng)
        for event in fresh_block_events(next_slot, now):
            heapq.heappush(heap, event)
        next_slot += 1
    raise AssertionError("page outlived every cell")


class TestBlockWalkOracle:
    """The block-death walk against the cell heap, exactly.  Blocks draw
    their endurance from one prepared array in slot order on both sides,
    so the static checkers see the same fault sets although the walks
    interleave their generator draws differently."""

    @pytest.mark.parametrize("spares", [0, 1, 3, 8])
    @pytest.mark.parametrize(
        "spec",
        [ecp_spec(6, 512), aegis_spec(17, 31, 512), aegis_spec(9, 61, 512)],
        ids=lambda spec: spec.key,
    )
    def test_matches_cell_heap(self, spec, spares):
        blocks = 16
        for page in range(20):
            values = NormalLifetime().sample((blocks + spares) * spec.n_bits, rng_for(5, page))
            task = RemapTask(
                spec=spec,
                blocks_per_page=blocks,
                spares=spares,
                seed=2013,
                lifetime_model=SequentialLifetime(values),
                write_probability=0.5,
            )
            want = remap_page_by_cell_heap(
                spec, blocks, spares, rng_for(2013, page, _REMAP_SALT),
                SequentialLifetime(values), 0.5,
            )
            assert simulate_remap_page(task, page) == want, page
