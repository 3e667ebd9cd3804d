"""Tests for the direct-mapped fail cache."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pcm.cell import CellArray
from repro.pcm.failcache import (
    DirectMappedFailCache,
    SequentialBlockKeys,
    _Entry,
)


def _entries(cache):
    return {
        index: (entry.block_key, entry.offset, entry.stuck_value)
        for index, entry in cache._entries.items()
    }


class TestFailCache:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            DirectMappedFailCache(capacity=0)

    def test_records_and_recalls(self):
        cache = DirectMappedFailCache(capacity=None)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        assert cache.known_faults(cells) == {}  # cold
        cache.record(cells, 3, 1)
        assert cache.known_faults(cells) == {3: 1}

    def test_miss_statistics(self):
        cache = DirectMappedFailCache(capacity=None)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        cells.inject_fault(9, stuck_value=0)
        cache.record(cells, 3, 1)
        known = cache.known_faults(cells)
        assert known == {3: 1}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_blocks_are_isolated(self):
        cache = DirectMappedFailCache(capacity=None)
        cells_a = CellArray(64)
        cells_b = CellArray(64)
        cells_a.inject_fault(3, stuck_value=1)
        cells_b.inject_fault(3, stuck_value=0)
        cache.record(cells_a, 3, 1)
        assert cache.known_faults(cells_b) == {}

    def test_conflict_eviction(self):
        cache = DirectMappedFailCache(capacity=1)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        cells.inject_fault(9, stuck_value=0)
        cache.record(cells, 3, 1)
        cache.record(cells, 9, 0)  # single set: must evict
        assert cache.evictions == 1
        assert cache.occupancy == 1
        # only one of the two faults is now known
        assert len(cache.known_faults(cells)) == 1

    def test_strict_mode_raises_on_miss(self):
        from repro.errors import CacheMissError

        cache = DirectMappedFailCache(capacity=None, strict=True)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        with pytest.raises(CacheMissError):
            cache.known_faults(cells)
        cache.record(cells, 3, 1)
        assert cache.known_faults(cells) == {3: 1}

    def test_update_in_place_is_not_eviction(self):
        cache = DirectMappedFailCache(capacity=1)
        cells = CellArray(64)
        cells.inject_fault(3, stuck_value=1)
        cache.record(cells, 3, 1)
        cache.record(cells, 3, 1)
        assert cache.evictions == 0

    def test_rerecording_resident_faults_matches_unconditional_inserts(self):
        """Re-recording every fault of a block after each write (the service
        array's discovery path) leaves the same entries, evictions and
        lookups as inserting each fault unconditionally, on a cache small
        enough that blocks keep evicting each other."""

        def insert(cache, cells, offset, stuck_value):
            # the insert without the resident-entry short-circuit
            block_key = cache._key_of(cells)
            index = cache._index(block_key, offset)
            existing = cache._entries.get(index)
            if existing is not None and (existing.block_key, existing.offset) != (
                block_key,
                offset,
            ):
                cache.evictions += 1
            cache._entries[index] = _Entry(block_key, offset, stuck_value)

        rng = np.random.default_rng(11)
        reference = DirectMappedFailCache(5, key_of=SequentialBlockKeys())
        cache = DirectMappedFailCache(5, key_of=SequentialBlockKeys())
        blocks = [CellArray(32) for _ in range(4)]
        for _ in range(200):
            cells = blocks[int(rng.integers(len(blocks)))]
            healthy = np.flatnonzero(~cells._stuck)
            if healthy.size and rng.random() < 0.3:
                cells.inject_fault(
                    int(rng.choice(healthy)), stuck_value=int(rng.integers(2))
                )
            for offset in cells.fault_offsets:
                stuck_value = cells.stuck_value_of(offset)
                insert(reference, cells, offset, stuck_value)
                cache.record(cells, offset, stuck_value)
            assert _entries(cache) == _entries(reference)
            assert cache.evictions == reference.evictions
            assert cache.known_faults(cells) == reference.known_faults(cells)
            assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
        assert reference.evictions > 0
