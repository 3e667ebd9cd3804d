"""Tests for deterministic RNG stream management."""

import numpy as np

from repro.sim.rng import rng_for


class TestRngFor:
    def test_same_keys_same_stream(self):
        assert rng_for(1, 2, 3).integers(0, 2**31) == rng_for(1, 2, 3).integers(0, 2**31)

    def test_different_keys_differ(self):
        draws = {
            rng_for(1, *keys).integers(0, 2**31)
            for keys in [(0,), (1,), (0, 0), (0, 1), (2, 7)]
        }
        assert len(draws) == 5

    def test_key_prefix_is_a_separate_stream(self):
        parent = rng_for(1, 2).integers(0, 2**31, size=4).tolist()
        child = rng_for(1, 2, 0).integers(0, 2**31, size=4).tolist()
        assert parent != child

    def test_key_order_matters(self):
        forward = rng_for(1, 2, 3).integers(0, 2**31, size=4).tolist()
        backward = rng_for(1, 3, 2).integers(0, 2**31, size=4).tolist()
        assert forward != backward

    def test_different_seeds_differ(self):
        assert rng_for(1, 0).integers(0, 2**31) != rng_for(2, 0).integers(0, 2**31)

    def test_returns_generator(self):
        assert isinstance(rng_for(0), np.random.Generator)
