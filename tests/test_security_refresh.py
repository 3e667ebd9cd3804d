"""Tests for Security Refresh wear leveling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pcm.device import PCMDevice
from repro.pcm.lifetime import FixedLifetime
from repro.pcm.wear import NoWearLeveling, SecurityRefreshWearLeveling
from repro.pcm.workload import HotColdWorkload
from repro.schemes.ideal import NoProtectionScheme


class TestSecurityRefresh:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SecurityRefreshWearLeveling(1)
        with pytest.raises(ConfigurationError):
            SecurityRefreshWearLeveling(8, refresh_interval=0)
        with pytest.raises(ConfigurationError):
            SecurityRefreshWearLeveling(12)  # not a power of two

    def test_key_changes_each_round(self, rng):
        policy = SecurityRefreshWearLeveling(16, refresh_interval=4, seed=1)
        alive = np.ones(16, dtype=bool)
        keys = set()
        for _ in range(40):
            policy.place(0, alive, rng)
            keys.add(policy.key)
        assert len(keys) > 3  # the mapping really re-randomises

    def test_bijective_within_a_round(self, rng):
        policy = SecurityRefreshWearLeveling(8, refresh_interval=1000, seed=2)
        alive = np.ones(8, dtype=bool)
        physical = {policy.place(logical, alive, rng) for logical in range(8)}
        assert physical == set(range(8))  # XOR remap is a permutation

    def test_spreads_hot_traffic(self, rng):
        policy = SecurityRefreshWearLeveling(8, refresh_interval=8, seed=3)
        alive = np.ones(8, dtype=bool)
        picks = [policy.place(0, alive, rng) for _ in range(2000)]
        counts = np.bincount(picks, minlength=8)
        assert (counts > 0).sum() == 8
        assert counts.max() < 3 * counts.mean()

    def test_repairs_skew_like_startgap(self):
        def half_life(policy_factory, seed=6):
            device = PCMDevice(
                8, 64, 1, NoProtectionScheme,
                lifetime_model=FixedLifetime(50),
                wear_leveling=policy_factory(),
                workload=HotColdWorkload(hot_fraction=0.25, hot_share=0.9),
                rng=np.random.default_rng(seed),
            )
            device.run_until_dead(max_writes=100_000)
            return device.half_lifetime()

        unlevelled = half_life(NoWearLeveling)
        refreshed = half_life(
            lambda: SecurityRefreshWearLeveling(8, refresh_interval=16)
        )
        # one key per 16 writes spreads the hot set noticeably (a shorter
        # refresh interval spreads harder at a higher migration cost)
        assert refreshed > 1.25 * unlevelled
