"""Tests for the workload generators and their interplay with wear leveling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pcm.device import PCMDevice
from repro.pcm.lifetime import FixedLifetime
from repro.pcm.wear import NoWearLeveling, StartGapWearLeveling
from repro.pcm.workload import (
    HotColdWorkload,
    UniformWorkload,
    ZipfWorkload,
)
from repro.schemes.ideal import NoProtectionScheme


@pytest.mark.parametrize(
    "make",
    [UniformWorkload, lambda: ZipfWorkload(alpha=1.0), lambda: HotColdWorkload()],
    ids=["uniform", "zipf", "hotcold"],
)
def test_draws_are_a_function_of_the_generator(make):
    """Two fresh workloads fed equal generators emit the same page stream,
    so a seeded device run is reproducible."""
    streams = []
    for _ in range(2):
        workload, rng = make(), np.random.default_rng(42)
        streams.append([workload.next_logical_page(16, rng) for _ in range(200)])
    assert streams[0] == streams[1]
    assert all(0 <= page < 16 for page in streams[0])


class TestUniform:
    def test_covers_all_pages(self, rng):
        workload = UniformWorkload()
        draws = [workload.next_logical_page(8, rng) for _ in range(800)]
        counts = np.bincount(draws, minlength=8)
        assert counts.min() > 0
        assert counts.max() < 2 * counts.mean()


class TestZipf:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfWorkload(alpha=0)

    def test_skew_increases_with_alpha(self, rng):
        def top_share(alpha):
            workload = ZipfWorkload(alpha=alpha)
            draws = [workload.next_logical_page(32, rng) for _ in range(4000)]
            counts = np.sort(np.bincount(draws, minlength=32))[::-1]
            return counts[:3].sum() / counts.sum()

        assert top_share(2.0) > top_share(0.5)

    def test_in_range(self, rng):
        workload = ZipfWorkload(alpha=1.2)
        assert all(
            0 <= workload.next_logical_page(16, rng) < 16 for _ in range(200)
        )

    def test_repreps_on_population_change(self, rng):
        workload = ZipfWorkload(alpha=1.0)
        workload.next_logical_page(8, rng)
        assert 0 <= workload.next_logical_page(32, rng) < 32

    def test_cache_invalidation_on_growth(self, rng):
        """Growing ``n_pages`` mid-run must rebuild the CDF and permutation:
        every index in the larger space must stay reachable."""
        workload = ZipfWorkload(alpha=1.0)
        for _ in range(10):
            workload.next_logical_page(4, rng)
        small_cdf = workload._cdf
        draws = {workload.next_logical_page(64, rng) for _ in range(4000)}
        assert workload._cdf is not small_cdf
        assert workload._cdf.size == 64
        assert workload._perm.size == 64
        assert max(draws) >= 4  # pages beyond the old population are reachable
        assert all(0 <= d < 64 for d in draws)

    def test_cache_invalidation_on_shrink(self, rng):
        """Shrinking ``n_pages`` mid-run must never emit a stale out-of-range
        index from the old permutation."""
        workload = ZipfWorkload(alpha=1.0)
        for _ in range(10):
            workload.next_logical_page(64, rng)
        draws = [workload.next_logical_page(4, rng) for _ in range(500)]
        assert workload._cdf.size == 4
        assert all(0 <= d < 4 for d in draws)

    def test_rank_decoupled_from_index(self):
        """The permutation scatters popularity: the hottest page should not
        systematically be index 0 across independent preparations."""
        hottest = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            workload = ZipfWorkload(alpha=2.0)
            draws = [workload.next_logical_page(32, rng) for _ in range(800)]
            hottest.append(int(np.argmax(np.bincount(draws, minlength=32))))
        assert any(h != 0 for h in hottest)
        # rank 0 maps through the permutation, not the identity
        assert any(h != hottest[0] for h in hottest)


class TestHotCold:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HotColdWorkload(hot_fraction=0)
        with pytest.raises(ConfigurationError):
            HotColdWorkload(hot_share=1.0)

    def test_hot_pages_dominate(self, rng):
        workload = HotColdWorkload(hot_fraction=0.25, hot_share=0.9)
        draws = [workload.next_logical_page(8, rng) for _ in range(2000)]
        hot = sum(1 for d in draws if d < 2)
        assert 0.8 < hot / len(draws) < 0.97


class TestWorkloadLevelingInterplay:
    """The reason §3.1 assumes leveling: skewed traffic without leveling
    kills hot pages early, and Start-Gap largely repairs that."""

    def _half_life(self, wear_leveling, seed=4):
        device = PCMDevice(
            8, 64, 1, NoProtectionScheme,
            lifetime_model=FixedLifetime(50),
            wear_leveling=wear_leveling,
            workload=HotColdWorkload(hot_fraction=0.25, hot_share=0.9),
            rng=np.random.default_rng(seed),
        )
        device.run_until_dead(max_writes=100_000)
        return device.half_lifetime()

    def test_startgap_repairs_skew(self):
        unlevelled = self._half_life(NoWearLeveling())
        startgap = self._half_life(StartGapWearLeveling(8, gap_interval=4))
        assert startgap > 1.5 * unlevelled
