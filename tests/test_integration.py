"""Integration tests: the slow bit-accurate device model and the fast
event-driven simulator must tell the same story.

The fast path replaces per-write simulation with fault-arrival events, so
on small configurations (tiny endurance, real writes feasible) the two
must produce statistically indistinguishable fault-tolerance results.
"""

import numpy as np

from repro.core.aegis import AegisScheme
from repro.core.formations import formation
from repro.pcm.block import ProtectedBlock
from repro.pcm.device import PCMDevice
from repro.pcm.lifetime import NormalLifetime
from repro.pcm.page import Page
from repro.schemes.ecp import EcpScheme
from repro.sim.page_sim import simulate_page
from repro.sim.rng import rng_for
from repro.sim.roster import aegis_spec, ecp_spec
from tests.conftest import write_until_failure


def _drive_block_to_death(scheme_factory, rng, n_bits=512):
    """Bit-accurate path: real writes, tiny endurance, death by wear."""
    block = ProtectedBlock(
        n_bits,
        scheme_factory,
        lifetime_model=NormalLifetime(mean_lifetime=40, cov=0.25),
        rng=rng,
    )
    write_until_failure(block, max_writes=100_000)
    assert block.failed
    return block.fault_count


def _fault_count_at_death(spec, rng) -> int:
    """Event-driven path: one wear-free one-block page of the cell-death
    scheduler (a failure-curve trial), fatal fault included."""
    return simulate_page(spec, 1, rng, inversion_wear_rate=0.0).faults_recovered + 1


class TestDeviceVsSimulator:
    def test_ecp_fault_counts_agree(self):
        """ECP's faults-at-death is deterministic (p+1); both paths must
        find it."""
        slow = [
            _drive_block_to_death(lambda c: EcpScheme(c, 4), np.random.default_rng(s))
            for s in range(8)
        ]
        fast = [_fault_count_at_death(ecp_spec(4, 512), rng_for(9, s)) for s in range(8)]
        # at tiny endurance (mean 40, cov 25%) several cells die within the
        # same write, so the slow path overshoots p+1 = 5 by the cluster
        # that arrives with the fatal write — but never undershoots it
        assert all(f == 5 for f in fast)
        assert all(5 <= s <= 12 for s in slow)

    def test_aegis_fault_counts_same_region(self):
        """Aegis 9x61 faults-at-death from real writes lands in the same
        region the fast checker predicts (soft FTC well beyond hard FTC)."""
        slow = [
            _drive_block_to_death(
                lambda c: AegisScheme(c, formation(9, 61, 512)),
                np.random.default_rng(100 + s),
            )
            for s in range(5)
        ]
        fast = [_fault_count_at_death(aegis_spec(9, 61, 512), rng_for(8, s)) for s in range(40)]
        lo, hi = min(fast), max(fast)
        # the slow path sees clustered deaths near end-of-life (several
        # cells die within one write), so allow a margin above the fast
        # checker's per-arrival resolution
        for s in slow:
            assert lo <= s <= hi + 15

    def test_page_failure_on_first_block_death(self):
        rng = np.random.default_rng(0)
        page = Page(
            512,
            4,
            lambda c: EcpScheme(c, 2),
            lifetime_model=NormalLifetime(mean_lifetime=30, cov=0.25),
            rng=rng,
        )
        write_until_failure(page, max_writes=100_000)
        assert page.failed
        failed_blocks = [b for b in page.blocks if b.failed]
        assert len(failed_blocks) == 1  # exactly the first death ends the page

    def test_device_survival_monotone(self):
        rng = np.random.default_rng(1)
        device = PCMDevice(
            6, 128, 2,
            lambda c: EcpScheme(c, 1),
            lifetime_model=NormalLifetime(mean_lifetime=25, cov=0.25),
            rng=rng,
        )
        rates = [device.survival_rate]
        while device.live_page_count:
            device.issue_write()
            rates.append(device.survival_rate)
        assert rates[0] == 1.0
        assert rates[-1] == 0.0
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_survival_conversion_matches_mechanistic_device(self):
        """The analytic own-age -> device-writes conversion (the G_k
        formula behind Figure 9) must agree with the mechanistic device
        driven write-by-write under perfect round-robin leveling."""
        from repro.sim.survival import survival_curve_from_lifetimes

        rng = np.random.default_rng(17)
        device = PCMDevice(
            6, 128, 1,
            lambda c: EcpScheme(c, 1),
            lifetime_model=NormalLifetime(mean_lifetime=40, cov=0.25),
            rng=rng,
        )
        device.run_until_dead(max_writes=500_000)
        mechanistic_deaths = list(device.page_death_times)
        # per-page ages at death: writes each page itself served (+1 for
        # the fatal write the page rejected)
        ages = [page.writes_serviced + 1 for page in device.pages]
        curve = survival_curve_from_lifetimes(ages)
        for analytic, mechanistic in zip(curve.death_writes, mechanistic_deaths):
            # round-robin phase offsets make the two differ by at most the
            # population size per death
            assert abs(analytic - mechanistic) <= device.n_pages + 1

    def test_protected_device_outlives_weak_device(self):
        def half_life_of(pointer_count, seed):
            device = PCMDevice(
                4, 512, 2,
                lambda c: EcpScheme(c, pointer_count),
                lifetime_model=NormalLifetime(mean_lifetime=25, cov=0.25),
                rng=np.random.default_rng(seed),
            )
            device.run_until_dead(max_writes=500_000)
            return device.half_lifetime()

        weak = np.mean([half_life_of(1, s) for s in range(3)])
        strong = np.mean([half_life_of(6, s) for s in range(3)])
        assert strong > weak
