"""Tests for the event-driven page simulator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pcm.lifetime import FixedLifetime
from repro.sim.page_sim import run_page_study, simulate_page
from repro.sim.roster import aegis_spec, ecp_spec, no_protection_spec, safer_spec


class TestSimulatePage:
    def test_no_protection_dies_at_first_death(self, rng):
        result = simulate_page(no_protection_spec(512), 4, rng)
        assert result.faults_recovered == 0
        assert result.lifetime_writes == pytest.approx(result.baseline_lifetime)
        assert result.improvement == pytest.approx(1.0)

    def test_ecp_fault_count_is_block_local(self, rng):
        # ECP1 pages die when any single block collects 2 faults
        result = simulate_page(ecp_spec(1, 512), 8, rng)
        assert result.faults_recovered >= 1
        assert result.lifetime_writes > result.baseline_lifetime

    def test_deterministic_under_seed(self):
        spec = aegis_spec(9, 61, 512)
        r1 = simulate_page(spec, 8, np.random.default_rng(42))
        r2 = simulate_page(spec, 8, np.random.default_rng(42))
        assert r1 == r2

    def test_write_probability_scales_lifetime(self):
        spec = ecp_spec(2, 512)
        slow = simulate_page(
            spec, 4, np.random.default_rng(7), write_probability=0.5
        )
        fast = simulate_page(
            spec, 4, np.random.default_rng(7), write_probability=1.0
        )
        # programming every bit on every write halves the page lifetime
        assert slow.lifetime_writes == pytest.approx(2 * fast.lifetime_writes)

    def test_invalid_write_probability(self, rng):
        with pytest.raises(ConfigurationError):
            simulate_page(ecp_spec(1, 512), 2, rng, write_probability=0.0)

    def test_inversion_wear_shortens_lifetime(self):
        """With wear amplification on, cache-less schemes lose lifetime."""
        spec = aegis_spec(9, 61, 512)
        lifetimes = {}
        for wear in (0.0, 1.0):
            study_lifetimes = []
            for page in range(8):
                result = simulate_page(
                    spec,
                    16,
                    np.random.default_rng(page),
                    inversion_wear_rate=wear,
                )
                study_lifetimes.append(result.lifetime_writes)
            lifetimes[wear] = np.mean(study_lifetimes)
        assert lifetimes[1.0] < lifetimes[0.0]

    def test_fixed_lifetime_model(self, rng):
        # deterministic endurance: first deaths happen together
        result = simulate_page(
            no_protection_spec(512),
            2,
            rng,
            lifetime_model=FixedLifetime(100),
        )
        assert result.lifetime_writes == pytest.approx(200)  # 100 / 0.5


class TestFaultTracing:
    def test_observer_sees_every_fault_in_order(self):
        from repro.sim.page_sim import FaultEvent

        events: list[FaultEvent] = []
        result = simulate_page(
            ecp_spec(2, 512), 4, np.random.default_rng(5), observer=events.append
        )
        assert len(events) == result.faults_recovered + 1
        times = [e.time for e in events]
        assert times == sorted(times)
        assert events[-1].fatal
        assert all(not e.fatal for e in events[:-1])
        assert events[-1].time == pytest.approx(result.lifetime_writes)

    def test_block_fault_counts_consistent(self):
        events = []
        simulate_page(
            ecp_spec(3, 512), 4, np.random.default_rng(6), observer=events.append
        )
        per_block: dict[int, int] = {}
        for event in events:
            per_block[event.block] = per_block.get(event.block, 0) + 1
            assert event.block_fault_count == per_block[event.block]
        # the fatal block holds pointer-budget + 1 faults
        assert per_block[events[-1].block] == 4


class TestWearAccelerationMechanics:
    def test_group_mates_die_early_by_exact_half(self):
        """With inversion wear equal to the write probability, a cell that
        joins a fault's group at time t0 has its remaining life halved:
        death at t0 + (T - t0)/2 exactly."""
        from repro.pcm.lifetime import LifetimeModel
        from repro.sim.page_sim import FaultEvent
        from repro.sim.roster import aegis_spec

        spec = aegis_spec(9, 61, 512)
        rect = spec.make_checker(np.random.default_rng(0)).rect

        class TwoTier(LifetimeModel):
            """One early cell; its slope-0 group mates next; rest far out."""

            def sample(self, n_cells, rng):
                endurance = np.full(n_cells, 1000.0)
                endurance[0] = 10.0  # the first fault, at offset 0
                for mate in rect.group_members(rect.group_of(0, 0), 0):
                    if mate != 0:
                        endurance[mate] = 100.0
                return endurance

            @property
            def mean(self):
                return 1000.0

        events: list[FaultEvent] = []
        simulate_page(
            spec,
            1,
            np.random.default_rng(1),
            lifetime_model=TwoTier(),
            write_probability=0.5,
            inversion_wear_rate=0.5,
            observer=events.append,
        )
        first, second = events[0], events[1]
        assert first.offset == 0 and first.time == pytest.approx(20.0)
        # base death of a mate is 200; accelerated from t=20: 20 + 180/2
        assert second.time == pytest.approx(110.0)
        assert second.offset in rect.group_members(rect.group_of(0, 0), 0)


class TestRunPageStudy:
    def test_study_shape(self):
        study = run_page_study(ecp_spec(2, 512), n_pages=6, seed=9)
        assert study.faults.n == 6
        assert len(study.results) == 6
        assert study.improvement > 1
        assert study.lifetimes().shape == (6,)

    def test_per_bit_contribution(self):
        study = run_page_study(ecp_spec(2, 512), n_pages=4, seed=9)
        expected = (study.improvement - 1) / 21
        assert study.improvement_per_bit == pytest.approx(expected)

    def test_same_pages_across_schemes(self):
        """Different schemes must see the same endurance draws per page
        index (paired comparison)."""
        a = run_page_study(ecp_spec(2, 512), n_pages=4, seed=11)
        b = run_page_study(safer_spec(32, 512), n_pages=4, seed=11)
        assert a.baseline_lifetime.mean == pytest.approx(
            b.baseline_lifetime.mean, rel=1e-12
        )

    @pytest.mark.parametrize("block_bits, blocks", [(512, 64), (256, 128)])
    def test_default_page_is_4kb(self, block_bits, blocks):
        spec = ecp_spec(2, block_bits)
        default = run_page_study(spec, n_pages=2, seed=4)
        explicit = run_page_study(spec, n_pages=2, seed=4, blocks_per_page=blocks)
        assert default.results == explicit.results

    def test_block_size_must_divide_page(self):
        with pytest.raises(ConfigurationError):
            run_page_study(ecp_spec(2, 100), n_pages=1, seed=0)

    def test_better_scheme_more_faults(self):
        weak = run_page_study(ecp_spec(1, 512), n_pages=8, seed=3)
        strong = run_page_study(aegis_spec(9, 61, 512), n_pages=8, seed=3)
        assert strong.faults.mean > 3 * weak.faults.mean
        assert strong.lifetime.mean > weak.lifetime.mean
