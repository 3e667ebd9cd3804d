"""Tests for the block-level Monte Carlo (Figures 8 and 10)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pcm.faults import PartiallyStuck
from repro.sim.block_sim import block_lifetime_study, failure_curve
from repro.sim.page_sim import run_page_study, simulate_page
from repro.sim.rng import rng_for
from repro.sim.roster import (
    aegis_rw_p_spec,
    aegis_rw_spec,
    aegis_spec,
    ecp_spec,
    safer_spec,
)


def _fault_count_at_death(spec, rng) -> int:
    """One failure-curve trial: a wear-free one-block page's faults at
    death, the fatal fault included."""
    return simulate_page(spec, 1, rng, inversion_wear_rate=0.0).faults_recovered + 1


class TestFaultsAtDeath:
    def test_ecp_exact(self):
        # ECP dies at exactly pointers + 1 faults, always
        for trial in range(10):
            assert _fault_count_at_death(ecp_spec(4, 512), rng_for(0, trial)) == 5

    def test_aegis_beyond_hard_ftc(self):
        # soft FTC strictly above hard FTC almost surely
        spec = aegis_spec(9, 61, 512)
        deaths = [_fault_count_at_death(spec, rng_for(0, trial)) for trial in range(20)]
        assert min(deaths) > 11  # hard FTC is guaranteed
        assert np.mean(deaths) > 15  # and soft tolerance goes well beyond

    def test_curve_counts_each_trial_once(self):
        """The curve is the empirical CDF of the trials' faults at death."""
        spec, trials = aegis_spec(9, 61, 512), 30
        deaths = np.array([_fault_count_at_death(spec, rng_for(4, t)) for t in range(trials)])
        curve = failure_curve(spec, trials=trials, max_faults=40, seed=4)
        assert curve.probabilities == tuple(
            float((deaths <= f).mean()) for f in curve.fault_counts
        )


class TestStudySizes:
    @pytest.mark.parametrize("trials", [0, -5])
    def test_failure_curve_rejects_empty_study(self, trials):
        with pytest.raises(ConfigurationError, match="at least one trial"):
            failure_curve(ecp_spec(4, 512), trials=trials)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_block_lifetime_study_rejects_empty_study(self, trials):
        with pytest.raises(ConfigurationError, match="at least one trial"):
            block_lifetime_study(ecp_spec(4, 512), trials=trials)

    @pytest.mark.parametrize("n_pages", [0, -5])
    def test_page_study_rejects_empty_study(self, n_pages):
        with pytest.raises(ConfigurationError, match="at least one page"):
            run_page_study(ecp_spec(4, 512), n_pages=n_pages)


class TestFailureCurve:
    def test_zero_below_hard_ftc(self):
        curve = failure_curve(aegis_spec(17, 31, 512), trials=100, max_faults=30, seed=5)
        for f in range(1, 9):  # hard FTC of 17x31 is 8
            assert curve.probability_at(f) == 0.0

    def test_monotone_and_bounded(self):
        curve = failure_curve(safer_spec(32, 512), trials=150, max_faults=30, seed=5)
        probs = list(curve.probabilities)
        assert all(0 <= p <= 1 for p in probs)
        assert probs == sorted(probs)

    def test_ecp_vertical_rise(self):
        curve = failure_curve(ecp_spec(6, 512), trials=100, max_faults=10, seed=5)
        assert curve.probability_at(6) == 0.0
        assert curve.probability_at(7) == 1.0

    def test_ecp_partial_counts_masked_faults(self):
        """ECP6 dies on its 7th unmasked fault; under ``partial`` the masked
        partial faults that arrived first still count, so a block dies
        somewhere in 7..p + 1 + mask_budget faults."""
        budget = PartiallyStuck().mask_budget
        curve = failure_curve(
            ecp_spec(6, 512), trials=200, max_faults=14, seed=3, fault_model="partial"
        )
        assert curve.probability_at(6) == 0.0
        assert curve.probability_at(6 + 1 + budget) == 1.0
        assert 0.0 < curve.probability_at(6 + budget) < 1.0

    def test_probability_at_boundaries(self):
        curve = failure_curve(ecp_spec(2, 512), trials=50, max_faults=5, seed=5)
        assert curve.probability_at(0) == 0.0
        assert curve.probability_at(99) == curve.probabilities[-1]

    def test_aegis_beats_safer_at_same_fault_count(self):
        """The Figure 8 headline: Aegis 9x61 (67 bits) has lower failure
        probability than SAFER64 (91 bits) in the transition region."""
        aegis = failure_curve(aegis_spec(9, 61, 512), trials=300, max_faults=24, seed=6)
        safer = failure_curve(safer_spec(64, 512), trials=300, max_faults=24, seed=6)
        for f in (12, 16, 20):
            assert aegis.probability_at(f) <= safer.probability_at(f)


class TestWearAcceleration:
    def test_inversion_wear_shortens_block_lifetime(self):
        spec = aegis_spec(9, 61, 512)
        with_wear = np.mean([
            simulate_page(spec, 1, rng_for(7, t), inversion_wear_rate=0.5).lifetime_writes
            for t in range(30)
        ])
        without = np.mean([
            simulate_page(spec, 1, rng_for(7, t), inversion_wear_rate=0.0).lifetime_writes
            for t in range(30)
        ])
        assert with_wear < without

    def test_cache_scheme_immune_to_wear_knob(self):
        # Aegis-rw performs single-pass writes: the knob must not matter
        spec = aegis_rw_spec(9, 61, 512, samples=16)
        a = simulate_page(spec, 1, rng_for(8, 0), inversion_wear_rate=0.5)
        b = simulate_page(spec, 1, rng_for(8, 0), inversion_wear_rate=0.0)
        assert a == b


class TestBlockLifetime:
    def test_lifetime_positive_and_fault_count_sane(self):
        block = simulate_page(aegis_spec(9, 61, 512), 1, rng_for(1, 0))
        assert block.lifetime_writes > 0
        assert block.faults_recovered + 1 > 11  # the fatal fault included

    def test_study_aggregates(self):
        study = block_lifetime_study(ecp_spec(4, 512), trials=20, seed=2)
        assert study.faults.mean == pytest.approx(5.0)  # ECP4 dies at 5 exactly
        assert study.lifetime.mean > 0

    def test_rw_p_plateau_matches_rw(self):
        """Figure 10's plateau: with a generous pointer budget, Aegis-rw-p's
        block lifetime approaches Aegis-rw's."""
        rw = block_lifetime_study(aegis_rw_spec(17, 31, 512), trials=30, seed=3)
        rwp_large = block_lifetime_study(
            aegis_rw_p_spec(17, 31, 15, 512), trials=30, seed=3
        )
        rwp_small = block_lifetime_study(
            aegis_rw_p_spec(17, 31, 1, 512), trials=30, seed=3
        )
        assert rwp_small.lifetime.mean < rwp_large.lifetime.mean
        assert rwp_large.lifetime.mean == pytest.approx(rw.lifetime.mean, rel=0.1)
