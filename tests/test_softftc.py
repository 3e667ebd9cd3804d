"""Tests for the analytic soft-FTC models, cross-checked against Monte Carlo."""

import pytest

from repro.analysis.softftc import (
    aegis_expected_soft_ftc,
    aegis_failure_probability,
    birthday_collision_probability,
    safer_birthday_soft_ftc,
)
from repro.errors import ConfigurationError
from repro.sim.block_sim import failure_curve
from repro.sim.roster import aegis_spec


class TestBirthday:
    def test_classic_value(self):
        assert birthday_collision_probability(23, 365) == pytest.approx(0.507, abs=0.001)

    def test_boundaries(self):
        assert birthday_collision_probability(1, 10) == 0.0
        assert birthday_collision_probability(11, 10) == 1.0

    def test_invalid_bins(self):
        with pytest.raises(ConfigurationError):
            birthday_collision_probability(2, 0)


class TestAegisFailureModel:
    def test_zero_below_threshold(self):
        # fewer pairs than slopes: occupancy can never be full
        assert aegis_failure_probability(5, 61, 9) == 0.0
        assert aegis_failure_probability(1, 23, 23) == 0.0

    def test_monotone_in_faults(self):
        probs = [aegis_failure_probability(f, 31, 17) for f in range(2, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.99

    def test_larger_b_tolerates_more(self):
        assert aegis_failure_probability(20, 61, 9) < aegis_failure_probability(
            20, 31, 17
        )

    def test_matches_monte_carlo_transition(self):
        """The analytic transition must sit within a few faults of the
        measured one (the i.i.d.-pairs approximation is mildly optimistic)."""
        curve = failure_curve(aegis_spec(9, 61, 512), trials=400, max_faults=40, seed=1)
        measured_half = next(
            f for f in curve.fault_counts if curve.probability_at(f) >= 0.5
        )
        analytic_half = next(
            f for f in range(2, 60) if aegis_failure_probability(f, 61, 9) >= 0.5
        )
        assert abs(measured_half - analytic_half) <= 4


class TestExpectedSoftFtc:
    def test_between_hard_and_saturation(self):
        expected = aegis_expected_soft_ftc(61, 9)
        assert 11 < expected < 61

    def test_grows_with_b(self):
        assert aegis_expected_soft_ftc(61, 9) > aegis_expected_soft_ftc(23, 23)


class TestOtherModels:
    def test_safer_birthday(self):
        # more groups -> more post-saturation headroom
        assert safer_birthday_soft_ftc(128) > safer_birthday_soft_ftc(32)
