"""Tests for the statistics helpers."""

import math

import numpy as np
import pytest

from repro.util.stats import (
    RunningMean,
    geometric_mean,
    half_life,
    mean_ci,
    survival_curve,
)


class TestMeanCi:
    def test_basic(self):
        est = mean_ci([1.0, 2.0, 3.0, 4.0])
        assert est.mean == pytest.approx(2.5)
        assert est.n == 4
        assert est.low < 2.5 < est.high

    def test_single_sample_infinite_interval(self):
        est = mean_ci([5.0])
        assert est.mean == 5.0
        assert math.isinf(est.half_width)

    def test_coverage_roughly_95(self):
        rng = np.random.default_rng(0)
        covered = 0
        for _ in range(300):
            est = mean_ci(rng.normal(10, 2, size=40))
            if est.low <= 10 <= est.high:
                covered += 1
        assert 270 <= covered <= 299  # ~95% with slack

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_unknown_confidence(self):
        with pytest.raises(ValueError):
            mean_ci([1, 2], confidence=0.5)

    def test_confidence_levels_ordered(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert mean_ci(data, 0.90).half_width < mean_ci(data, 0.99).half_width


class TestSurvival:
    def test_survival_curve(self):
        deaths = [1.0, 2.0, 3.0, 4.0]
        grid = np.array([0.0, 1.5, 2.5, 10.0])
        assert survival_curve(deaths, grid).tolist() == [1.0, 0.75, 0.5, 0.0]

    def test_half_life(self):
        assert half_life([1, 2, 3, 4, 100]) == 3

    def test_half_life_empty(self):
        with pytest.raises(ValueError):
            half_life([])


class TestRunningMean:
    """The one-pass accumulator must match the batch estimator exactly."""

    def test_matches_mean_ci(self):
        rng = np.random.default_rng(1)
        data = rng.exponential(50.0, size=200).tolist()
        acc = RunningMean()
        for value in data:
            acc.push(value)
        batch = mean_ci(data)
        streaming = acc.estimate()
        assert streaming.n == batch.n
        assert streaming.mean == pytest.approx(batch.mean, rel=1e-12)
        assert streaming.half_width == pytest.approx(batch.half_width, rel=1e-9)

    def test_incremental_prefixes(self):
        """Every prefix estimate agrees with mean_ci on that prefix — the
        property the adaptive stopping rule in run_page_study relies on."""
        data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        acc = RunningMean()
        for i, value in enumerate(data, start=1):
            acc.push(value)
            if i >= 2:
                batch = mean_ci(data[:i])
                est = acc.estimate()
                assert est.mean == pytest.approx(batch.mean, rel=1e-12)
                assert est.half_width == pytest.approx(
                    batch.half_width, rel=1e-9
                )

    def test_single_sample_infinite_interval(self):
        acc = RunningMean()
        acc.push(7.0)
        est = acc.estimate()
        assert est.mean == 7.0
        assert math.isinf(est.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RunningMean().estimate()

    def test_constant_stream_zero_variance(self):
        acc = RunningMean()
        for _ in range(10):
            acc.push(2.5)
        assert acc.variance == pytest.approx(0.0, abs=1e-15)
        assert acc.estimate().half_width == pytest.approx(0.0, abs=1e-12)


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
