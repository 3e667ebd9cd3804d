"""Tests for the write-latency model."""

import pytest

from repro.analysis.latency import LatencyModel, latency_study
from repro.core.aegis import AegisScheme
from repro.core.aegis_dw import AegisDoubleWriteScheme
from repro.core.aegis_rw import AegisRwScheme
from repro.core.formations import formation
from repro.errors import ConfigurationError

FORM = formation(9, 61, 512)


class TestLatencyModel:
    def test_single_pass_baseline(self):
        assert LatencyModel().write_latency_ns(1, 0) == pytest.approx(270.0)

    def test_passes_dominate(self):
        model = LatencyModel()
        one = model.write_latency_ns(1, 0)
        three = model.write_latency_ns(3, 0)
        assert three == pytest.approx(3 * one)

    def test_repartitions_cost_logic_lookups(self):
        model = LatencyModel()
        assert model.write_latency_ns(1, 4) == pytest.approx(270.0 + 4 * 1.0)

    def test_cache_lookup_added(self):
        model = LatencyModel()
        plain = model.write_latency_ns(1, 0)
        cached = model.write_latency_ns(1, 0, cache_assisted=True)
        assert cached == pytest.approx(plain + 5.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(program_ns=-1)


class TestLatencyStudy:
    def test_rw_single_pass_at_any_fault_count(self):
        summary = latency_study(
            "rw", lambda c: AegisRwScheme(c, FORM),
            fault_count=10, cache_assisted=True, writes=15, trials=3,
        )
        assert summary.passes_per_write == pytest.approx(1.0)
        assert summary.mean_latency_ns == pytest.approx(275.0)

    def test_double_write_three_passes(self):
        summary = latency_study(
            "dw", lambda c: AegisDoubleWriteScheme(c, FORM),
            fault_count=4, writes=15, trials=3,
        )
        assert summary.passes_per_write == pytest.approx(3.0)
        assert summary.slowdown_vs_single_pass == pytest.approx(3.0, rel=0.01)

    def test_basic_aegis_slows_with_faults(self):
        clean = latency_study(
            "aegis", lambda c: AegisScheme(c, FORM),
            fault_count=0, writes=15, trials=3,
        )
        faulty = latency_study(
            "aegis", lambda c: AegisScheme(c, FORM),
            fault_count=10, writes=15, trials=3,
        )
        assert faulty.mean_latency_ns > clean.mean_latency_ns
