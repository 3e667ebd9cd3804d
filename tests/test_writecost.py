"""Tests for the write-cost analysis."""

import pytest

from repro.analysis.writecost import write_cost_study
from repro.core.aegis import AegisScheme
from repro.core.aegis_rw import AegisRwScheme
from repro.core.formations import formation
from repro.errors import UncorrectableError
from repro.schemes.ecp import EcpScheme

FORM = formation(9, 61, 512)


class TestWriteCostStudy:
    def test_faultless_block_costs_one_pass(self):
        summary = write_cost_study(
            "aegis", lambda c: AegisScheme(c, FORM),
            fault_count=0, writes=10, trials=2,
        )
        assert summary.verification_reads == 1.0
        assert summary.inversion_writes == 0.0
        # differential writes program about half the block
        assert 200 < summary.cell_writes < 320

    def test_basic_aegis_pays_inversions_with_faults(self):
        summary = write_cost_study(
            "aegis", lambda c: AegisScheme(c, FORM),
            fault_count=6, writes=20, trials=4,
        )
        assert summary.inversion_writes > 0
        assert summary.verification_reads > 1.0

    def test_rw_variant_stays_single_pass(self):
        summary = write_cost_study(
            "aegis-rw", lambda c: AegisRwScheme(c, FORM),
            fault_count=6, writes=20, trials=4,
        )
        assert summary.verification_reads == 1.0
        assert summary.inversion_writes == 0.0

    def test_rw_cheaper_than_basic_at_same_faults(self):
        basic = write_cost_study(
            "aegis", lambda c: AegisScheme(c, FORM),
            fault_count=8, writes=20, trials=4,
        )
        rw = write_cost_study(
            "aegis-rw", lambda c: AegisRwScheme(c, FORM),
            fault_count=8, writes=20, trials=4,
        )
        assert rw.cell_writes < basic.cell_writes

    def test_unserviceable_fault_count_raises(self):
        with pytest.raises(UncorrectableError):
            write_cost_study(
                "ecp1", lambda c: EcpScheme(c, 1),
                fault_count=10, writes=5, trials=3,
            )
