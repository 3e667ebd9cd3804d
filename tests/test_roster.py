"""Tests for scheme specifications and the figure rosters."""

import numpy as np
import pytest

from repro.pcm.cell import CellArray
from repro.sim.rng import BitSource
from repro.sim.roster import (
    RW_P_CHOICES,
    aegis_dynamic_spec,
    aegis_rw_p_spec,
    aegis_rw_spec,
    aegis_spec,
    ecp_spec,
    figure5_roster,
    figure8_roster,
    figure9_roster,
    hamming_spec,
    no_protection_spec,
    rdis_spec,
    safer_cache_spec,
    safer_spec,
    variants_roster,
)


class TestSpecConsistency:
    @pytest.mark.parametrize(
        "spec",
        [
            aegis_spec(9, 61, 512),
            aegis_rw_spec(17, 31, 512),
            aegis_rw_p_spec(23, 23, 4, 512),
            ecp_spec(6, 512),
            safer_spec(64, 512),
            safer_spec(64, 512, policy="exhaustive"),
            safer_cache_spec(32, 512),
            safer_cache_spec(128, 512),
            rdis_spec(512),
            hamming_spec(512),
            aegis_dynamic_spec(23, 23, 512),
        ],
        ids=lambda s: s.key,
    )
    def test_controller_overhead_matches_spec(self, spec):
        """The spec's advertised overhead must equal the controller's."""
        controller = spec.make_controller(CellArray(spec.n_bits))
        assert controller.overhead_bits == spec.overhead_bits

    def test_checker_factories_independent(self):
        spec = aegis_spec(9, 61, 512)
        c1 = spec.make_checker(BitSource(np.random.default_rng(0)))
        c2 = spec.make_checker(BitSource(np.random.default_rng(0)))
        c1.add_fault(0, 0)
        assert c2.fault_offsets == []

    def test_overhead_fraction(self):
        assert ecp_spec(6, 512).overhead_fraction == pytest.approx(61 / 512)

    def test_no_protection(self):
        spec = no_protection_spec(512)
        assert spec.overhead_bits == 0
        assert not spec.inversion_wear

    def test_inversion_wear_flags(self):
        # cache-less partition schemes amplify wear; others do not
        assert aegis_spec(9, 61, 512).inversion_wear
        assert safer_spec(32, 512).inversion_wear
        assert not aegis_rw_spec(9, 61, 512).inversion_wear
        assert not aegis_rw_p_spec(9, 61, 9, 512).inversion_wear
        assert not ecp_spec(6, 512).inversion_wear
        assert not safer_cache_spec(32, 512).inversion_wear
        assert not rdis_spec(512).inversion_wear


class TestRosters:
    def test_figure5_512_contents(self):
        labels = [s.label for s in figure5_roster(512)]
        for expected in ("ECP6", "SAFER64", "SAFER128", "RDIS-3",
                         "Aegis 23x23", "Aegis 17x31", "Aegis 9x61"):
            assert expected in labels

    def test_figure5_256_contents(self):
        labels = [s.label for s in figure5_roster(256)]
        assert "Aegis 12x23" in labels
        assert "SAFER128" not in labels  # 512-bit only in the paper

    def test_figure5_unknown_size(self):
        with pytest.raises(ValueError):
            figure5_roster(1024)

    def test_figure8_contains_cache_variants(self):
        labels = [s.label for s in figure8_roster()]
        assert "SAFER64-cache" in labels
        assert "SAFER128-cache" in labels

    def test_figure9_has_baseline(self):
        labels = [s.label for s in figure9_roster()]
        assert "None" in labels

    def test_variants_roster_structure(self):
        specs = variants_roster()
        assert len(specs) == 3 * len(RW_P_CHOICES)
        labels = [s.label for s in specs]
        assert "Aegis-rw-p 9x61 (p=9)" in labels

    def test_unique_keys(self):
        for roster in (figure5_roster(512), figure8_roster(), figure9_roster(),
                       variants_roster()):
            keys = [s.key for s in roster]
            assert len(keys) == len(set(keys))
