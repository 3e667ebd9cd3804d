"""Tests for the formation catalogue and Table 1 cost formulas.

The paper's Table 1 numbers are asserted verbatim — these are the exact
published values, so this file is the reproduction's ground truth for the
closed-form half of the evaluation.
"""

import pytest

from repro.core.formations import (
    Formation,
    aegis_cost_for_ftc,
    aegis_hard_ftc,
    aegis_rw_cost_for_ftc,
    aegis_rw_hard_ftc,
    aegis_rw_p_cost_for_ftc,
    ecp_cost_for_ftc,
    formation,
    hamming_cost,
    pairs,
    rdis_cost,
    safer_cost,
    safer_cost_for_ftc,
    safer_group_count_for_ftc,
    safer_hard_ftc,
    slopes_needed,
    slopes_needed_rw,
    standard_formations,
)
from repro.errors import ConfigurationError

#: the paper's Table 1, verbatim (512-bit blocks, hard FTC 1..10)
PAPER_TABLE1 = {
    "ECP": [11, 21, 31, 41, 51, 61, 71, 81, 91, 101],
    "SAFER": [1, 7, 14, 22, 35, 55, 91, 159, 292, 552],
    "N": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
    "Aegis": [23, 24, 25, 26, 27, 27, 28, 34, 43, 53],
    "Aegis-rw": [23, 24, 25, 26, 27, 27, 28, 28, 28, 34],
    "Aegis-rw-p": [1, 8, 9, 15, 15, 21, 21, 27, 27, 32],
}


class TestTable1:
    def test_ecp_row(self):
        assert [ecp_cost_for_ftc(f) for f in range(1, 11)] == PAPER_TABLE1["ECP"]

    def test_safer_row(self):
        assert [safer_cost_for_ftc(f) for f in range(1, 11)] == PAPER_TABLE1["SAFER"]

    def test_safer_group_counts(self):
        assert [safer_group_count_for_ftc(f) for f in range(1, 11)] == PAPER_TABLE1["N"]

    def test_aegis_row(self):
        assert [aegis_cost_for_ftc(f) for f in range(1, 11)] == PAPER_TABLE1["Aegis"]

    def test_aegis_rw_row(self):
        assert [aegis_rw_cost_for_ftc(f) for f in range(1, 11)] == PAPER_TABLE1["Aegis-rw"]

    def test_aegis_rw_p_row(self):
        assert [aegis_rw_p_cost_for_ftc(f) for f in range(1, 11)] == PAPER_TABLE1[
            "Aegis-rw-p"
        ]

    @pytest.mark.parametrize("func", [aegis_cost_for_ftc, ecp_cost_for_ftc])
    def test_ftc_must_be_positive(self, func):
        with pytest.raises(ConfigurationError):
            func(0)


class TestSlopeCounts:
    def test_pairs(self):
        assert [pairs(f) for f in range(1, 6)] == [0, 1, 3, 6, 10]

    def test_slopes_needed(self):
        # C(f,2) + 1; the paper: hard FTC 10 needs 46 slopes
        assert slopes_needed(10) == 46

    def test_slopes_needed_rw(self):
        # floor(f/2)*ceil(f/2) + 1; the paper: Aegis-rw needs only 26 for FTC 10
        assert slopes_needed_rw(10) == 26

    def test_rw_never_needs_more(self):
        for f in range(1, 30):
            assert slopes_needed_rw(f) <= slopes_needed(f)


class TestHardFtc:
    def test_paper_hard_ftcs(self):
        # B=23 tolerates 7 (C(7,2)+1 = 22 <= 23), B=61 tolerates 11
        assert aegis_hard_ftc(23) == 7
        assert aegis_hard_ftc(31) == 8
        assert aegis_hard_ftc(61) == 11
        assert aegis_hard_ftc(71) == 12

    def test_rw_hard_ftcs(self):
        assert aegis_rw_hard_ftc(23) == 9
        assert aegis_rw_hard_ftc(29) == 10

    def test_hard_ftc_definition(self):
        for b in (23, 29, 31, 61, 71):
            f = aegis_hard_ftc(b)
            assert slopes_needed(f) <= b < slopes_needed(f + 1)

    def test_safer_hard_ftc(self):
        assert safer_hard_ftc(32) == 6  # the paper's 512-bit example
        assert safer_hard_ftc(1) == 1

    def test_safer_hard_ftc_rejects_non_power(self):
        with pytest.raises(ConfigurationError):
            safer_hard_ftc(48)


class TestOtherCosts:
    def test_ecp_256(self):
        # the paper: ECP6 needs 55 bits for 256-bit blocks
        assert ecp_cost_for_ftc(6, 256) == 55

    def test_safer_cost_rejects_too_many_groups(self):
        with pytest.raises(ConfigurationError):
            safer_cost(1024, 512)

    def test_rdis_paper_overheads(self):
        # the paper: RDIS-3 is 25% of 256 bits and 19% of 512 bits
        assert rdis_cost(256) == 65
        assert rdis_cost(512) == 97
        assert rdis_cost(256) / 256 == pytest.approx(0.25, abs=0.005)
        assert rdis_cost(512) / 512 == pytest.approx(0.19, abs=0.005)

    def test_rdis_rejects_depth_one(self):
        with pytest.raises(ConfigurationError):
            rdis_cost(512, depth=1)

    def test_hamming_is_12_5_percent(self):
        assert hamming_cost(512) == 64
        assert hamming_cost(512) / 512 == 0.125

    def test_hamming_rejects_odd_sizes(self):
        with pytest.raises(ConfigurationError):
            hamming_cost(100)


class TestFormation:
    def test_aegis_overhead_paper_values(self):
        # figure annotations: 9x61 = 67 bits, 23x23 = 28, 17x31 = 36, 12x23 = 28
        assert formation(9, 61, 512).aegis_overhead_bits == 67
        assert formation(23, 23, 512).aegis_overhead_bits == 28
        assert formation(17, 31, 512).aegis_overhead_bits == 36
        assert formation(12, 23, 256).aegis_overhead_bits == 28

    def test_overhead_fractions_match_paper_quotes(self):
        # §3.2: Aegis 23x23 = 5.5%, 17x31 = 7%, 9x61 = 13% of 512 bits
        assert formation(23, 23, 512).aegis_overhead_bits / 512 == pytest.approx(
            0.055, abs=0.002
        )
        assert formation(17, 31, 512).aegis_overhead_bits / 512 == pytest.approx(
            0.07, abs=0.002
        )
        assert formation(9, 61, 512).aegis_overhead_bits / 512 == pytest.approx(
            0.13, abs=0.002
        )

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigurationError):
            formation(10, 61, 512)

    def test_standard_formations(self):
        names_512 = [f.name for f in standard_formations(512)]
        assert names_512 == ["23x23", "17x31", "9x61", "8x71"]
        names_256 = [f.name for f in standard_formations(256)]
        assert names_256 == ["16x17", "12x23", "9x31"]

    def test_standard_formations_unknown_size(self):
        with pytest.raises(ConfigurationError):
            standard_formations(128)

    def test_hard_ftc_properties(self, form_9x61):
        assert isinstance(form_9x61, Formation)
        assert form_9x61.hard_ftc == 11

    def test_rw_p_overhead(self):
        form = formation(9, 61, 512)
        # slope counter (6) + p pointers x 6 + 2 flags
        assert form.aegis_rw_p_overhead_bits(9) == 6 * 10 + 2
        with pytest.raises(ConfigurationError):
            form.aegis_rw_p_overhead_bits(0)
