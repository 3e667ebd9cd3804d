"""Tests for the SAFER baseline (both policies) and SAFER-cache."""

import hashlib
from dataclasses import astuple
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import roundtrip
from repro.schemes.safer import (
    SaferCacheScheme,
    SaferScheme,
    check_group_count,
    group_ids,
    grow_vector,
    separates,
    vector_value,
)
from repro.sim import roster
from repro.sim.checkers import SaferCacheChecker, SaferIncrementalChecker
from tests.conftest import random_data


def make_scheme(group_count=32, n_bits=512, faults=(), **kwargs):
    cells = CellArray(n_bits)
    for offset, stuck in faults:
        cells.inject_fault(offset, stuck_value=stuck)
    return SaferScheme(cells, group_count, **kwargs), cells


class TestVectorMath:
    def test_vector_value_packs_lsb_first(self):
        assert vector_value(0b101101, (0, 2, 5)) == 0b111
        assert vector_value(0b101101, (1, 4)) == 0b00

    @pytest.mark.parametrize("n_bits", [64, 512])
    def test_group_ids_matches_scalar_rule(self, n_bits):
        addr_bits = n_bits.bit_length() - 1
        for size in range(4):
            for positions in permutations(range(addr_bits), size):
                expected = [vector_value(o, positions) for o in range(n_bits)]
                assert group_ids(n_bits, positions).tolist() == expected

    def test_group_ids_empty_vector_is_one_group(self):
        ids = group_ids(512, ())
        assert ids.dtype == np.int64
        assert ids.shape == (512,)
        assert not ids.any()

    def test_group_ids_is_one_shared_read_only_array_per_vector(self):
        ids = group_ids(512, (1, 3))
        assert ids is group_ids(512, (1, 3))
        assert not ids.flags.writeable
        assert ids.tolist() == [vector_value(o, (1, 3)) for o in range(512)]
        assert group_ids(256, (1, 3)).shape == (256,)

    def test_checker_groups_come_from_group_ids(self):
        checker = SaferIncrementalChecker(512, 32)
        for offset in (0, 1, 2):
            assert checker.add_fault(offset, 0)
        assert checker.positions
        ids = group_ids(512, checker.positions)
        members = checker.group_members(5)
        assert members.tolist() == np.flatnonzero(ids == ids[5]).tolist()

    def test_separates(self):
        assert separates((0,), [0b0, 0b1])
        assert not separates((1,), [0b0, 0b1])
        assert separates((), [7])
        assert not separates((), [1, 2])


class TestGrowVector:
    def test_grows_until_no_two_faults_share_a_group(self):
        # offsets 0,1,2,3 under vector (1,): values 0,0,1,1 -> the pair
        # (0, 1) differs only at bit 0, which separates both pairs
        assert grow_vector((1,), [0, 1, 2, 3], 5) == (1, 0)
        assert grow_vector((1,), [0, 2], 5) == (1,)

    def test_full_vector_with_a_collision_left_is_none(self):
        assert grow_vector((1,), [0, 1, 2, 3], 1) is None
        assert grow_vector((), [0, 1], 0) is None

    def test_prefers_the_bit_leaving_fewest_collisions(self):
        # pair (0, 3) differs at bits 0 and 1; over {0, 3, 1, 7} bit 0
        # leaves three colliding pairs and bit 1 two, so bit 1 goes first
        assert grow_vector((), [0, 3, 1, 7], 5) == (1, 0, 2)

    def test_ties_go_to_the_lowest_bit(self):
        # bits 0 and 1 both separate the lone pair (0, 3)
        assert grow_vector((), [0, 3], 5) == (0,)
        assert grow_vector((), [0, 3, 2], 5) == (0, 1)

    @given(st.data())
    def test_one_new_fault_appends_its_pair_lowest_differing_bit(self, data):
        """The batch kernel's premise: with the stored faults separated, a
        new fault collides with at most one of them, and one step appends
        the pair's lowest differing bit (or the full vector dies)."""
        max_positions = data.draw(st.integers(1, 9))
        order = data.draw(st.permutations(range(9)))
        positions = tuple(order[: data.draw(st.integers(0, max_positions))])
        drawn = data.draw(st.lists(st.integers(0, 511), min_size=1, max_size=40, unique=True))
        *candidates, new = drawn
        holders: dict[int, int] = {}
        for offset in candidates:
            holders.setdefault(vector_value(offset, positions), offset)
        stored = list(holders.values())
        partner = holders.get(vector_value(new, positions))
        grown = grow_vector(positions, [*stored, new], max_positions)
        if partner is None:
            assert grown == positions
        elif len(positions) == max_positions:
            assert grown is None
        else:
            differing = partner ^ new
            assert grown == (*positions, (differing & -differing).bit_length() - 1)


class TestCheckGroupCount:
    def test_accepts_powers_of_two_up_to_block_bits(self):
        for group_count in (2, 4, 32, 256, 512):
            check_group_count(group_count, 512)
        check_group_count(64, 64)

    @pytest.mark.parametrize("group_count", [0, 1, 3, 48])
    def test_rejects_non_power_of_two(self, group_count):
        with pytest.raises(ConfigurationError) as info:
            check_group_count(group_count, 512)
        assert str(info.value) == (
            f"SAFER group count must be a power of two >= 2, got {group_count}"
        )

    def test_rejects_more_groups_than_bits(self):
        with pytest.raises(ConfigurationError) as info:
            check_group_count(1024, 512)
        assert str(info.value) == "SAFER cannot use more groups than block bits"

    @pytest.mark.parametrize("group_count", [48, 1024])
    def test_every_safer_model_raises_the_same_error(self, group_count):
        builders = [
            lambda: SaferScheme(CellArray(512), group_count),
            lambda: SaferCacheScheme(CellArray(512), group_count),
            lambda: SaferCacheChecker(512, group_count, np.random.default_rng(0)),
        ]
        with pytest.raises(ConfigurationError) as expected:
            check_group_count(group_count, 512)
        for build in builders:
            with pytest.raises(ConfigurationError) as info:
                build()
            assert str(info.value) == str(expected.value)


class TestSaferScheme:
    def test_identity(self):
        scheme, _ = make_scheme(32)
        assert scheme.name == "SAFER32"
        assert scheme.overhead_bits == 55  # Table 1
        assert scheme.hard_ftc == 6

    def test_group_count_validation(self):
        with pytest.raises(ConfigurationError):
            make_scheme(group_count=48)
        with pytest.raises(ConfigurationError):
            make_scheme(group_count=1024)
        with pytest.raises(ConfigurationError):
            make_scheme(policy="bogus")

    def test_spec_and_controller_reject_the_same_policy(self):
        builders = [
            lambda: SaferScheme(CellArray(512), 64, policy="exhaustve"),
            lambda: roster.safer_spec(64, 512, policy="exhaustve"),
        ]
        for build in builders:
            with pytest.raises(ConfigurationError) as info:
                build()
            assert str(info.value) == "unknown SAFER policy 'exhaustve'"

    @pytest.mark.parametrize("policy", ["incremental", "exhaustive"])
    def test_hard_ftc_recoverable(self, rng, policy):
        # any m+1 = 6 faults must be tolerated by SAFER32 under either policy
        for _ in range(5):
            offsets = rng.choice(512, size=6, replace=False)
            faults = [(int(o), int(rng.integers(0, 2))) for o in offsets]
            scheme, _ = make_scheme(32, faults=faults, policy=policy)
            for _ in range(5):
                assert roundtrip(scheme, random_data(rng, 512))

    def test_collision_extends_vector(self):
        # offsets 0 and 1 differ only at address bit 0
        scheme, _ = make_scheme(32, faults=[(0, 1), (1, 1)], policy="incremental")
        data = np.zeros(512, dtype=np.uint8)
        scheme.write(data)
        assert np.array_equal(scheme.read(), data)
        assert 0 in scheme.positions  # bit 0 is the only distinguishing position

    def test_incremental_vector_only_grows(self, rng):
        scheme, cells = make_scheme(32, policy="incremental")
        seen = [scheme.positions]
        for offset in rng.choice(512, size=6, replace=False):
            cells.inject_fault(int(offset), stuck_value=int(rng.integers(0, 2)))
            scheme.write(random_data(rng, 512))
            assert set(seen[-1]) <= set(scheme.positions)
            seen.append(scheme.positions)

    def test_exhaustive_outlives_incremental(self, rng):
        """The generous policy must never die before the faithful one on
        the same fault sequence."""
        for trial in range(5):
            stream = np.random.default_rng(trial)
            offsets = [int(o) for o in stream.choice(512, size=30, replace=False)]
            deaths = {}
            for policy in ("incremental", "exhaustive"):
                scheme, cells = make_scheme(32, policy=policy)
                for count, offset in enumerate(offsets, start=1):
                    cells.inject_fault(offset, stuck_value=int(stream.integers(0, 2)))
                    try:
                        scheme.write(random_data(stream, 512))
                    except UncorrectableError:
                        deaths[policy] = count
                        break
                else:
                    deaths[policy] = len(offsets) + 1
            assert deaths["exhaustive"] >= deaths["incremental"]


class TestGrowVectorWithWrong:
    def test_same_type_faults_keep_vector(self):
        # all faults the same type: the empty vector already works
        assert grow_vector((), [3, 5, 9], 5, [True, True, True]) == ()
        assert grow_vector((), [3, 5], 5, [False, False]) == ()

    def test_mixing_pair_grows_once(self):
        # offsets 0 (W) and 1 (R) differ only at position 0
        assert grow_vector((), [0, 1], 5, [True, False]) == (0,)

    def test_grow_only(self):
        grown = grow_vector((3,), [0, 1], 5, [True, False])
        assert grown is not None
        assert grown[0] == 3  # existing positions preserved

    def test_exhaustion_returns_none(self):
        # W at 0 and R at 1 with a max of 0 positions: unrecoverable
        assert grow_vector((), [0, 1], 0, [True, False]) is None

    def test_pair_is_first_r_with_last_w_of_its_group(self):
        # R fault 2 shares group () with W faults 0 and 6; the pair (6, 2)
        # differs only at bit 2, then (0, 2) only at bit 1.  Pairing with
        # the first W fault would grow (1, 2) instead
        assert grow_vector((), [0, 6, 2], 5, [True, True, False]) == (2, 1)

    def test_result_has_no_mixing(self, rng):
        for _ in range(20):
            offsets = [int(o) for o in rng.choice(512, size=10, replace=False)]
            wrong = rng.integers(0, 2, size=10).astype(bool).tolist()
            grown = grow_vector((), offsets, 6, wrong)
            if grown is None:
                continue
            w_groups = {vector_value(o, grown) for o, w in zip(offsets, wrong) if w}
            r_groups = {vector_value(o, grown) for o, w in zip(offsets, wrong) if not w}
            assert not (w_groups & r_groups)


class TestSaferCache:
    def test_identity(self):
        cells = CellArray(512)
        scheme = SaferCacheScheme(cells, 32)
        assert scheme.name == "SAFER32-cache"
        assert scheme.overhead_bits == 55

    def test_same_type_faults_share_group(self):
        # two W faults at offsets differing in every selected position
        # would collide for plain SAFER with an empty vector; the cache
        # variant tolerates them in one group
        cells = CellArray(512)
        cells.inject_fault(0, stuck_value=1)
        cells.inject_fault(1, stuck_value=1)
        scheme = SaferCacheScheme(cells, 32)
        data = np.zeros(512, dtype=np.uint8)
        receipt = scheme.write(data)
        assert np.array_equal(scheme.read(), data)
        assert receipt.verification_reads == 1

    def test_many_faults_with_cache(self, rng):
        cells = CellArray(512)
        for offset in rng.choice(512, size=10, replace=False):
            cells.inject_fault(int(offset), stuck_value=int(rng.integers(0, 2)))
        scheme = SaferCacheScheme(cells, 64)
        successes = sum(
            roundtrip(scheme, random_data(rng, 512)) for _ in range(20)
        )
        assert successes == 20


#: each bit-accurate SAFER controller, walked over seeded fault and data
#: feeds until its first uncorrectable write: the sha256 prefix of every
#: write's receipt, partition vector and inversion flags plus the error at
#: death.  No figure golden covers these controllers (the studies run the
#: checkers), so a change to the partition rule must not move these
CONTROLLERS = {
    "safer64-incremental": lambda cells: SaferScheme(cells, 64, policy="incremental"),
    "safer64-exhaustive": lambda cells: SaferScheme(cells, 64, policy="exhaustive"),
    "safer32-cache": lambda cells: SaferCacheScheme(cells, 32),
    "safer64-cache": lambda cells: SaferCacheScheme(cells, 64),
}
CONTROLLER_DIGESTS = {
    "safer64-incremental": "ded09e629a983768",
    "safer64-exhaustive": "cad1fda29b781681",
    "safer32-cache": "677bc32a1c2e712d",
    "safer64-cache": "bb6b91bf35a93888",
}


def controller_digest(make, seeds=range(20), writes_per_fault=2):
    digest = hashlib.sha256()
    for seed in seeds:
        stream = np.random.default_rng(seed)
        cells = CellArray(512)
        scheme = make(cells)
        for offset in stream.permutation(512):
            cells.inject_fault(int(offset), stuck_value=int(stream.integers(0, 2)))
            try:
                for _ in range(writes_per_fault):
                    receipt = scheme.write(random_data(stream, 512))
                    digest.update(repr((astuple(receipt), scheme.positions)).encode())
                    digest.update(scheme.inversion.tobytes())
            except UncorrectableError as exc:
                digest.update(repr((str(exc), exc.fault_offsets)).encode())
                break
    return digest.hexdigest()[:16]


class TestControllerDigests:
    @pytest.mark.parametrize("key", sorted(CONTROLLERS))
    def test_walk_matches_recorded_digest(self, key):
        assert controller_digest(CONTROLLERS[key]) == CONTROLLER_DIGESTS[key]
