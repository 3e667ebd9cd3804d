"""Cross-validation of the fast Monte Carlo checkers against the
bit-accurate controllers.

The whole evaluation rests on the checkers answering the same question the
controllers answer ("can this block still store arbitrary data?"), so for
each scheme family we drive the same fault arrival sequence into both and
compare verdicts:

* **static** checkers (Aegis, SAFER, ECP) must agree with the controller's
  worst case exactly: when the checker says dead, some data pattern must
  fail the controller, and when it says alive, every pattern must succeed
  (verified by sampling patterns and, where feasible, constructing the
  adversarial pattern).
* **sampled** checkers (Aegis-rw, RDIS, SAFER-cache) share the controller's
  data-dependence; we verify agreement pattern-by-pattern on the *same*
  fault sets.
"""

import hashlib

import numpy as np
import pytest

from repro.core.aegis import AegisScheme
from repro.core.aegis_rw import AegisRwScheme
from repro.core.collision import collision_rom_for
from repro.core.formations import formation, rdis_dimensions
from repro.core.geometry import rectangle_for
from repro.core.partition import partition_for
from repro.errors import ConfigurationError, UncorrectableError
from repro.pairing.sim import pairing_study
from repro.pcm.cell import CellArray
from repro.remap.sim import remap_page_study
from repro.schemes.rdis import rdis_mask
from repro.schemes.safer import SaferScheme, grow_vector, vector_value
from repro.sim import checkers, roster
from repro.sim.block_sim import block_lifetime_study
from repro.sim.checkers import (
    AegisChecker,
    AegisDynamicChecker,
    AegisRwChecker,
    AegisRwPChecker,
    EcpChecker,
    HammingChecker,
    NoProtectionChecker,
    RdisChecker,
    SaferCacheChecker,
    SaferChecker,
    SaferIncrementalChecker,
    _any_rdis_failure,
    _poisoned_slopes,
)
from repro.sim.page_sim import run_page_study
from repro.sim.rng import BitSource
from tests.conftest import random_data


class RecordingSource(BitSource):
    """A bit source that keeps every pattern draw it hands out."""

    def __init__(self, rng):
        super().__init__(rng)
        self.drawn = []

    def patterns(self, samples, n):
        data = super().patterns(samples, n)
        self.drawn.append(data.copy())
        return data


def feed_faults(checker, faults):
    """Feed (offset, stuck) pairs; return the index of death or None."""
    for i, (offset, stuck) in enumerate(faults):
        if not checker.add_fault(offset, stuck):
            return i
    return None


class TestAegisChecker:
    def test_alive_means_separable(self, rng):
        rect = rectangle_for(512, 31)
        for _ in range(20):
            checker = AegisChecker(rect)
            offsets = [int(o) for o in rng.choice(512, size=20, replace=False)]
            for offset in offsets:
                alive = checker.add_fault(offset, 0)
                separable = any(
                    len(
                        {rect.group_of(o, k) for o in checker.fault_offsets}
                    ) == len(checker.fault_offsets)
                    for k in range(rect.b_size)
                )
                assert alive == separable
                if not alive:
                    break

    def test_agrees_with_controller_worst_case(self, rng):
        """When the static checker declares death, the all-wrong data
        pattern must fail the real controller."""
        form = formation(23, 23, 512)
        for trial in range(10):
            stream = np.random.default_rng(trial)
            checker = AegisChecker(form.rect)
            cells = CellArray(512)
            stuck_values = {}
            death = None
            for offset in stream.permutation(512):
                offset = int(offset)
                stuck = int(stream.integers(0, 2))
                stuck_values[offset] = stuck
                cells.inject_fault(offset, stuck_value=stuck)
                if not checker.add_fault(offset, stuck):
                    death = offset
                    break
            assert death is not None
            controller = AegisScheme(cells, form)
            # adversarial data: every fault stuck at the wrong value
            data = np.zeros(512, dtype=np.uint8)
            for offset, stuck in stuck_values.items():
                data[offset] = 1 - stuck
            with pytest.raises(UncorrectableError):
                controller.write(data)

    def test_alive_controller_succeeds(self, rng):
        """While the checker says alive, the controller services any data."""
        form = formation(9, 61, 512)
        checker = AegisChecker(form.rect)
        cells = CellArray(512)
        scheme = AegisScheme(cells, form)
        for offset in rng.choice(512, size=14, replace=False):
            offset = int(offset)
            stuck = int(rng.integers(0, 2))
            cells.inject_fault(offset, stuck_value=stuck)
            if not checker.add_fault(offset, stuck):
                break
            for _ in range(3):
                payload = random_data(rng, 512)
                scheme.write(payload)
                assert np.array_equal(scheme.read(), payload)

    def test_group_members_under_current_slope(self, rng):
        rect = rectangle_for(512, 61)
        checker = AegisChecker(rect)
        checker.add_fault(100, 0)
        members = checker.group_members(100)
        slope = checker.current_slope()
        group = rect.group_of(100, slope)
        assert set(int(m) for m in members) == set(rect.group_members(group, slope))


class TestSaferCheckers:
    def test_exhaustive_checker_matches_controller(self):
        """The exhaustive checker dies exactly when no vector separates."""
        for trial in range(10):
            stream = np.random.default_rng(100 + trial)
            checker = SaferChecker(512, 32)
            cells = CellArray(512)
            controller = SaferScheme(cells, 32, policy="exhaustive")
            stuck_values = {}
            for offset in stream.permutation(512):
                offset = int(offset)
                stuck = int(stream.integers(0, 2))
                stuck_values[offset] = stuck
                cells.inject_fault(offset, stuck_value=stuck)
                alive = checker.add_fault(offset, stuck)
                if not alive:
                    # adversarial data: every fault mismatches on the first
                    # verification read, given the controller's current
                    # inversion state
                    mask = controller._inversion_mask()
                    data = np.zeros(512, dtype=np.uint8)
                    for o, s in stuck_values.items():
                        data[o] = (1 - s) ^ int(mask[o])
                    with pytest.raises(UncorrectableError):
                        controller.write(data)
                    break
                payload = stream.integers(0, 2, 512, dtype=np.uint8)
                controller.write(payload)
                assert np.array_equal(controller.read(), payload)

    def test_incremental_never_outlives_exhaustive(self):
        for trial in range(10):
            stream = np.random.default_rng(200 + trial)
            faults = [
                (int(o), int(stream.integers(0, 2)))
                for o in stream.permutation(512)[:40]
            ]
            d_inc = feed_faults(SaferIncrementalChecker(512, 32), faults)
            d_exh = feed_faults(SaferChecker(512, 32), faults)
            assert d_exh is None or d_inc is not None
            if d_inc is not None and d_exh is not None:
                assert d_inc <= d_exh

    def test_incremental_checker_conservative_vs_controller(self):
        """The static incremental checker treats any same-group fault pair
        as a collision; the live controller can do better when both faults
        happen to be the same type for the written data (inverting the
        group fixes both).  So the checker must never declare death *after*
        the controller dies on the same fault order."""
        for trial in range(5):
            stream = np.random.default_rng(300 + trial)
            faults = [
                (int(o), 1) for o in stream.permutation(512)[:30]
            ]  # all stuck at 1
            checker = SaferIncrementalChecker(512, 32)
            checker_death = feed_faults(checker, faults)
            cells = CellArray(512)
            controller = SaferScheme(cells, 32, policy="incremental")
            controller_death = None
            zeros = np.zeros(512, dtype=np.uint8)  # every fault is W
            for i, (offset, stuck) in enumerate(faults):
                cells.inject_fault(offset, stuck_value=stuck)
                try:
                    controller.write(zeros)
                except UncorrectableError:
                    controller_death = i
                    break
            assert checker_death is not None
            assert controller_death is None or controller_death >= checker_death


class TestSampledCheckers:
    def test_aegis_rw_checker_agrees_with_rom_condition(self, rng):
        """For a fixed fault set and pattern, the checker's per-pattern
        predicate must equal 'some slope has no W/R mixing'."""
        rect = rectangle_for(512, 23)
        offsets = [int(o) for o in rng.choice(512, size=18, replace=False)]
        with BitSource(rng) as bits:
            checker = AegisRwChecker(rect, bits, samples=4)
            for offset in offsets:
                checker.add_fault(offset, 0)
        rom = collision_rom_for(rect)
        offs = np.asarray(checker.fault_offsets)
        for _ in range(30):
            wrong = rng.integers(0, 2, size=(1, offs.size), dtype=np.uint8).astype(bool)
            poisoned = _poisoned_slopes(rom, checker.fault_offsets, wrong)
            fails = int(np.bitwise_count(poisoned).sum()) == rect.b_size
            w = [int(o) for o, flag in zip(offs, wrong[0]) if flag]
            r = [int(o) for o, flag in zip(offs, wrong[0]) if not flag]
            assert fails == (rom.find_rw_slope(w, r) is None)

    def test_aegis_rw_controller_agrees_per_pattern(self, rng):
        """Pattern-level agreement with the real Aegis-rw controller."""
        form = formation(23, 23, 512)
        offsets = [int(o) for o in rng.choice(512, size=16, replace=False)]
        stuck = {o: int(rng.integers(0, 2)) for o in offsets}
        rom = collision_rom_for(form.rect)
        for _ in range(20):
            data = random_data(rng, 512)
            wrong = [o for o in offsets if stuck[o] != data[o]]
            right = [o for o in offsets if stuck[o] == data[o]]
            predicted_ok = rom.find_rw_slope(wrong, right) is not None
            cells = CellArray(512)
            for o in offsets:
                cells.inject_fault(o, stuck_value=stuck[o])
            controller = AegisRwScheme(cells, form)
            if predicted_ok:
                controller.write(data)
                assert np.array_equal(controller.read(), data)
            else:
                with pytest.raises(UncorrectableError):
                    controller.write(data)

    def test_rdis_vectorised_matches_scalar(self, rng):
        """The bitmask-vectorised RDIS predicate equals the reference
        rdis_mask construction for every sampled pattern."""
        rows = cols = 8
        for _ in range(30):
            n_faults = int(rng.integers(2, 10))
            offsets = rng.choice(64, size=n_faults, replace=False)
            stuck = rng.integers(0, 2, size=n_faults).astype(np.uint8)
            frows = offsets // cols
            fcols = offsets % cols
            data_bits = rng.integers(0, 2, size=(5, n_faults), dtype=np.uint8)
            fails_vec = _any_rdis_failure(frows, fcols, stuck, data_bits, 2)
            fails_ref = False
            for pattern in data_bits:
                data = np.zeros(64, dtype=np.uint8)
                data[offsets] = pattern
                if rdis_mask(dict(zip(map(int, offsets), map(int, stuck))), data, rows, cols, 2) is None:
                    fails_ref = True
            assert fails_vec == fails_ref


class TestSaferCacheChecker:
    def test_never_dies_before_plain_safer(self):
        """The cache only relaxes the collision criterion, so on the same
        fault order the cache checker must survive at least as long as the
        plain incremental checker."""
        for trial in range(8):
            stream = np.random.default_rng(500 + trial)
            faults = [
                (int(o), int(stream.integers(0, 2)))
                for o in stream.permutation(512)[:60]
            ]
            d_plain = feed_faults(SaferIncrementalChecker(512, 32), faults)
            d_cache = feed_faults(
                SaferCacheChecker(512, 32, BitSource(np.random.default_rng(trial)), samples=32),
                faults,
            )
            assert d_plain is not None
            assert d_cache is None or d_cache >= d_plain

    def test_vector_grows_only(self, rng):
        offsets = rng.permutation(512)[:20].tolist()
        bits = BitSource(rng)
        checker = SaferCacheChecker(512, 32, bits, samples=16)
        previous = checker.positions
        for offset in offsets:
            if not checker.add_fault(offset, bits.bit()):
                break
            assert set(previous) <= set(checker.positions)
            previous = checker.positions

    def test_agrees_with_controller_per_pattern(self, rng):
        """Feed the same faults; when the checker dies, the controller with
        the same grown vector must fail on some sampled data pattern."""
        for trial in range(5):
            stream = np.random.default_rng(600 + trial)
            checker = SaferCacheChecker(
                512, 32, BitSource(np.random.default_rng(trial)), samples=64
            )
            stuck_values = {}
            for offset in stream.permutation(512):
                offset = int(offset)
                stuck = int(stream.integers(0, 2))
                stuck_values[offset] = stuck
                if not checker.add_fault(offset, stuck):
                    break
            # reproduce the kill: with the checker's final vector state,
            # some W/R split of these faults cannot be un-mixed
            offsets = checker.fault_offsets
            found_kill = False
            kill_rng = np.random.default_rng(trial + 1000)
            for _ in range(512):
                wrong = kill_rng.integers(0, 2, size=len(offsets)).astype(bool)
                if grow_vector(checker.positions, offsets, 5, wrong) is None:
                    found_kill = True
                    break
            assert found_kill


class TestSimpleCheckers:
    def test_ecp_death_at_budget_plus_one(self):
        checker = EcpChecker(pointers=3)
        faults = [(i, 0) for i in range(10)]
        assert feed_faults(checker, faults) == 3  # 4th fault (index 3) kills

    def test_hamming_death_on_word_collision(self):
        checker = HammingChecker(512)
        assert checker.add_fault(0, 0)     # word 0
        assert checker.add_fault(70, 1)    # word 1
        assert not checker.add_fault(63, 0)  # word 0 again -> dead

    def test_no_protection_dies_immediately(self):
        checker = NoProtectionChecker()
        assert not checker.add_fault(0, 1)

    def test_dead_checkers_stay_dead(self):
        for checker in (
            EcpChecker(1),
            NoProtectionChecker(),
            SaferIncrementalChecker(512, 2),
        ):
            faults = [(i, 0) for i in range(20)]
            death = feed_faults(checker, faults)
            assert death is not None
            assert not checker.add_fault(death + 100, 0)


class TestDynamicAblation:
    def test_dynamic_never_dies_before_static(self):
        rect = rectangle_for(512, 23)
        for trial in range(5):
            stream = np.random.default_rng(400 + trial)
            faults = [
                (int(o), int(stream.integers(0, 2)))
                for o in stream.permutation(512)[:40]
            ]
            d_static = feed_faults(AegisChecker(rect), faults)
            d_dynamic = feed_faults(
                AegisDynamicChecker(rect, BitSource(np.random.default_rng(trial)), samples=16),
                faults,
            )
            assert d_static is not None
            if d_dynamic is not None:
                assert d_dynamic >= d_static


# ---------------------------------------------------------------------------
# Whole-sample verdicts against per-pattern oracles
# ---------------------------------------------------------------------------

#: the Aegis-rw(-p) rectangles and pointer budgets of Figs. 11-13; 8x71
#: has more slopes than one uint64 word holds
RW_RECTANGLES = roster.RW_P_CHOICES
_RECT_IDS = [f"{a}x{b}" for a, b, _ in RW_RECTANGLES]


def fault_feed(seed: int, n_bits: int = 512) -> list[tuple[int, int]]:
    stream = np.random.default_rng(seed)
    offsets = stream.permutation(n_bits).tolist()
    return list(zip(offsets, stream.integers(0, 2, size=n_bits).tolist()))


def replay_draws(checker, faults):
    """Feed ``faults`` to a sampled checker on a :class:`RecordingSource`
    until it dies.  For every arrival that drew patterns, yield ``(alive,
    offsets, wrong)``: the verdict, the fault offsets so far, and the
    arrival's one ``(samples, f)`` draw of W-masks."""
    for offset, stuck in faults:
        draws = len(checker.bits.drawn)
        alive = checker.add_fault(offset, stuck)
        if len(checker.bits.drawn) > draws:
            assert len(checker.bits.drawn) == draws + 1
            wrong = checker.bits.drawn[-1].astype(bool)
            assert wrong.shape == (checker.samples, len(checker.fault_offsets))
            yield alive, list(checker.fault_offsets), wrong
        if not alive:
            return
    raise AssertionError("the block outlived every fault")


def split(offsets, wrong_row):
    wrong = [o for o, w in zip(offsets, wrong_row) if w]
    right = [o for o, w in zip(offsets, wrong_row) if not w]
    return wrong, right


def reference_rw_p_recoverable(rect, pointers, offsets, wrong) -> bool:
    """Aegis-rw-p predicate for one W-mask, decided slope by slope: some
    unpoisoned slope where the W groups or the R groups fit ``pointers``."""
    offs = np.asarray(offsets, dtype=np.int64)
    matrix = collision_rom_for(rect)._table[np.ix_(offs, offs)]
    groups = partition_for(rect)._table[:, offs]
    f_w = int(wrong.sum())
    f_r = wrong.size - f_w
    if f_w == 0:
        return True
    cross = wrong[:, None] ^ wrong[None, :]
    poisoned = np.zeros(rect.b_size, dtype=bool)
    poisoned[matrix[cross & (matrix >= 0)]] = True
    unpoisoned = np.flatnonzero(~poisoned)
    if unpoisoned.size == 0:
        return False
    if min(f_w, f_r) <= pointers:
        return True
    w_groups = groups[np.ix_(unpoisoned, np.flatnonzero(wrong))]
    r_groups = groups[np.ix_(unpoisoned, np.flatnonzero(~wrong))]
    return any(
        len(np.unique(w_row)) <= pointers or len(np.unique(r_row)) <= pointers
        for w_row, r_row in zip(w_groups, r_groups)
    )


class TestWholeSampleVerdicts:
    @pytest.mark.parametrize("a_size,b_size,_", RW_RECTANGLES, ids=_RECT_IDS)
    def test_aegis_rw_poisoned_sets_match_rom(self, a_size, b_size, _):
        """Every pattern's poisoned bitset is the ROM's W x R slope set, at
        fault counts from just below the analytic threshold (the first
        count whose best split has ``B`` cross pairs) to well past it."""
        rect = formation(a_size, b_size, 512).rect
        rom = collision_rom_for(rect)
        threshold = next(f for f in range(2, 512) if (f // 2) * ((f + 1) // 2) >= b_size)
        stream = np.random.default_rng(b_size)
        verdicts = set()
        for f in (threshold - 1, threshold, 2 * threshold, 3 * threshold):
            offsets = stream.permutation(512)[:f].tolist()
            wrong = stream.integers(0, 2, size=(48, f), dtype=np.uint8).astype(bool)
            words = _poisoned_slopes(rom, offsets, wrong)
            assert words.shape == (48, -(-b_size // 64))
            for row, pattern in zip(words, wrong):
                w, r = split(offsets, pattern)
                got = [s for s in range(b_size) if int(row[s // 64]) >> (s % 64) & 1]
                assert got == rom.poisoned_slopes(w, r).tolist()
                dead = rom.find_rw_slope(w, r) is None
                assert dead == (len(got) == b_size)
                verdicts.add(dead)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("a_size,b_size,_", RW_RECTANGLES, ids=_RECT_IDS)
    def test_aegis_rw_checker_matches_find_rw_slope(self, a_size, b_size, _):
        rect = formation(a_size, b_size, 512).rect
        rom = collision_rom_for(rect)
        for seed in range(3):
            checker = AegisRwChecker(rect, RecordingSource(np.random.default_rng(seed)), samples=32)
            for alive, offsets, wrong in replay_draws(checker, fault_feed(100 + seed)):
                oracle = all(rom.find_rw_slope(*split(offsets, row)) is not None for row in wrong)
                assert alive == oracle

    @pytest.mark.parametrize("a_size,b_size,pointers", RW_RECTANGLES, ids=_RECT_IDS)
    def test_aegis_rw_p_checker_matches_reference(self, a_size, b_size, pointers):
        """Both verdicts occur per pattern, and the group-counting stage
        (both sides over the pointer budget) is reached."""
        rect = formation(a_size, b_size, 512).rect
        pattern_verdicts, counted = set(), False
        for seed in range(3):
            checker = AegisRwPChecker(
                rect, pointers, RecordingSource(np.random.default_rng(seed)), samples=32
            )
            for alive, offsets, wrong in replay_draws(checker, fault_feed(200 + seed)):
                per_pattern = [
                    reference_rw_p_recoverable(rect, pointers, offsets, row) for row in wrong
                ]
                assert alive == all(per_pattern)
                pattern_verdicts.update(per_pattern)
                f_w = wrong.sum(axis=1)
                counted |= bool((np.minimum(f_w, len(offsets) - f_w) > pointers).any())
        assert pattern_verdicts == {True, False}
        assert counted

    @pytest.mark.parametrize("group_count", [32, 64, 128])
    def test_safer_cache_checker_matches_sequential_growth(self, group_count):
        """The vector and the verdict equal a grow_vector call per pattern,
        in pattern order."""
        max_positions = group_count.bit_length() - 1
        for seed in range(4):
            bits = RecordingSource(np.random.default_rng(seed))
            checker = SaferCacheChecker(512, group_count, bits)
            positions, grew = (), 0
            for alive, offsets, wrong in replay_draws(checker, fault_feed(300 + seed)):
                oracle = True
                for row in wrong:
                    grown = grow_vector(positions, offsets, max_positions, row)
                    if grown is None:
                        oracle = False
                        break
                    grew += grown != positions
                    positions = grown
                assert alive == oracle
                if alive:
                    assert checker.positions == positions
            assert grew >= 2

    def test_consecutive_mixing_patterns_each_grow_the_vector(self):
        """Pattern 0 mixes faults 4 and 2 (grow bit 1); under (1,) pattern 1
        still mixes faults 0 and 4 (grow bit 2).  Random draws almost never
        line two growths up back to back, so they are scripted here."""

        class ScriptedDraws:
            def __init__(self, patterns):
                self.scripted = iter(patterns)

            def patterns(self, samples, n):
                pattern = np.asarray(next(self.scripted), dtype=np.uint8)
                assert pattern.shape == (samples, n)
                return pattern

        draws = ScriptedDraws([[[0], [0]], [[0, 0], [0, 0]], [[1, 0, 1], [1, 1, 0]]])
        checker = SaferCacheChecker(512, 64, draws, samples=2)
        assert feed_faults(checker, [(0, 0), (2, 0), (4, 0)]) is None
        assert checker.positions == (1, 2)



def numpy_growth(positions, offsets, wrong_masks, max_positions):
    """Oracle for ``SaferCacheChecker``'s growth loop: the loop as it ran on
    numpy arrays before per-fault sample bitsets.  Each pass rebuilds every
    fault's group and finds the patterns mixing W and R with a one-hot
    matmul; the first from ``start`` goes to ``grow_vector``.  Returns the
    grown positions, or ``None`` when the block dies."""
    samples = wrong_masks.shape[0]
    offs = np.asarray(offsets, dtype=np.int64)
    start = 0
    while start < samples:
        ids = np.zeros(offs.shape, dtype=np.int64)
        for i, position in enumerate(positions):
            ids |= ((offs >> position) & 1) << i
        onehot = (ids[:, None] == np.arange(1 << len(positions))).astype(np.float32)
        sizes = onehot.sum(axis=0)
        if sizes.max() < 2:
            break
        w_count = wrong_masks[start:].astype(np.float32) @ onehot
        mixing = ((w_count > 0) & (w_count < sizes)).any(axis=1)
        if not mixing.any():
            break
        start += int(mixing.argmax())
        grown = grow_vector(positions, offsets, max_positions, wrong_masks[start].tolist())
        if grown is None:
            return None
        positions = grown
        start += 1
    return positions


class TestSaferCacheBitsets:
    """``SaferCacheChecker``'s growth loop on per-fault ``K``-bit sample
    bitsets against the numpy loop it replaced, at sample counts on both
    sides of the bitsets' byte and word edges."""

    @pytest.mark.parametrize("samples", [1, 7, 8, 63, 64, 65, 128, 200])
    @pytest.mark.parametrize("group_count", [32, 64, 128])
    def test_matches_numpy_growth_loop(self, group_count, samples):
        """Per arrival: the same verdict, the same vector, the same draw."""
        max_positions = group_count.bit_length() - 1
        grew = 0
        for seed in range(3):
            rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            bits, twin = RecordingSource(rng), RecordingSource(twin_rng)
            checker = SaferCacheChecker(512, group_count, bits, samples=samples)
            positions, offsets = (), []
            for offset, stuck in fault_feed(1100 + seed):
                offsets.append(offset)
                alive = checker.add_fault(offset, stuck)
                grown = numpy_growth(
                    positions, offsets, twin.patterns(samples, len(offsets)).astype(bool),
                    max_positions,
                )
                assert len(bits.drawn) == len(twin.drawn)
                assert np.array_equal(bits.drawn[-1], twin.drawn[-1])
                assert alive == (grown is not None)
                if not alive:
                    break
                grew += grown != positions
                positions = grown
                assert checker.positions == positions
            bits.close()
            twin.close()
            assert rng.bit_generator.state == twin_rng.bit_generator.state
        assert grew >= 3

    @pytest.mark.parametrize("samples", [1, 7, 8, 63, 64, 65, 128, 200])
    def test_sample_bitsets_hold_each_faults_column(self, samples):
        data = np.random.default_rng(samples).integers(0, 2, size=(samples, 5), dtype=np.uint8)
        expected = [sum(int(bit) << k for k, bit in enumerate(column)) for column in data.T]
        assert checkers._sample_bitsets(data) == expected

    @pytest.mark.parametrize("samples", [2, 7, 8, 63, 64, 65, 128, 200])
    def test_mixing_patterns_grow_the_vector_at_any_bit(self, samples):
        """Faults 1, 2 and 4 share the empty vector's group, and the vector
        shows which patterns of their arrival's draw the checker grew on.
        From pattern ``at``, W = {1, 2} then W = {2} grows bits 1 then 0,
        and W = {2} then W = {1, 2} bits 0 then 1: the first pattern
        decides.  W = {1} at ``at`` grows bit 0 alone, and a later W = {2}
        bit 1: the scan resumes after each growth."""

        class ScriptedDraws:
            def __init__(self, draws):
                self.draws = iter(draws)

            def patterns(self, samples, n):
                return next(self.draws)

        cases = []
        for at in sorted({0, samples // 2 - 1, samples - 2}):
            cases.append(([(at, [1, 1, 0]), (slice(at + 1, None), [0, 1, 0])], (1, 0)))
            cases.append(([(at, [0, 1, 0]), (slice(at + 1, None), [1, 1, 0])], (0, 1)))
            for then in sorted({at + 1, samples - 1}):
                cases.append(([(at, [1, 0, 0]), (then, [0, 1, 0])], (0, 1)))
        for rows, vector in cases:
            draw = np.zeros((samples, 3), dtype=np.uint8)
            for index, row in rows:
                draw[index] = row
            quiet = [np.zeros((samples, f), dtype=np.uint8) for f in (1, 2)]
            checker = SaferCacheChecker(512, 64, ScriptedDraws([*quiet, draw]), samples)
            assert feed_faults(checker, [(1, 0), (2, 0), (4, 0)]) is None
            assert checker.positions == vector, rows


def rdis_failure_by_arrays(frows, fcols, stuck, data, levels) -> bool:
    """Oracle for ``_any_rdis_failure``: the same toggles on ``(K, f)``
    arrays, with each pattern's marked rows and columns as ``int64``
    bitmasks (the checker's formulation before per-fault sample bitsets)."""
    frows, fcols = np.asarray(frows, dtype=np.int64), np.asarray(fcols, dtype=np.int64)
    stuck = np.asarray(stuck, dtype=np.uint8)
    samples, f = data.shape
    row_bits = np.int64(1) << frows
    col_bits = np.int64(1) << fcols
    mask = np.zeros((samples, f), dtype=np.uint8)
    in_region = np.ones((samples, f), dtype=bool)
    for _ in range(levels):
        wrong = in_region & (stuck[None, :] != (data ^ mask))
        if not wrong.any():
            break
        marked_rows = np.bitwise_or.reduce(np.where(wrong, row_bits[None, :], 0), axis=1)
        marked_cols = np.bitwise_or.reduce(np.where(wrong, col_bits[None, :], 0), axis=1)
        in_intersection = ((marked_rows[:, None] >> frows[None, :]) & 1).astype(bool) & (
            (marked_cols[:, None] >> fcols[None, :]) & 1
        ).astype(bool)
        in_region = in_region & in_intersection
        mask ^= in_region.astype(np.uint8)
    return bool((stuck[None, :] != (data ^ mask)).any())


class TestRdisSampleBitsets:
    """``_any_rdis_failure`` on per-fault ``K``-bit sample bitsets against
    the array oracle, on the 16x32 grid of a 512-bit block."""

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("samples", [1, 5, 64, 100, 128, 8192])
    def test_matches_array_oracle(self, samples, depth):
        rows, cols = rdis_dimensions(512)
        assert (rows, cols) == (16, 32)
        stream = np.random.default_rng(samples * 10 + depth)
        verdicts = set()
        for f in range(2, 41):
            # alternate a dense corner (shared rows and columns) with the
            # whole block
            span = 96 if f % 2 else 512
            offsets = stream.choice(span, size=f, replace=False)
            stuck = stream.integers(0, 2, size=f).tolist()
            data = stream.integers(0, 2, size=(samples, f), dtype=np.uint8)
            frows, fcols = (offsets // cols).tolist(), (offsets % cols).tolist()
            fails = _any_rdis_failure(frows, fcols, stuck, data, depth - 1)
            assert fails == rdis_failure_by_arrays(frows, fcols, stuck, data, depth - 1), f
            verdicts.add(fails)
        assert verdicts == {True, False}

    def test_failing_pattern_is_found_at_any_bit(self):
        """A single unrecoverable pattern fails the sample wherever it sits,
        across word boundaries of the bitsets."""
        frows, fcols, stuck = [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0]
        # all four faults of a 2x2 square wrong but one: RDIS-2 inverts the
        # whole square, so the correct fault turns wrong
        bad = np.array([[1, 1, 1, 0]], dtype=np.uint8)
        assert rdis_failure_by_arrays(frows, fcols, stuck, bad, 1)
        for samples in (1, 63, 64, 65, 200):
            for at in {0, samples // 2, samples - 1}:
                data = np.zeros((samples, 4), dtype=np.uint8)
                assert not _any_rdis_failure(frows, fcols, stuck, data, 1)
                data[at] = bad
                assert _any_rdis_failure(frows, fcols, stuck, data, 1)


# ---------------------------------------------------------------------------
# Structural skips: arrivals decided from the fault set, with the draw kept
# ---------------------------------------------------------------------------


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Count the sampled checkers' calls to their full pattern evaluators."""
    calls = []
    for name in ("_any_rdis_failure", "_poisoned_slopes", "_sample_bitsets"):
        evaluate = getattr(checkers, name)
        monkeypatch.setattr(
            checkers, name, lambda *args, _evaluate=evaluate: calls.append(1) or _evaluate(*args)
        )
    return calls


def skipped_arrivals(checker, faults, calls):
    """Feed ``faults`` until the checker (on a :class:`RecordingSource`)
    dies.  Yield the fault offsets at every arrival that drew patterns but
    called no evaluator counted in ``calls``; such an arrival must leave
    the block alive."""
    for offset, stuck in faults:
        draws, evaluated = len(checker.bits.drawn), len(calls)
        alive = checker.add_fault(offset, stuck)
        if len(checker.bits.drawn) > draws and len(calls) == evaluated:
            assert alive
            yield list(checker.fault_offsets)
        if not alive:
            return


def all_splits(f: int) -> np.ndarray:
    """Every W/R split (or data word) of ``f`` faults, ``(2**f, f)`` bool."""
    return (np.arange(2**f)[:, None] >> np.arange(f) & 1).astype(bool)


class TestStructuralSkips:
    """Every arrival a sampled checker decides without evaluating patterns
    is checked against the full evaluator on all ``2**f`` patterns."""

    @pytest.mark.parametrize("depth", [2, 3])
    def test_rdis_skips_recover_every_data_word(self, depth, evaluator_calls):
        rows, cols = rdis_dimensions(512)
        skips = shared = 0
        for seed in range(40):
            bits = RecordingSource(np.random.default_rng(seed))
            checker = RdisChecker(512, rows, cols, depth, bits)
            for offsets in skipped_arrivals(checker, fault_feed(700 + seed)[:10], evaluator_calls):
                offs = np.asarray(offsets)
                frows, fcols = offs // cols, offs % cols
                stuck = np.asarray(checker.stuck_values, dtype=np.uint8)
                words = all_splits(offs.size).astype(np.uint8)
                assert not _any_rdis_failure(frows, fcols, stuck, words, depth - 1)
                skips += 1
                shared += len(set(frows)) < offs.size and len(set(fcols)) < offs.size
        # the skip also fires where faults share rows and columns
        assert skips > 40 and shared > 10

    @pytest.mark.parametrize("a_size,b_size,_", RW_RECTANGLES, ids=_RECT_IDS)
    def test_aegis_rw_skips_leave_a_slope_free_for_every_split(
        self, a_size, b_size, _, evaluator_calls
    ):
        rect = formation(a_size, b_size, 512).rect
        rom = collision_rom_for(rect)
        skips = 0
        for seed in range(6):
            checker = AegisRwChecker(rect, RecordingSource(np.random.default_rng(seed)), samples=8)
            for offsets in skipped_arrivals(checker, fault_feed(800 + seed), evaluator_calls):
                if len(offsets) > 17:  # the first draw is at f = 10 to 17
                    continue
                for chunk in np.array_split(all_splits(len(offsets)), 32):
                    words = _poisoned_slopes(rom, offsets, chunk)
                    assert (np.bitwise_count(words).sum(axis=1) < b_size).all()
                skips += 1
        assert skips >= 3

    @pytest.mark.parametrize("a_size,b_size,pointers", RW_RECTANGLES, ids=_RECT_IDS)
    def test_aegis_rw_p_skips_are_recoverable_for_every_split(
        self, a_size, b_size, pointers, evaluator_calls
    ):
        rect = formation(a_size, b_size, 512).rect
        skips = 0
        for seed in range(4):
            checker = AegisRwPChecker(
                rect, pointers, RecordingSource(np.random.default_rng(seed)), samples=8
            )
            for offsets in skipped_arrivals(checker, fault_feed(900 + seed)[:10], evaluator_calls):
                assert all(
                    reference_rw_p_recoverable(rect, pointers, offsets, row)
                    for row in all_splits(len(offsets))
                )
                skips += 1
        assert skips >= 4

    @pytest.mark.parametrize("group_count", [32, 64, 128])
    def test_safer_cache_separating_vector_mixes_no_split(self, group_count):
        max_positions = group_count.bit_length() - 1
        separated = 0
        for seed in range(6):
            checker = SaferCacheChecker(512, group_count, BitSource(np.random.default_rng(seed)))
            for offset, stuck in fault_feed(1000 + seed)[:10]:
                if not checker.add_fault(offset, stuck):
                    break
                offsets, positions = checker.fault_offsets, checker.positions
                groups = {vector_value(o, positions) for o in offsets}
                if not positions or len(groups) < len(offsets):
                    continue
                for row in all_splits(len(offsets)):
                    assert grow_vector(positions, offsets, max_positions, row) == positions
                separated += 1
        assert separated >= 10

    @pytest.mark.parametrize("group_count", [32, 64, 128])
    def test_safer_cache_skips_mix_no_split(self, group_count, evaluator_calls):
        """An arrival whose faults already sit in distinct groups converts
        no bitsets; the whole growth loop over all its splits agrees."""
        max_positions = group_count.bit_length() - 1
        skips = 0
        for seed in range(6):
            bits = RecordingSource(np.random.default_rng(seed))
            checker = SaferCacheChecker(512, group_count, bits)
            for offsets in skipped_arrivals(checker, fault_feed(1000 + seed)[:10], evaluator_calls):
                splits = all_splits(len(offsets))
                assert numpy_growth(checker.positions, offsets, splits, max_positions) == (
                    checker.positions
                )
                skips += len(offsets) > 2
        assert skips >= 10

    @pytest.mark.parametrize("key", ["safer64-cache", "safer128-cache"])
    def test_safer_cache_fixed_feed_has_a_skipped_arrival(self, key, evaluator_calls):
        """The pinned feed meets the arrival-level skip past its trivial
        first faults; this keeps the skip from vanishing unseen."""
        checker = PINNED_SPECS[key]().make_checker(RecordingSource(np.random.default_rng(14)))
        skipped = skipped_arrivals(checker, fault_feed(2013), evaluator_calls)
        assert any(len(offsets) > 2 for offsets in skipped)


class TestSampledCheckerConfiguration:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: AegisRwChecker(rectangle_for(512, 31), rng, samples=0),
            lambda rng: AegisRwPChecker(rectangle_for(512, 61), 9, rng, samples=0),
            lambda rng: SaferCacheChecker(512, 64, rng, samples=0),
            lambda rng: RdisChecker(512, 23, 23, 3, rng, samples=0),
            lambda rng: AegisDynamicChecker(rectangle_for(512, 23), rng, samples=-1),
        ],
        ids=["aegis-rw", "aegis-rw-p", "safer-cache", "rdis", "aegis-dynamic"],
    )
    def test_samples_below_one_rejected(self, make):
        with pytest.raises(ConfigurationError, match="samples >= 1"):
            make(BitSource(np.random.default_rng(0)))

    @pytest.mark.parametrize(
        "spec",
        [
            roster.aegis_rw_spec(17, 31, 512, samples=0),
            roster.rdis_spec(512, samples=0),
            roster.safer_cache_spec(64, 512, samples=0),
        ],
        ids=lambda spec: spec.key,
    )
    def test_page_study_with_zero_samples_raises_typed_error(self, spec):
        """No draws would make an immortal block; the study must say so
        instead of running the page loop out."""
        with pytest.raises(ConfigurationError):
            run_page_study(spec, n_pages=1, blocks_per_page=1, seed=1, workers=1)

    def test_rdis_rejects_a_grid_smaller_than_the_block(self):
        """Rows past the grid would shift out of the int64 row masks."""
        with pytest.raises(ConfigurationError, match="cannot hold 512 bits"):
            RdisChecker(512, 4, 4, 3, BitSource(np.random.default_rng(0)))

    def test_safer_cache_rejects_more_groups_than_bits(self):
        with pytest.raises(ConfigurationError, match="more groups than block bits"):
            SaferCacheChecker(64, 128, BitSource(np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# Pinned draws: the checkers' generator use is part of the results contract
# ---------------------------------------------------------------------------

PINNED_SPECS = {
    "aegis-rw-17x31": lambda: roster.aegis_rw_spec(17, 31, 512),
    "aegis-rw-9x61": lambda: roster.aegis_rw_spec(9, 61, 512),
    "aegis-rw-8x71": lambda: roster.aegis_rw_spec(8, 71, 512),
    "aegis-rw-p-23x23-p4": lambda: roster.aegis_rw_p_spec(23, 23, 4, 512),
    "aegis-rw-p-9x61-p9": lambda: roster.aegis_rw_p_spec(9, 61, 9, 512),
    "aegis-rw-p-8x71-p9": lambda: roster.aegis_rw_p_spec(8, 71, 9, 512),
    "rdis-3": lambda: roster.rdis_spec(512),
    "safer64-cache": lambda: roster.safer_cache_spec(64, 512),
    "safer128-cache": lambda: roster.safer_cache_spec(128, 512),
}

#: (index of the fatal fault, PCG64 state afterwards) for
#: ``fault_feed(2013)`` into a checker on ``default_rng(14)``, recorded from
#: the per-pattern checkers; a changed draw order or count changes these
PINNED_DRAWS = {
    "aegis-rw-17x31": (18, 0x22B3DE1C32E5DE97F717CAC395CB909A),
    "aegis-rw-9x61": (25, 0xD7B98B42A616E25BBCE8ED5C81C1AC2A),
    "aegis-rw-8x71": (30, 0x1C93F10D17285E33228397BC4B2C32DA),
    "aegis-rw-p-23x23-p4": (10, 0xD7CC49CAB05781C8863217823DF2E1DA),
    "aegis-rw-p-9x61-p9": (22, 0xD7B98B42A616E25BBCE8ED5C81C1AC2A),
    "aegis-rw-p-8x71-p9": (22, 0xD7B98B42A616E25BBCE8ED5C81C1AC2A),
    "rdis-3": (18, 0x46274FCB244EF35E34491D22B62F39DA),
    "safer64-cache": (10, 0x6C6EF047C67A60C0B5942C4C752B80BA),
    "safer128-cache": (14, 0xAD77FB691897C8CE438375D901710DDA),
}


def every_roster_spec():
    """Each spec of the figure rosters, the pinned sampled specs, and the
    ablation and Hamming specs no roster lists, once by key."""
    specs = [
        *roster.figure5_roster(512),
        *roster.figure8_roster(),
        *roster.figure9_roster(),
        *roster.variants_roster(),
        *(factory() for factory in PINNED_SPECS.values()),
        roster.aegis_dynamic_spec(23, 23, 512),
        roster.hamming_spec(512),
        roster.no_protection_spec(512),
    ]
    return list({spec.key: spec for spec in specs}.values())


class TestBuildDrawsNothing:
    @pytest.mark.parametrize("spec", every_roster_spec(), ids=lambda spec: spec.key)
    def test_building_a_checker_reads_no_bits(self, spec):
        """The page walk builds a block's checker on the block's first
        fault; that moves no draw only because building reads nothing."""
        rng, twin = np.random.default_rng(15), np.random.default_rng(15)
        with BitSource(rng) as bits:
            for _ in range(3):
                spec.make_checker(bits)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestPinnedDraws:
    @pytest.mark.parametrize("key", sorted(PINNED_DRAWS))
    def test_generator_state_after_fixed_feed(self, key):
        rng = np.random.default_rng(14)
        with BitSource(rng) as bits:
            death = feed_faults(PINNED_SPECS[key]().make_checker(bits), fault_feed(2013))
        assert (death, rng.bit_generator.state["state"]["state"]) == PINNED_DRAWS[key]

    @pytest.mark.parametrize("key", sorted(k for k in PINNED_DRAWS if not k.startswith("safer")))
    def test_fixed_feed_has_a_skipped_arrival(self, key, evaluator_calls):
        """Without its structural skip a checker gives the same draws and
        verdicts, only slower; this keeps the skip from vanishing unseen."""
        checker = PINNED_SPECS[key]().make_checker(RecordingSource(np.random.default_rng(14)))
        assert next(skipped_arrivals(checker, fault_feed(2013), evaluator_calls), None)

    def test_sampled_canaries_match_recorded_scalar_digests(self):
        """The stack benchmark's canary study (2 pages x 8 blocks, seed
        2013) for every ``study-sampled`` scheme, on both engines, against
        the digests recorded in ``perfbench/scalar_digests.json``."""
        from perfbench import study

        for key, factory in study.SAMPLED.items():
            for engine in ("scalar", "auto"):
                assert study.canary_digest(factory(), engine) == study.RECORDED[key], (key, engine)


#: three sampled specs, plus a kernel-covered Aegis (inversion wear on)
#: and ECP, through the other studies that build checkers, at a small
#: budget: the sha256 prefix of each result's repr.  The canaries cover
#: only ``run_page_study``; a checker or scheduler change must not move
#: these either (rewrite them only when a change is meant to alter results)
CALLER_SPECS = {
    **{key: PINNED_SPECS[key] for key in ("aegis-rw-9x61", "aegis-rw-p-9x61-p9", "rdis-3")},
    "aegis-9x61": lambda: roster.aegis_spec(9, 61, 512),
    "ecp6": lambda: roster.ecp_spec(6, 512),
}
CALLERS = {
    "block": lambda spec: block_lifetime_study(spec, trials=6, seed=2013),
    "block-partial": lambda spec: block_lifetime_study(
        spec, trials=6, seed=2013, fault_model="partial"
    ),
    "block-drift": lambda spec: block_lifetime_study(
        spec, trials=6, seed=2013, fault_model="drift"
    ),
    "remap": lambda spec: remap_page_study(
        spec, spares=2, blocks_per_page=4, n_pages=2, seed=2013
    ),
    "pairing": lambda spec: pairing_study(
        spec, n_pages=3, blocks_per_page=4, grid_points=4, seed=2013
    ),
}
CALLER_DIGESTS = {
    ("aegis-rw-9x61", "block"): "e75b30f0bff3cacf",
    ("aegis-rw-9x61", "remap"): "ae2658029b411a13",
    ("aegis-rw-9x61", "pairing"): "037ff15f5f22a166",
    ("aegis-rw-p-9x61-p9", "block"): "69ec31fdd2a9ee4a",
    ("aegis-rw-p-9x61-p9", "remap"): "d51e33fb9592f98c",
    ("aegis-rw-p-9x61-p9", "pairing"): "c688ea311b45f92b",
    ("rdis-3", "block"): "0fb2d98ab8d1e34b",
    ("rdis-3", "remap"): "6b0aa95fdedf71c1",
    ("rdis-3", "pairing"): "4ab34046d918857e",
    ("aegis-9x61", "block"): "80c9b56ca3538bdd",
    ("aegis-9x61", "block-partial"): "67298aa593b6e4b4",
    ("aegis-9x61", "block-drift"): "151f0f3d4a107143",
    ("aegis-9x61", "pairing"): "c75cdb0e4758a36b",
    ("ecp6", "block"): "e32c7b4e80c6d8f7",
    ("ecp6", "pairing"): "f7d37b89c1a5b836",
}


class TestCallerDigests:
    @pytest.mark.parametrize("key,caller", sorted(CALLER_DIGESTS))
    def test_study_result_matches_recorded_digest(self, key, caller):
        result = CALLERS[caller](CALLER_SPECS[key]())
        assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == CALLER_DIGESTS[key, caller]
