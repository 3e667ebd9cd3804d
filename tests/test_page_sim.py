"""Tests for the event-driven page simulator."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pcm.lifetime import FixedLifetime
from repro.sim import kernels, page_sim, roster
from repro.sim.page_sim import run_page_study, simulate_page
from repro.sim import rng as rng_module
from repro.sim.rng import BitSource
from repro.sim.roster import aegis_spec, ecp_spec, no_protection_spec, safer_spec
from tests.conftest import PreparedLifetime


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
        rect = spec.make_checker(BitSource(np.random.default_rng(0))).rect

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


#: the ``study-sampled`` roster (perfbench/study.py); these schemes have
#: no batch kernel, so every page runs on the scalar scheduler
SAMPLED_SPECS = {
    "aegis-rw-17x31": lambda: roster.aegis_rw_spec(17, 31, 512),
    "aegis-rw-9x61": lambda: roster.aegis_rw_spec(9, 61, 512),
    "aegis-rw-p-9x61-p9": lambda: roster.aegis_rw_p_spec(9, 61, 9, 512),
    "rdis-3": lambda: roster.rdis_spec(512),
    "safer64-cache": lambda: roster.safer_cache_spec(64, 512),
}
TIED_SAMPLES = {
    "drift": {"fault_model": "drift"},
    "partial": {"fault_model": "partial"},
    "fixed": {"lifetime_model": FixedLifetime(1000)},
}
#: sha256 prefix of the results of three 4 KB pages (seed 2013) per scheme
#: and sample; drift bursts and ``FixedLifetime`` tie deaths routinely, so
#: these pin the defined order's tie-break (base cells by cell index), and
#: partial's long-lived aegis-rw-9x61 pages walk past 1024 deaths
TIED_DIGESTS = {
    ("aegis-rw-17x31", "drift"): "ee1842bafa282766",
    ("aegis-rw-17x31", "partial"): "a9c9322854d0f452",
    ("aegis-rw-17x31", "fixed"): "befa433dba9aa40f",
    ("aegis-rw-9x61", "drift"): "c21f1dbb9c626a29",
    ("aegis-rw-9x61", "partial"): "9ddce6a73eba54ac",
    ("aegis-rw-9x61", "fixed"): "4e0b330461fdc0d0",
    ("aegis-rw-p-9x61-p9", "drift"): "6dec7b68d44d27f3",
    ("aegis-rw-p-9x61-p9", "partial"): "856d636036c18070",
    ("aegis-rw-p-9x61-p9", "fixed"): "3113d3a0a13d30ab",
    ("rdis-3", "drift"): "839147fedf14660a",
    ("rdis-3", "partial"): "0d8ad6ea8b7ec0e0",
    ("rdis-3", "fixed"): "790b2a7c2302ea37",
    ("safer64-cache", "drift"): "a6b283588a3220df",
    ("safer64-cache", "partial"): "78ba6da17e38ea9d",
    ("safer64-cache", "fixed"): "4a3a3e3a3e9b902e",
}


class TestSampledStudyDigests:
    @pytest.mark.parametrize("key,sample", sorted(TIED_DIGESTS))
    def test_tied_samples_match_recorded_digest(self, key, sample):
        study = run_page_study(
            SAMPLED_SPECS[key](), n_pages=3, seed=2013, workers=1, **TIED_SAMPLES[sample]
        )
        digest = hashlib.sha256(repr(study.results).encode()).hexdigest()[:16]
        assert digest == TIED_DIGESTS[key, sample]


PAGE_BLOCKS = 64
PAGE_CELLS = PAGE_BLOCKS * 512


def _round_robin() -> np.ndarray:
    """Deaths dealt to the 64 blocks in turn: an Aegis-rw 8x71 block needs
    17 faults before a pattern can fail, so the page outlives the first
    1024 deaths."""
    rank = np.arange(PAGE_CELLS)
    offsets = np.random.default_rng(22).permutation(512)
    times = np.empty(PAGE_CELLS)
    times[(rank % PAGE_BLOCKS) * 512 + offsets[rank // PAGE_BLOCKS]] = rank + 1.0
    return times


def _edge_tie() -> np.ndarray:
    """The round-robin page, with the last cell of the scheduler's first
    prefix tied by the next seven: no tie inside the prefix, but its
    last cell ties the edge, so the prefix is exact only before it."""
    times = _round_robin()
    order = np.argsort(times, kind="stable")
    edge = page_sim.SCALAR_PREFIX - 1
    times[order[edge : edge + 8]] = times[order[edge]]
    return times


#: prepared base death times of one 64-block page
PREPARED = {
    "distinct": lambda: np.random.default_rng(20).permutation(PAGE_CELLS) + 1.0,
    "tie-in-prefix": lambda: np.random.default_rng(23).integers(1, 4000, PAGE_CELLS) + 0.0,
    "tie-at-edge": _edge_tie,
    "all-tied": lambda: np.full(PAGE_CELLS, 1000.0),
    "outlives-prefix": _round_robin,
}
WEAR_FREE_SPECS = {
    "aegis-rw-8x71": lambda: roster.aegis_rw_spec(8, 71, 512),
    "rdis-3": lambda: roster.rdis_spec(512),
    "ecp6": lambda: ecp_spec(6, 512),
}


def scheduler_events(spec, times: np.ndarray) -> "tuple[object, list[tuple]]":
    """The page result and fault timeline of the scalar scheduler on
    ``times`` (write probability 1, so base death times equal ``times``)."""
    events = []
    result = simulate_page(
        spec,
        PAGE_BLOCKS,
        np.random.default_rng(3),
        lifetime_model=PreparedLifetime(times),
        write_probability=1.0,
        observer=events.append,
    )
    return result, [(e.time, e.block, e.offset, e.stuck_value, e.fatal) for e in events]


class NumpyDraws:
    """A :class:`BitSource`'s draws made as the ``Generator.integers``
    calls they reproduce: the reference the source is held to."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def bit(self) -> int:
        return int(self.rng.integers(0, 2))

    def patterns(self, samples: int, n: int) -> np.ndarray:
        return self.rng.integers(0, 2, size=(samples, n), dtype=np.uint8)


def full_argsort_events(spec, times: np.ndarray) -> list[tuple]:
    """The wear-free fault timeline walked over the full stable argsort
    of ``times`` (ties by cell index), one stuck-value draw per arrival,
    every draw a ``Generator.integers`` call."""
    bits = NumpyDraws(np.random.default_rng(3))
    block_checkers = [spec.make_checker(bits) for _ in range(PAGE_BLOCKS)]
    events = []
    for cell in np.argsort(times, kind="stable").tolist():
        block, offset = divmod(cell, spec.n_bits)
        stuck = bits.bit()
        alive = block_checkers[block].add_fault(offset, stuck)
        events.append((float(times[cell]), block, offset, stuck, not alive))
        if not alive:
            return events
    raise AssertionError("page outlived every cell")


class TestSortedPrefix:
    """The scheduler walks sorted prefixes of the death order; the walk must
    equal one over the full stable argsort, ties included."""

    @pytest.mark.parametrize("sample", sorted(PREPARED))
    @pytest.mark.parametrize("key", sorted(WEAR_FREE_SPECS))
    def test_wear_free_walk_matches_full_argsort(self, key, sample):
        spec, times = WEAR_FREE_SPECS[key](), PREPARED[sample]()
        result, events = scheduler_events(spec, times)
        assert events == full_argsort_events(spec, times)
        assert result.lifetime_writes == events[-1][0]
        assert result.faults_recovered == len(events) - 1

    @pytest.mark.parametrize("sample", sorted(PREPARED))
    def test_wear_walk_matches_full_width_prefix(self, sample, monkeypatch):
        """Under inversion wear the heap merges re-scheduled deaths into the
        base order; a first prefix as wide as the page is the full sort."""
        spec, times = aegis_spec(9, 61, 512), PREPARED[sample]()
        walked = scheduler_events(spec, times)
        monkeypatch.setattr(page_sim, "SCALAR_PREFIX", PAGE_CELLS)
        assert walked == scheduler_events(spec, times)

    @pytest.mark.parametrize("width", [1, 16, 1000])
    @pytest.mark.parametrize("sample", ["distinct", "tie-at-edge", "outlives-prefix"])
    def test_widening_keeps_the_order(self, sample, width, monkeypatch):
        monkeypatch.setattr(page_sim, "SCALAR_PREFIX", width)
        spec, times = roster.aegis_rw_spec(8, 71, 512), PREPARED[sample]()
        assert scheduler_events(spec, times)[1] == full_argsort_events(spec, times)

    @pytest.mark.parametrize("sample", sorted(PREPARED))
    def test_one_row_prefix_is_exact_up_to_its_edge(self, sample):
        """The scheduler's prefixes are one-row calls of the kernels'
        prefix helper on the flat page: cells in ``(time, index)`` order,
        exact up to the cells strictly earlier than the edge."""
        times = PREPARED[sample]()
        width = page_sim.SCALAR_PREFIX
        cells, head, exact = kernels.sorted_prefix(times[None, :], width)
        order = np.argsort(times, kind="stable")
        edge = times[order[width]]
        assert exact.tolist() == [int((times < edge).sum())]
        assert np.array_equal(cells[0, : exact[0]], order[: exact[0]])
        assert np.array_equal(head[0], times[order[:width]])

    def test_round_robin_page_outlives_the_first_prefix(self):
        _, events = scheduler_events(roster.aegis_rw_spec(8, 71, 512), _round_robin())
        assert len(events) > page_sim.SCALAR_PREFIX


class TestStuckValueRuns:
    @pytest.mark.parametrize("run", [2, 3, 17, 1024])
    def test_one_call_is_the_scalar_stream(self, run):
        """``rng.integers(0, 2, size=k)`` yields the values and leaves the
        generator state of ``k`` scalar ``rng.integers(0, 2)`` calls, so a
        run of stuck values drawn at once moves no later draw."""
        batched, scalar = np.random.default_rng(run), np.random.default_rng(run)
        assert batched.integers(0, 2, size=run).tolist() == [
            int(scalar.integers(0, 2)) for _ in range(run)
        ]
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert np.array_equal(
            batched.integers(0, 2, size=(128, 9), dtype=np.uint8),
            scalar.integers(0, 2, size=(128, 9), dtype=np.uint8),
        )


class TestBitSource:
    """:class:`BitSource` against ``Generator.integers`` on a twin
    generator: every draw equal, and the generator left where the numpy
    calls leave it (a numpy release that changes these draws fails here)."""

    @staticmethod
    def twins(seed: int, cached: bool):
        source, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if cached:  # leave the high half of a 64-bit output cached
            assert int(source.integers(0, 2)) == int(twin.integers(0, 2))
            assert source.bit_generator.state["has_uint32"] == 1
        return source, twin

    @staticmethod
    def assert_same_position(rng, twin):
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()
        assert int(rng.integers(0, 2)) == int(twin.integers(0, 2))
        assert rng.random() == twin.random()

    @staticmethod
    def draw(bits, twin, kind: str, size: int, samples: int) -> None:
        if kind == "bit":
            assert bits.bit() == int(twin.integers(0, 2))
        elif kind == "bits":
            assert bits.bits(size) == twin.integers(0, 2, size=size).tolist()
        else:
            got = bits.patterns(samples, size)
            want = twin.integers(0, 2, size=(samples, size), dtype=np.uint8)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("samples", [3, 128])
    @pytest.mark.parametrize("cached", [False, True])
    def test_random_interleavings_match_integers(self, cached, samples):
        """One-value draws, ``k``-value runs and ``(samples, f)`` pattern
        draws in random order, over many chunk boundaries (``3 * f`` is a
        multiple of 4 only when ``f`` is)."""
        for seed in range(40):
            plan = np.random.default_rng(1000 + seed)
            rng, twin = self.twins(seed, cached)
            with BitSource(rng) as bits:
                for _ in range(int(plan.integers(0, 41))):
                    kind = ("bit", "bits", "patterns")[int(plan.integers(0, 3))]
                    self.draw(bits, twin, kind, int(plan.integers(1, 14)), samples)
            self.assert_same_position(rng, twin)

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("then", [None, "bit", "patterns"])
    def test_chunk_used_up_exactly(self, cached, then):
        """Reads that end exactly on the first chunk's last word, then
        nothing, a one-value draw or a pattern draw across the refill."""
        rng, twin = self.twins(7, cached)
        words = 2 * rng_module._FIRST_CHUNK  # uint32 words in the first chunk
        with BitSource(rng) as bits:
            if cached:
                self.draw(bits, twin, "bit", 1, 1)  # the cached half opens the stream
            self.draw(bits, twin, "patterns", 4, words // 2)  # words // 2 words
            self.draw(bits, twin, "bits", words - words // 2, 1)
            assert bits._pos == len(bits._words)  # nothing left unread
            if then is not None:
                self.draw(bits, twin, then, 9, 128)
        self.assert_same_position(rng, twin)

    def test_draws_larger_than_a_chunk(self):
        rng, twin = self.twins(8, True)
        with BitSource(rng) as bits:
            self.draw(bits, twin, "patterns", 64, 128)  # 2048 words, one fetch
            self.draw(bits, twin, "bits", 3 * rng_module._MAX_CHUNK, 1)
            self.draw(bits, twin, "bit", 1, 1)
        self.assert_same_position(rng, twin)

    @pytest.mark.parametrize("cached", [False, True])
    def test_nothing_drawn_moves_nothing(self, cached):
        rng, twin = self.twins(9, cached)
        BitSource(rng).close()
        self.assert_same_position(rng, twin)

    def test_close_is_idempotent(self):
        rng, twin = self.twins(10, False)
        with BitSource(rng) as bits:
            self.draw(bits, twin, "patterns", 5, 128)
        bits.close()
        self.assert_same_position(rng, twin)

    def test_other_bit_generators_are_rejected(self):
        with pytest.raises(ConfigurationError, match="PCG64"):
            BitSource(np.random.Generator(np.random.MT19937(1)))
        with pytest.raises(ConfigurationError, match="PCG64"):
            simulate_page(
                roster.rdis_spec(512), 2, np.random.Generator(np.random.MT19937(1))
            )

    @pytest.mark.parametrize(
        "spec",
        [roster.aegis_rw_spec(17, 31, 512), roster.rdis_spec(512), aegis_spec(9, 61, 512)],
        ids=lambda spec: spec.key,
    )
    def test_page_walk_leaves_the_numpy_position(self, spec):
        """Replaying a walk's fault timeline with ``Generator.integers``
        draws (one stuck value per arrival, the checkers' pattern draws)
        gives its stuck values and leaves a twin generator where the walk
        left its own: wear-free runs and the wear path alike."""
        times = np.random.default_rng(21).permutation(16 * 512) + 1.0
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        events = []
        simulate_page(
            spec,
            16,
            rng,
            lifetime_model=PreparedLifetime(times),
            write_probability=1.0,
            observer=events.append,
        )
        draws = NumpyDraws(twin)
        checkers = {}
        for event in events:
            if event.block not in checkers:
                checkers[event.block] = spec.make_checker(draws)
            checker = checkers[event.block]
            assert draws.bit() == event.stuck_value
            assert checker.add_fault(event.offset, event.stuck_value) != event.fatal
        assert events[-1].fatal
        self.assert_same_position(rng, twin)
