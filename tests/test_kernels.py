"""Tests for the batch Monte Carlo kernels (`repro/sim/kernels.py`).

The headline property: ``engine="auto"`` is a pure performance knob.
For every covered scheme the batched population advance returns results
bit-identical to the scalar checker loop — same death counts, same
lifetimes, same page studies — because both engines consume the same
``rng_for`` substreams and both schedulers take deaths in one defined
order, ``(time, base before accelerated, flat cell index)``.  Schemes
without a kernel fall back to the scalar path transparently.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pcm.lifetime import FixedLifetime, LifetimeModel, NormalLifetime
from repro.sim import kernels
from repro.sim.block_sim import block_lifetime_study, failure_curve
from repro.sim.kernels import (
    MAX_SLOPE_BITS,
    batch_checker_for,
    burst_collapse,
    kernel_supported,
    mask_partial_deaths,
    resolve_engine,
    validate_engine,
)
from repro.sim.page_sim import run_page_study, simulate_page, simulate_pages
from repro.sim.rng import rng_for
from repro.sim.roster import (
    aegis_rw_p_spec,
    aegis_rw_spec,
    aegis_spec,
    ecp_spec,
    hamming_spec,
    no_protection_spec,
    rdis_spec,
    safer_cache_spec,
    safer_spec,
)
from tests.conftest import PreparedLifetime

#: every kernel family, plus rectangle variations and a smaller block size
KERNEL_SPECS = [
    aegis_spec(9, 61, 512),
    aegis_spec(17, 31, 512),
    aegis_spec(23, 23, 512),
    aegis_spec(9, 31, 256),
    safer_spec(64, 512),
    safer_spec(32, 512, policy="exhaustive"),
    ecp_spec(6, 512),
    ecp_spec(2, 256),
]

#: static schemes with no kernel: Hamming (one word count per arrival)
#: and the unprotected block (dead at its first fault)
STATIC_SCALAR_SPECS = [
    hamming_spec(512),
    no_protection_spec(512),
]

#: schemes no kernel covers: sampled/stateful checkers, out-of-range
#: Aegis, and the kernel-less static schemes above
FALLBACK_SPECS = [
    aegis_spec(8, 71, 512),  # 71 slopes exceed the uint64 poisoned bitset
    *STATIC_SCALAR_SPECS,
    aegis_rw_spec(9, 61, 512),
    aegis_rw_spec(8, 71, 512),
    aegis_rw_p_spec(9, 61, 9, 512),
    aegis_rw_p_spec(8, 71, 9, 512),
    safer_cache_spec(64, 512),
    rdis_spec(512),
]

#: the engine switch must stay bit-identical on these end to end: every
#: kernel family, plus the kernel-less static schemes
ENGINE_SPECS = KERNEL_SPECS + STATIC_SCALAR_SPECS

_IDS = lambda s: s.key  # noqa: E731


class TestEngineResolution:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("gpu", aegis_spec(9, 61, 512))

    def test_validate_engine_returns_the_name_or_names_the_choices(self):
        assert validate_engine("auto") == "auto"
        assert validate_engine("scalar") == "scalar"
        with pytest.raises(ConfigurationError) as info:
            validate_engine("vector")
        assert "'vector'" in str(info.value)
        assert "'auto'" in str(info.value) and "'scalar'" in str(info.value)

    def test_scalar_is_always_scalar(self):
        for spec in KERNEL_SPECS + FALLBACK_SPECS:
            assert resolve_engine("scalar", spec) == "scalar"

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_IDS)
    def test_covered_specs_resolve_to_vector(self, spec):
        assert kernel_supported(spec)
        assert resolve_engine("auto", spec) == "vector"

    @pytest.mark.parametrize("spec", FALLBACK_SPECS, ids=_IDS)
    def test_uncovered_specs_fall_back_to_scalar(self, spec):
        assert not kernel_supported(spec)
        assert resolve_engine("auto", spec) == "scalar"

    def test_wide_aegis_exceeds_slope_bitset(self):
        spec = aegis_spec(8, 71, 512)
        assert spec.make_batch is None and 71 > MAX_SLOPE_BITS
        with pytest.raises(ConfigurationError):
            batch_checker_for(spec, 4)


class TestFailureCurveEquivalence:
    @pytest.mark.parametrize("spec", ENGINE_SPECS, ids=_IDS)
    @pytest.mark.parametrize("seed", [2013, 77])
    def test_curves_are_bit_identical(self, spec, seed):
        scalar = failure_curve(spec, trials=40, seed=seed, engine="scalar")
        vector = failure_curve(spec, trials=40, seed=seed, engine="auto")
        assert vector == scalar

    @pytest.mark.parametrize("spec", FALLBACK_SPECS, ids=_IDS)
    def test_fallback_specs_match_scalar_trivially(self, spec):
        scalar = failure_curve(spec, trials=10, seed=5, engine="scalar")
        vector = failure_curve(spec, trials=10, seed=5, engine="auto")
        assert vector == scalar


class TestLifetimeEquivalence:
    @pytest.mark.parametrize("spec", ENGINE_SPECS, ids=_IDS)
    def test_study_is_bit_identical(self, spec):
        scalar = block_lifetime_study(spec, trials=25, seed=3, engine="scalar")
        vector = block_lifetime_study(spec, trials=25, seed=3, engine="auto")
        assert vector == scalar

    @pytest.mark.parametrize("seed", [0, 9, 41])
    def test_single_block_matches_scalar(self, seed):
        spec = aegis_spec(9, 61, 512)
        scalar = simulate_page(spec, 1, rng_for(seed, 0), engine="scalar")
        vector = simulate_page(spec, 1, rng_for(seed, 0), engine="auto")
        assert vector == scalar

    def test_fixed_lifetime_ties_stay_identical(self):
        """FixedLifetime makes every death time tie exactly; the defined
        death order resolves them alike on both engines."""
        model = FixedLifetime(mean_lifetime=1e4)
        for spec in (aegis_spec(9, 61, 512), safer_spec(64, 512)):
            scalar = block_lifetime_study(
                spec, trials=6, seed=1, lifetime_model=model, engine="scalar"
            )
            vector = block_lifetime_study(
                spec, trials=6, seed=1, lifetime_model=model, engine="auto"
            )
            assert vector == scalar


class TestPageEquivalence:
    @pytest.mark.parametrize("spec", ENGINE_SPECS, ids=_IDS)
    @pytest.mark.parametrize("seed", [17, 2013])
    def test_page_study_is_bit_identical(self, spec, seed):
        scalar = run_page_study(
            spec, n_pages=4, blocks_per_page=4, seed=seed, engine="scalar"
        )
        vector = run_page_study(
            spec, n_pages=4, blocks_per_page=4, seed=seed, engine="auto"
        )
        assert vector.results == scalar.results
        assert vector.lifetime == scalar.lifetime
        assert vector.faults == scalar.faults
        assert vector.baseline_lifetime == scalar.baseline_lifetime

    def test_single_page_matches_scalar(self):
        spec = aegis_spec(9, 61, 512)
        for seed in (1, 2, 3):
            scalar = simulate_page(spec, 6, rng_for(seed, 0), engine="scalar")
            vector = simulate_page(spec, 6, rng_for(seed, 0), engine="auto")
            assert vector == scalar

    def test_batched_pages_match_per_page_calls(self):
        spec = safer_spec(64, 512)
        batched = simulate_pages(spec, 4, range(5), 7)
        single = [simulate_page(spec, 4, rng_for(7, page)) for page in range(5)]
        assert batched == single

    def test_engine_composes_with_workers(self):
        """engine and workers multiply: pooled vector == serial scalar."""
        spec = aegis_spec(9, 61, 512)
        reference = run_page_study(
            spec, n_pages=6, blocks_per_page=4, seed=29, workers=1, engine="scalar"
        )
        pooled = run_page_study(
            spec, n_pages=6, blocks_per_page=4, seed=29, workers=3, engine="auto"
        )
        assert pooled.results == reference.results

    def test_fixed_lifetime_page_ties_stay_identical(self):
        model = FixedLifetime(mean_lifetime=1e4)
        spec = aegis_spec(9, 61, 512)
        scalar = run_page_study(
            spec,
            n_pages=2,
            blocks_per_page=3,
            seed=11,
            lifetime_model=model,
            engine="scalar",
        )
        vector = run_page_study(
            spec,
            n_pages=2,
            blocks_per_page=3,
            seed=11,
            lifetime_model=model,
            engine="auto",
        )
        assert vector.results == scalar.results


class _LightTies(LifetimeModel):
    """Normal endurance with each block's 2nd-4th earliest death copied
    onto a random cell of the same block: exact ties that the scheduler
    meets early, ~0.6% of a 4-block page."""

    def __init__(self, n_bits: int) -> None:
        self.n_bits = n_bits
        self._base = NormalLifetime()

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        values = self._base.sample(n_cells, rng)
        blocks = values.reshape(-1, self.n_bits)
        earliest = np.argsort(blocks, axis=1)[:, 1:4]
        targets = rng.integers(0, self.n_bits, size=earliest.shape)
        rows = np.arange(blocks.shape[0])[:, None]
        blocks[rows, targets] = blocks[rows, earliest]
        return values

    @property
    def mean(self) -> float:
        return self._base.mean


class TestLightTies:
    @pytest.mark.parametrize("wear", [0.25, 0.0])
    def test_multi_block_pages_match_scalar(self, wear):
        """Tied base deaths within a block go by cell index on both
        engines."""
        model = _LightTies(512)
        sample = model.sample(4 * 512, rng_for(0, 0))
        assert np.unique(sample).size < sample.size  # the sample has ties
        specs = [
            aegis_spec(9, 61, 512),
            aegis_spec(17, 31, 512),
            safer_spec(64, 512),
            safer_spec(128, 512),
        ]
        for spec in specs:
            for seed in range(12):
                kwargs = dict(
                    n_pages=4,
                    blocks_per_page=4,
                    seed=seed,
                    lifetime_model=model,
                    inversion_wear_rate=wear,
                )
                scalar = run_page_study(spec, engine="scalar", **kwargs)
                vector = run_page_study(spec, engine="auto", **kwargs)
                assert vector.results == scalar.results, (spec.key, seed)


class _EdgeTies(_LightTies):
    """Normal endurance with each block's 2nd-5th earliest deaths made
    equal: a four-way tie near the front of every block, where the edge
    of a one-, two- or four-wide frozen prefix falls."""

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        values = self._base.sample(n_cells, rng)
        blocks = values.reshape(-1, self.n_bits)
        earliest = np.argsort(blocks, axis=1)
        rows = np.arange(blocks.shape[0])[:, None]
        blocks[rows, earliest[:, 2:5]] = blocks[rows, earliest[:, 1:2]]
        return values


def _pages_match_scalar(spec, model, wear, seeds=range(8)):
    for seed in seeds:
        kwargs = dict(lifetime_model=model, inversion_wear_rate=wear)
        scalar = simulate_pages(spec, 4, range(3), seed, engine="scalar", **kwargs)
        vector = simulate_pages(spec, 4, range(3), seed, engine="auto", **kwargs)
        assert vector == scalar, (spec.key, wear, seed)


class TestFrozenWalk:
    """The frozen-order walk against the scalar scheduler."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """Record the first step of every frozen walk that is entered."""
        entered = []
        walk = kernels._frozen_walk

        def spy(spec, lock, frozen, first_step, accelerated):
            entered.append(first_step)
            return walk(spec, lock, frozen, first_step, accelerated)

        monkeypatch.setattr(kernels, "_frozen_walk", spy)
        return entered

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize(
        "spec, wear, reach",
        [
            (safer_spec(64, 512), 0.25, 16),
            (safer_spec(64, 512), 0.0, 16),
            (aegis_spec(9, 61, 512), 0.0, 16),
            # ECP dies at fault p + 1, so a row walks at most p + 1 deaths
            (ecp_spec(6, 512), 0.0, 8),
            (ecp_spec(2, 256), 0.0, 4),
        ],
        ids=[
            "safer64-wear",
            "safer64-no-wear",
            "aegis-9x61-no-wear",
            "ecp6",
            "ecp2",
        ],
    )
    def test_narrow_prefix_widens_to_the_scalar_order(
        self, monkeypatch, spec, wear, reach, width
    ):
        widths = []
        prefix = kernels.sorted_prefix

        def spy(deaths, wide):
            if deaths.shape[1] == spec.n_bits:  # the batch: one block a row
                widths.append(wide)
            return prefix(deaths, wide)

        monkeypatch.setattr(kernels, "FROZEN_PREFIX", width)
        monkeypatch.setattr(kernels, "sorted_prefix", spy)
        _pages_match_scalar(spec, _EdgeTies(spec.n_bits), wear)
        assert widths[0] == width and max(widths) >= reach

    def test_ties_at_the_prefix_edge_are_not_exact(self):
        frozen = np.array([[3.0, 1.0, 2.0, 2.0, 2.0, 5.0]])
        cells, times, exact = kernels.sorted_prefix(frozen, 2)
        # the edge (third-smallest) time 2.0 is tied: only cell 1 is exact
        assert exact.tolist() == [1] and cells[0, 0] == 1
        cells, times, exact = kernels.sorted_prefix(frozen, 4)
        assert exact.tolist() == [4]
        assert cells[0].tolist() == [1, 2, 3, 4]
        assert times[0].tolist() == [1.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize("wear, first_step", [(0.25, 1), (0.0, 0)])
    @pytest.mark.parametrize("model", [None, _EdgeTies(512)], ids=["normal", "ties"])
    def test_safer_freezes_after_its_first_fault(self, walks, model, wear, first_step):
        """SAFER's first group is the whole block, so one step accelerates
        every live cell; without wear the order is frozen from step 0."""
        _pages_match_scalar(safer_spec(128, 512), model, wear)
        assert walks == [first_step] * 8

    @pytest.mark.parametrize("wear", [0.25, 0.0])
    def test_ecp_walks_frozen_from_its_first_fault(self, walks, wear):
        """ECP has no inversion wear: its death order is frozen at step 0."""
        _pages_match_scalar(ecp_spec(6, 512), _EdgeTies(512), wear)
        assert walks == [0] * 8

    @pytest.mark.parametrize(
        "spec", [aegis_spec(9, 61, 512), aegis_spec(17, 31, 512)], ids=_IDS
    )
    def test_aegis_rows_never_freeze(self, walks, spec):
        _pages_match_scalar(spec, _EdgeTies(spec.n_bits), 0.25)
        assert walks == []


class _CoarseTies(LifetimeModel):
    """Normal endurance rounded to a coarse grid: most cells share their
    death time with others, far more ties than :class:`_LightTies`."""

    def __init__(self, step: float = 2e6) -> None:
        self.step = step
        self._base = NormalLifetime()

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        return np.round(self._base.sample(n_cells, rng) / self.step) * self.step

    @property
    def mean(self) -> float:
        return self._base.mean


class TestHeavyTies:
    """Heavily tied samples go through the batch like any other, and the
    tie audit counts their deaths in the defined order."""

    def test_coarse_sample_is_heavily_tied(self):
        sample = _CoarseTies().sample(4 * 512, rng_for(0, 0))
        assert np.unique(sample).size < sample.size // 4

    @pytest.mark.parametrize("fault_model", ["hard", "partial", "drift"])
    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_IDS)
    def test_coarse_ties_match_scalar(self, spec, fault_model):
        kwargs = dict(
            n_pages=2,
            blocks_per_page=2,
            seed=5,
            lifetime_model=_CoarseTies(),
            fault_model=fault_model,
        )
        scalar = run_page_study(spec, engine="scalar", **kwargs)
        vector = run_page_study(spec, engine="auto", **kwargs)
        assert vector.results == scalar.results



def _cross_block_tie(n_bits: int) -> np.ndarray:
    """A three-block page that dies at time 2000 in block 1, all of whose
    cells die then; blocks 0 and 2 each lose three cells at that time
    too, and every other cell dies later at a distinct time.  Block 0's
    tied deaths come before the fatal one in flat index order, block 2's
    after it."""
    values = 2e3 + rng_for(4, 0).permutation(3 * n_bits).astype(float)
    values[n_bits : 2 * n_bits] = 1e3
    values[[5, 80, 300]] = 1e3
    values[[2 * n_bits + 7, 2 * n_bits + 90, 2 * n_bits + 400]] = 1e3
    return values


#: tied samples: every death equal, drift bursts, and a death time tied
#: across blocks
_TIED = {
    "fixed": dict(n_pages=3, lifetime_model=FixedLifetime(1000)),
    "drift": dict(n_pages=3, fault_model="drift"),
    "cross-block": dict(n_pages=1, blocks_per_page=3),
}


class TestTiedPagesStayOnTheBatch:
    """A death tied with the page's own death time no longer sends the
    page back to the scalar scheduler: under ``auto`` every page of a
    covered scheme resolves on the batch, equal to ``scalar``."""

    @pytest.mark.parametrize("sample", sorted(_TIED))
    @pytest.mark.parametrize(
        "spec",
        [aegis_spec(9, 61, 512), safer_spec(64, 512), ecp_spec(6, 512)],
        ids=_IDS,
    )
    def test_auto_equals_scalar_without_a_replay(self, monkeypatch, spec, sample):
        from repro.sim import page_sim

        kwargs = dict(seed=2013, **_TIED[sample])
        if sample == "cross-block":
            kwargs["lifetime_model"] = PreparedLifetime(_cross_block_tie(spec.n_bits))
        scalar = run_page_study(spec, engine="scalar", **kwargs)
        calls = []
        walk = page_sim._simulate_page_scalar

        def spy(*args, **kw):
            calls.append(args[0].key)
            return walk(*args, **kw)

        monkeypatch.setattr(page_sim, "_simulate_page_scalar", spy)
        vector = run_page_study(spec, engine="auto", **kwargs)
        assert calls == []
        assert vector.results == scalar.results

    def test_cross_block_tie_counts_the_earlier_blocks(self):
        """ECP6 dies at its seventh fault: the page recovers block 0's
        three tied deaths and block 1's first six, not block 2's."""
        model = PreparedLifetime(_cross_block_tie(512))
        for engine in ("auto", "scalar"):
            result = simulate_page(
                ecp_spec(6, 512), 3, rng_for(0, 0), lifetime_model=model, engine=engine
            )
            assert (result.lifetime_writes, result.faults_recovered) == (2000.0, 9)


#: write probability 0.5 plus inversion wear 0.5 halves a worn cell's
#: remaining life exactly, so prepared samples can tie worn cells on
#: purpose (base death = endurance / 0.5)
_EXACT_WEAR = 0.5


def _tied_block(kind: str) -> tuple[np.ndarray, tuple[int, int]]:
    """A 512-bit Aegis 9x61 block whose minimum ties at some step, and
    the pair of cells that tie.

    Cell ``a`` dies first (base 100) and wears its slope-0 group, which
    halves its members' remaining life: a member of endurance 150 (base
    300) moves to 200.  ``base-base`` ties two untouched cells at the
    first death; ``base-accel`` ties an untouched cell of base 200 with a
    worn member in a higher column, ``accel-base`` in a lower one (where a
    plain ``argmin`` picks the wrong cell); ``accel-accel`` ties two worn
    members.  Every other cell lives far longer, at a distinct endurance.
    The pair comes in the defined order: the base cell before the worn
    one, equal classes by cell index.
    """
    spec = aegis_spec(9, 61, 512)
    values = 1e4 + 7.0 * rng_for(3, 0).permutation(512)
    a = 40
    group = [int(m) for m in spec.make_checker(None).group_members(a) if m != a]
    outside = [c for c in range(512) if c not in group and c != a]
    if kind == "base-base":
        pair = (outside[0], outside[300])
        values[list(pair)] = 50.0
        return values, pair
    values[a] = 50.0
    if kind == "accel-accel":
        pair = (group[0], group[-1])
        values[list(pair)] = 150.0
        return values, pair
    member = group[len(group) // 2]
    base = next(c for c in outside if (c < member) == (kind == "base-accel"))
    values[member] = 150.0
    values[base] = 100.0
    return values, (base, member)


class TestRunnerUpTies:
    """The stepping loop finds a tied minimum by hiding each row's
    ``argmin`` cell and taking the minimum again; the tied rows pick like
    the scalar scheduler: a base cell before a worn one, then by
    column."""

    @staticmethod
    def _batch_order(monkeypatch, spec, model, blocks=1):
        """Each block's logged ``(time, flat cell, accelerated)`` deaths,
        in the order the batch feeds them to its checker, and the page."""
        logs = []
        dynamics = kernels.block_dynamics

        def spy(*args, **kwargs):
            logs.append(dynamics(*args, **kwargs))
            return logs[-1]

        monkeypatch.setattr(kernels, "block_dynamics", spy)
        result = simulate_page(
            spec,
            blocks,
            rng_for(0, 0),
            lifetime_model=model,
            inversion_wear_rate=_EXACT_WEAR,
            engine="auto",
        )
        monkeypatch.undo()
        (log,) = logs
        page_cells = blocks * spec.n_bits
        order = [
            [
                (float(time), int(tie % page_cells), bool(tie >= page_cells))
                for time, tie in zip(times, ties)
                if np.isfinite(time)
            ]
            for times, ties in zip(log.event_times, log.event_ties)
        ]
        return order, result

    @staticmethod
    def _scalar_walk(spec, model, blocks=1):
        """The scalar scheduler's ``(time, flat cell)`` deaths, and the page."""
        events = []
        result = simulate_page(
            spec,
            blocks,
            rng_for(0, 0),
            lifetime_model=model,
            inversion_wear_rate=_EXACT_WEAR,
            observer=events.append,
        )
        walked = [(e.time, e.block * spec.n_bits + e.offset) for e in events]
        return walked, result

    @pytest.mark.parametrize(
        "kind", ["base-base", "base-accel", "accel-base", "accel-accel"]
    )
    def test_tied_minimum_follows_the_scalar_order(self, monkeypatch, kind):
        spec = aegis_spec(9, 61, 512)
        values, pair = _tied_block(kind)
        model = PreparedLifetime(values)
        expected, scalar = self._scalar_walk(spec, model)
        # the pair dies at one time, one right after the other
        times = {offset: time for time, offset in expected}
        assert times[pair[0]] == times[pair[1]]
        offsets = [offset for _, offset in expected]
        assert offsets.index(pair[0]) + 1 == offsets.index(pair[1])
        (order,), vector = self._batch_order(monkeypatch, spec, model)
        assert [(time, cell) for time, cell, _ in order] == expected
        assert vector == scalar

    def test_multi_block_page_follows_the_defined_order(self, monkeypatch):
        """Block 1 ties a base cell with a worn cell in a lower column, and
        block 2 ties two base cells: in the rows of one page, the base cell
        comes first, then the lower column, as on the scalar walk."""
        spec = aegis_spec(9, 61, 512)
        quiet = 1e4 + 7.0 * rng_for(6, 0).permutation(512)
        accel_base, (base, member) = _tied_block("accel-base")
        base_base, pair = _tied_block("base-base")
        model = PreparedLifetime(np.concatenate([quiet, accel_base, base_base]))
        walked, scalar = self._scalar_walk(spec, model, blocks=3)
        cells = [cell for _, cell in walked]
        assert base > member
        assert cells.index(512 + base) + 1 == cells.index(512 + member)
        assert cells.index(1024 + pair[0]) + 1 == cells.index(1024 + pair[1])
        order, vector = self._batch_order(monkeypatch, spec, model, blocks=3)
        assert (200.0, 512 + base, False) in order[1]
        assert order[1].index((200.0, 512 + base, False)) + 1 == order[1].index(
            (200.0, 512 + member, True)
        )
        lifetime = scalar.lifetime_writes
        for block, row in enumerate(order):
            assert [(time, cell) for time, cell, _ in row if time < lifetime] == [
                (time, cell) for time, cell in walked
                if cell // 512 == block and time < lifetime
            ]
        assert vector == scalar


class TestCompaction:
    @pytest.mark.parametrize(
        "spec",
        [
            aegis_spec(9, 61, 512),
            safer_spec(64, 512),
            safer_spec(32, 512, policy="exhaustive"),
            ecp_spec(6, 512),
        ],
        ids=_IDS,
    )
    def test_compacted_checker_tracks_full_checker(self, spec):
        """Dropping retired rows mid-run must not disturb the survivors."""
        trials, n_bits = 8, spec.n_bits
        positions = np.stack(
            [rng_for(99, t).permutation(n_bits) for t in range(trials)]
        )
        full = batch_checker_for(spec, trials)
        compacted = batch_checker_for(spec, trials)
        active = np.ones(trials, dtype=bool)
        keep = np.array([True, False, True, True, False, True, True, False])
        for step in range(12):
            column = np.ascontiguousarray(positions[:, step])
            alive_full = full.add_faults(column, active)
            if step < 5:
                alive_part = compacted.add_faults(column, active)
                assert alive_part.tolist() == alive_full.tolist()
            else:
                alive_part = compacted.add_faults(column[keep], active[keep])
                assert alive_part.tolist() == alive_full[keep].tolist()
            if step == 4:
                compacted.compact(keep)
                assert compacted.n_trials == int(keep.sum())


class TestBurstCollapse:
    def test_bursty_spans_take_their_minimum(self):
        values = np.array([5.0, 3.0, 9.0, 4.0, 8.0, 1.0, 7.0])
        # spans of 3: [5 3 9] [4 8 1] [7] (the last one short)
        out = burst_collapse(values, 3, np.array([True, False, True]))
        assert out.tolist() == [3.0, 3.0, 3.0, 4.0, 8.0, 1.0, 7.0]

    def test_input_is_not_modified(self):
        values = np.array([2.0, 1.0, 4.0, 3.0])
        out = burst_collapse(values, 2, np.array([True, True]))
        assert out.tolist() == [1.0, 1.0, 3.0, 3.0]
        assert values.tolist() == [2.0, 1.0, 4.0, 3.0]

    def test_no_bursty_span_is_identity(self):
        values = np.arange(10, dtype=np.float64)[::-1]
        out = burst_collapse(values, 4, np.zeros(3, dtype=bool))
        assert out.tolist() == values.tolist()


class TestMaskPartialDeaths:
    def test_each_block_masks_its_earliest_partial_cells(self):
        # two 4-cell blocks, budget 1 per block
        base_death = np.array([9.0, 2.0, 5.0, 1.0, 3.0, 8.0, 4.0, 6.0])
        flags = np.array([True, False, True, False, False, True, True, True])
        masked = mask_partial_deaths(base_death, flags, 4, 1)
        # block 0: partial cells 0 (t=9) and 2 (t=5) -> cell 2
        # block 1: partial cells 5 (t=8), 6 (t=4), 7 (t=6) -> cell 6
        assert np.flatnonzero(masked).tolist() == [2, 6]

    def test_ties_break_by_cell_index(self):
        base_death = np.array([4.0, 4.0, 4.0, 1.0])
        flags = np.array([False, True, True, True])
        masked = mask_partial_deaths(base_death, flags, 4, 2)
        assert np.flatnonzero(masked).tolist() == [1, 3]

    def test_zero_budget_or_no_flags_masks_nothing(self):
        base_death = np.arange(8, dtype=np.float64)
        assert not mask_partial_deaths(base_death, np.ones(8, dtype=bool), 4, 0).any()
        assert not mask_partial_deaths(base_death, np.zeros(8, dtype=bool), 4, 3).any()
