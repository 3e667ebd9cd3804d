"""Tests for the vectorized service drain (`repro/service/kernels.py`).

The headline property, mirroring ``tests/test_kernels.py`` one layer up:
``engine="auto"`` is a pure performance knob for the serving path.  For
every covered scheme the batched drain leaves the array, the telemetry
snapshot, and the sampled trace span trees byte-identical to the scalar
per-row pipeline — across seeds, worker counts, and drains where some
rows escalate to repartition/remap mid-batch.  Schemes without a service
kernel fall back to the scalar path transparently.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, RetiredBlockError, UncorrectableError
from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys
from repro.pcm.lifetime import FixedLifetime, NormalLifetime
from repro.service import (
    MemoryArray,
    ServiceController,
    kernel_for,
    run_load,
)
from repro.service.kernels import drain_vector
from repro.sim.kernels import (
    count_rows,
    pack_rows_u64,
    popcount_rows_u64,
    resolve_engine,
)
from repro.sim.rng import rng_for
from repro.sim.roster import (
    aegis_rw_spec,
    aegis_spec,
    ecp_spec,
    hamming_spec,
    no_protection_spec,
    rdis_spec,
    safer_cache_spec,
    safer_spec,
)

#: every service-kernel family: XOR-mask (Aegis, SAFER) and pointer
#: replacement (ECP)
KERNEL_SPECS = [
    aegis_spec(9, 61, 512),
    aegis_spec(17, 31, 512),
    ecp_spec(6, 512),
    safer_spec(64, 512),
]

#: schemes the vector drain does not cover: replayed-history rewrites,
#: stateful caching policies, sampled checkers, and the Hamming and
#: unprotected baselines no service roster serves
FALLBACK_SPECS = [
    aegis_rw_spec(9, 61, 512),
    safer_cache_spec(64, 512),
    rdis_spec(512),
    hamming_spec(512),
    no_protection_spec(512),
]

#: the vector-drain roster for the direct-controller equivalence sweeps
SWEEP_SPECS = [
    aegis_spec(9, 61, 512),
    ecp_spec(6, 512),
    safer_spec(64, 512),
]

#: the ``run_load`` engine/worker sweep: the kernel roster plus Hamming,
#: whose ``auto`` label runs the scalar drain
LOAD_SPECS = SWEEP_SPECS + [hamming_spec(512)]

_IDS = lambda s: s.key  # noqa: E731


def _make_array(spec, *, engine, n_addresses=24, spares=6, lifetime=None):
    rng = rng_for(2013, 0, 77)
    return MemoryArray(
        n_addresses,
        spec.n_bits,
        spec.make_controller,
        spares=spares,
        lifetime_model=lifetime if lifetime is not None else FixedLifetime(10**9),
        fail_cache=DirectMappedFailCache(256, key_of=SequentialBlockKeys()),
        rng=rng,
        engine=engine,
    )


def _store_state(array):
    store = array.store
    return (
        store.stored.copy(),
        store.stuck.copy(),
        store.stuck_value.copy(),
        store.write_counts.copy(),
        array._map.copy(),
        sorted(array._dead),
        array.op_clock,
        array.pool._free.copy(),
        array.wear_leveling._cursor,
    )


def _assert_same_state(scalar_array, vector_array):
    for got, want in zip(_store_state(vector_array), _store_state(scalar_array)):
        if isinstance(got, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want
    assert (
        vector_array.telemetry.metrics.snapshot()
        == scalar_array.telemetry.metrics.snapshot()
    )


class TestRowBitsetHelpers:
    def test_pack_rows_round_trip_popcount(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2, (13, 300), dtype=np.uint8)
        counts = popcount_rows_u64(pack_rows_u64(rows))
        assert counts.tolist() == [int(row.sum()) for row in rows]

    def test_pack_rows_pads_to_word_boundary(self):
        rows = np.ones((3, 9), dtype=np.uint8)
        packed = pack_rows_u64(rows)
        assert packed.dtype == np.uint64
        assert popcount_rows_u64(packed).tolist() == [9, 9, 9]

    def test_pack_rows_rejects_vectors(self):
        with pytest.raises(ConfigurationError):
            pack_rows_u64(np.ones(8, dtype=np.uint8))

    def test_count_rows_on_both_widths(self):
        """Word-aligned widths take the in-place byte popcount, others the
        packed bitsets; both count every row's set cells."""
        rng = np.random.default_rng(3)
        for width in (300, 512):
            mask = rng.random((7, width)) < 0.3
            assert count_rows(mask).tolist() == mask.sum(axis=1).tolist()
        assert count_rows(mask[:, ::2]).tolist() == mask[:, ::2].sum(axis=1).tolist()


class TestEngineResolution:
    def test_invalid_engine_rejected(self):
        spec = aegis_spec(9, 61, 512)
        with pytest.raises(ConfigurationError):
            _make_array(spec, engine="gpu")
        array = _make_array(spec, engine="auto")
        with pytest.raises(ConfigurationError):
            resolve_engine("gpu", array, kernel_for)

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_IDS)
    def test_auto_takes_the_kernel_when_covered(self, spec):
        array = _make_array(spec, engine="auto")
        assert kernel_for(array) is not None
        assert resolve_engine("auto", array, kernel_for) == "vector"
        assert resolve_engine("scalar", array, kernel_for) == "scalar"
        assert ServiceController(array).engine == "vector"

    @pytest.mark.parametrize("spec", FALLBACK_SPECS, ids=_IDS)
    def test_uncovered_schemes_fall_back_to_scalar(self, spec):
        array = _make_array(spec, engine="auto")
        assert kernel_for(array) is None
        assert resolve_engine("auto", array, kernel_for) == "scalar"
        assert ServiceController(array).engine == "scalar"

    def test_kernel_is_memoised_per_array(self):
        array = _make_array(aegis_spec(9, 61, 512), engine="auto")
        assert kernel_for(array) is kernel_for(array)

    def test_controller_inherits_the_array_engine(self):
        array = _make_array(aegis_spec(9, 61, 512), engine="scalar")
        assert ServiceController(array).engine == "scalar"


def _drive(spec, engine, *, lifetime, ops=900, buffer_capacity=16, **kwargs):
    """Drive one controller with a deterministic write/read mix; returns
    the array after close() so callers can compare full state."""
    array = _make_array(spec, engine=engine, lifetime=lifetime)
    controller = ServiceController(
        array, buffer_capacity=buffer_capacity, **kwargs
    )
    rng = rng_for(2013, 1, 78)
    for _ in range(ops):
        address = int(rng.integers(0, 24))
        if array.is_dead(address):
            continue
        if rng.random() < 0.2:
            controller.read(address)
        else:
            controller.write(
                address, rng.integers(0, 2, spec.n_bits, dtype=np.uint8)
            )
    controller.close()
    return array


class TestDrainEquivalence:
    """Direct-controller sweeps: batch and scalar drains leave identical
    array matrices, map, dead set, op clock, and metrics."""

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_IDS)
    def test_healthy_traffic_is_bit_identical(self, spec):
        lifetime = FixedLifetime(10**9)
        scalar = _drive(spec, "scalar", lifetime=lifetime)
        vector = _drive(spec, "auto", lifetime=lifetime)
        assert ServiceController(vector).engine == "vector"
        _assert_same_state(scalar, vector)

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_IDS)
    @pytest.mark.parametrize("proactive", [False, True])
    def test_mid_batch_escalations_are_bit_identical(self, spec, proactive):
        # endurance low enough that drains mix fast rows with wear-out,
        # repartition walks, migrations, and spare remaps mid-batch
        lifetime = NormalLifetime(mean_lifetime=22.0)
        scalar = _drive(
            spec, "scalar", lifetime=lifetime, proactive_migration=proactive
        )
        vector = _drive(
            spec, "auto", lifetime=lifetime, proactive_migration=proactive
        )
        counters = scalar.telemetry.metrics.snapshot()["counters"]
        escalations = (
            counters.get("remaps", 0)
            + counters.get("migrations", 0)
            + counters.get("repartitions_total", 0)
        )
        assert escalations > 0  # escalations actually happened mid-drain
        _assert_same_state(scalar, vector)

    @pytest.mark.parametrize("spec", SWEEP_SPECS[:2], ids=_IDS)
    def test_strict_flush_raises_identically(self, spec):
        def run(engine):
            array = _make_array(
                spec,
                engine=engine,
                spares=0,
                lifetime=FixedLifetime(6),
            )
            controller = ServiceController(
                array, buffer_capacity=4, strict=True
            )
            rng = rng_for(2013, 2, 79)
            with pytest.raises(RetiredBlockError):
                for index in range(4000):
                    controller.write(
                        index % 16,
                        rng.integers(0, 2, spec.n_bits, dtype=np.uint8),
                    )
                controller.close()
            return array

        _assert_same_state(run("scalar"), run("auto"))

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_IDS)
    def test_all_fresh_drain_runs_no_scalar_write(self, spec, monkeypatch):
        """A drain of first touches with room in the pool maps every row
        ahead of the batch: no row runs the scalar ``MemoryArray.write``."""
        calls = {"scalar": 0, "auto": 0}
        arrays = {}
        write = MemoryArray.write
        for engine in calls:

            def spy(array, address, payload, engine=engine):
                calls[engine] += 1
                return write(array, address, payload)

            monkeypatch.setattr(MemoryArray, "write", spy)
            array = _make_array(spec, engine=engine)
            controller = ServiceController(array, buffer_capacity=array.n_addresses)
            rng = np.random.default_rng(3)
            # the last write fills the buffer, which drains all 24 rows
            for address in rng.permutation(array.n_addresses).tolist():
                controller.write(
                    address, rng.integers(0, 2, spec.n_bits, dtype=np.uint8)
                )
            arrays[engine] = array
        assert calls == {"scalar": 24, "auto": 0}
        _assert_same_state(arrays["scalar"], arrays["auto"])
        assert (
            arrays["auto"].telemetry.snapshot()
            == arrays["scalar"].telemetry.snapshot()
        )


#: the two Aegis formations the row-class tests lay faults out on
AEGIS_SPECS = [aegis_spec(9, 61, 512), aegis_spec(17, 31, 512)]

#: row kinds the layout helper knows: "fast" and "two_pass" rows are
#: batched, "random" ones either way, a "first_touch" row (an unmapped
#: address) is batched when it precedes the drain's first blocker and the
#: pool still has a block for it, the rest must escalate — an
#: "uncorrectable" row loses its write when the pool is dry (re-raised
#: under strict), so does a "dead" address, and an "invalid" payload raises
ROW_KINDS = (
    "fast",
    "two_pass",
    "random",
    "right_in_flipped",
    "two_wrong_in_group",
    "uncorrectable",
    "invalid",
    "first_touch",
    "dead",
)

#: row kinds of unmapped addresses, which get no fault layout
UNMAPPED_KINDS = ("first_touch", "dead")


def _twin_controllers(
    spec, *, n_addresses, strict, unmapped=(), dead=(), spares=0, remaps=0
):
    """Scalar and vector controllers over identical arrays with every
    address but the ``unmapped`` ones first-touched, so with no spare a
    remap takes the block of an unmapped address or runs the pool dry.

    ``remaps`` spare remaps of the first touched address take that many
    free blocks first.  ``dead`` (a subset of ``unmapped``) are marked
    lost while blocks are still free — a state a live array reaches only
    with a dry pool, set here so the drain meets a dead address among
    first touches it can map."""
    twins = []
    for engine in ("scalar", "auto"):
        array = _make_array(
            spec, engine=engine, n_addresses=n_addresses, spares=spares
        )
        controller = ServiceController(
            array, buffer_capacity=n_addresses, strict=strict
        )
        touched = [address for address in range(n_addresses) if address not in unmapped]
        for address in touched:
            controller.write(address, np.zeros(spec.n_bits, dtype=np.uint8))
        controller.flush()
        for _ in range(remaps):
            array._remap(touched[0], array.physical_of(touched[0]))
        array._dead.update(dead)
        twins.append(controller)
    return twins


def _layout(rng, scheme, kind, payload):
    """Slope, inversion bits and ``{offset: stuck value}`` faults that make
    ``payload`` a write of the given kind on ``scheme``'s block."""
    partition = scheme.partition
    groups = partition.group_count
    slope = int(rng.integers(groups))
    inverted = np.flatnonzero(rng.random(groups) < 0.2)
    form = payload ^ (
        partition.members_mask(slope, inverted)
        if inverted.size
        else np.zeros_like(payload)
    )
    faults: dict[int, int] = {}

    def stick(offset, wrong):
        faults[int(offset)] = int(form[offset]) ^ int(wrong)

    if kind == "random":
        for offset in rng.choice(payload.size, int(rng.integers(0, 7)), replace=False):
            faults[int(offset)] = int(rng.integers(2))
        return slope, inverted, faults
    if kind == "uncorrectable":
        # more stuck-at-wrong cells than groups: no slope separates them
        for offset in rng.choice(payload.size, groups + 1, replace=False):
            stick(offset, True)
        return slope, inverted, faults
    # under some slopes a group falls entirely on the rectangle cells past
    # the last data bit and has no members: lay faults only into groups
    # with room for two of them
    order = [
        group
        for group in rng.permutation(groups).tolist()
        if partition.members_array(group, slope).size >= 2
    ]
    hit = [] if kind == "fast" else order[: int(rng.integers(1, 4))]
    for group in hit:
        members = rng.permutation(partition.members_array(group, slope))
        stick(members[0], True)
        if kind == "right_in_flipped" and group == hit[0]:
            stick(members[1], False)
        if kind == "two_wrong_in_group" and group == hit[0]:
            stick(members[1], True)
    # stuck-at-right cells in groups the flip leaves alone
    for group in order[len(hit) : len(hit) + int(rng.integers(0, 4))]:
        stick(rng.choice(partition.members_array(group, slope)), False)
    return slope, inverted, faults


def _scalar_class(block, payload):
    """Oracle: run the scalar write on a copy of the block and name the
    row class its receipt implies."""
    trial = copy.deepcopy(block)
    try:
        receipt = trial.scheme.write(payload)
    except (UncorrectableError, ValueError):
        return "escalate"
    if receipt.repartitions or receipt.verification_reads > 2:
        return "escalate"
    return "fast" if receipt.verification_reads == 1 else "two_pass"


def _spy_scalar_rows(controller, addresses):
    """Record, in order, the drain rows ``controller`` services through
    the scalar ``MemoryArray.write``."""
    rows: list[int] = []
    row_of = {int(address): row for row, address in enumerate(addresses)}
    write = controller.array.write

    def spy(address, payload):
        rows.append(row_of[address])
        return write(address, payload)

    controller.array.write = spy
    return rows


def _run_drain(controller, addresses, payloads):
    known = controller._consult_batch(addresses)
    try:
        if controller.engine == "vector":
            total, serviced, lost = drain_vector(controller, addresses, payloads, known)
        else:
            total, serviced, lost = controller._drain_scalar(addresses, payloads, known)
    except (RetiredBlockError, ValueError) as error:
        return type(error).__name__
    return total, serviced, lost


def _scheme_state(array):
    return [
        (
            block.scheme.slope,
            block.scheme.inversion.tobytes(),
            sorted(block.scheme.known_fault_offsets),
            block.scheme.retired,
            block.stats,
            block.writes_serviced,
        )
        for block in array.blocks
    ]


def _assert_twins_agree(scalar, vector):
    _assert_same_state(scalar.array, vector.array)
    assert _scheme_state(vector.array) == _scheme_state(scalar.array)
    assert vector.telemetry.snapshot() == scalar.telemetry.snapshot()
    assert list(vector.telemetry.events) == list(scalar.telemetry.events)
    assert vector.array.health._states == scalar.array.health._states
    cache, want = vector.array.fail_cache, scalar.array.fail_cache
    assert (cache.hits, cache.misses, cache.evictions) == (
        want.hits,
        want.misses,
        want.evictions,
    )
    assert {i: vars(e) for i, e in cache._entries.items()} == {
        i: vars(e) for i, e in want._entries.items()
    }


def _check_drain(spec, kinds, *, seed, strict, spares=0, remaps=0):
    """Lay out one drain of the given row kinds on twin arrays, check the
    vector plan against the scalar oracle, drain both engines and compare
    every piece of state.

    Also checks which first touches the vector drain batches: those ahead
    of the first row that is neither batched nor a first touch, as many
    as the pool has free blocks.  Returns the drain's outcome and the
    rows the vector engine ran through the scalar ``MemoryArray.write``.
    """
    rng = np.random.default_rng(seed)
    payloads = rng.integers(0, 2, (len(kinds), spec.n_bits), dtype=np.uint8)
    addresses = rng.permutation(len(kinds) + 2)[: len(kinds)].astype(np.int64)
    scalar, vector = _twin_controllers(
        spec,
        n_addresses=len(kinds) + 2,
        strict=strict,
        unmapped=[int(a) for a, kind in zip(addresses, kinds) if kind in UNMAPPED_KINDS],
        dead=[int(a) for a, kind in zip(addresses, kinds) if kind == "dead"],
        spares=spares,
        remaps=remaps,
    )
    expected = []
    for row, kind in enumerate(kinds):
        if kind in UNMAPPED_KINDS:
            expected.append(kind)
            continue
        physical = vector.array.physical_of(int(addresses[row]))
        slope, inverted, faults = _layout(
            rng, vector.array.blocks[physical].scheme, kind, payloads[row]
        )
        for controller in (scalar, vector):
            block = controller.array.blocks[physical]
            block.scheme.slope = slope
            block.scheme.inversion[:] = 0
            block.scheme.inversion[inverted] = 1
            for offset, value in faults.items():
                block.cells.inject_fault(offset, stuck_value=value)
        if kind == "invalid":
            payloads[row, int(rng.integers(spec.n_bits))] = 2
        expected.append(
            _scalar_class(vector.array.blocks[physical], payloads[row])
        )
    # invalid payloads and unmapped addresses escalate before the kernel
    # plans, like the drain does
    phys = vector.array._map[addresses]
    plan = kernel_for(vector.array).plan(
        phys, payloads, (payloads <= 1).all(axis=1) & (phys >= 0)
    )
    for row, kind in enumerate(kinds):
        batched = bool(plan.batch[row])
        assert batched == (expected[row] in ("fast", "two_pass")), (kind, expected[row])
        assert (row in plan.two_pass) == (expected[row] == "two_pass"), kind
        if kind in ("fast", "two_pass"):
            assert expected[row] == kind
        if kind in ("right_in_flipped", "two_wrong_in_group", "uncorrectable", "invalid"):
            assert expected[row] == "escalate"
    blocker = next(
        (
            row
            for row, kind in enumerate(expected)
            if kind not in ("fast", "two_pass", "first_touch")
        ),
        len(kinds),
    )
    first_touches = [row for row, kind in enumerate(kinds) if kind == "first_touch"]
    early = [row for row in first_touches if row < blocker][: vector.array.pool.remaining]
    scalar_rows = _spy_scalar_rows(vector, addresses)
    want = _run_drain(scalar, addresses, payloads)
    got = _run_drain(vector, addresses, payloads)
    assert got == want
    _assert_twins_agree(scalar, vector)
    assert not set(early) & set(scalar_rows)
    for row in first_touches:
        if row not in early:
            # scalar, or never reached because an earlier row raised
            assert row in scalar_rows or vector.array._map[addresses[row]] < 0
    return want, scalar_rows


class TestRowClasses:
    """The three row classes of the vector drain — fast, two-pass Aegis,
    escalation — against a scalar oracle, and the drains built from them
    against the scalar engine, field by field."""

    @pytest.mark.parametrize("spec", AEGIS_SPECS, ids=_IDS)
    @pytest.mark.parametrize(
        "kinds",
        [
            ("fast", "two_pass", "fast"),
            ("two_pass", "right_in_flipped", "two_pass"),
            ("two_wrong_in_group", "two_pass", "fast"),
            ("first_touch", "fast", "two_pass", "first_touch"),
        ],
        ids=lambda kinds: "-".join(kinds),
    )
    def test_named_layouts(self, spec, kinds):
        _check_drain(spec, kinds, seed=5, strict=False)

    @pytest.mark.parametrize("spec", AEGIS_SPECS, ids=_IDS)
    def test_strict_drain_runs_the_pool_dry_mid_drain(self, spec):
        outcome, _ = _check_drain(
            spec, ("two_pass", "fast", "uncorrectable", "two_pass", "fast"),
            seed=9, strict=True,
        )
        assert outcome == "RetiredBlockError"

    @pytest.mark.parametrize("spec", AEGIS_SPECS, ids=_IDS)
    def test_invalid_payload_mid_drain(self, spec):
        outcome, _ = _check_drain(
            spec, ("two_pass", "fast", "invalid", "two_pass"), seed=13, strict=False
        )
        assert outcome == "ValueError"

    @pytest.mark.parametrize("spec", AEGIS_SPECS, ids=_IDS)
    def test_first_touch_after_a_remap_stays_scalar(self, spec):
        # three free blocks: the batch maps the first touch ahead of the
        # remap, which takes the second; the first touch after it takes
        # the third on the scalar pipeline, in row order
        kinds = ("first_touch", "fast", "uncorrectable", "first_touch")
        (_, _, lost), scalar_rows = _check_drain(
            spec, kinds, seed=17, strict=False, spares=1
        )
        assert lost == 0
        assert scalar_rows == [2, 3]

    @pytest.mark.parametrize("spec", AEGIS_SPECS, ids=_IDS)
    @pytest.mark.parametrize("strict", [False, True])
    def test_pool_runs_dry_among_first_touches(self, spec, strict):
        # three first touches, two free blocks: the third meets a dry pool
        kinds = ("first_touch", "fast", "first_touch", "first_touch", "two_pass")
        outcome, scalar_rows = _check_drain(
            spec, kinds, seed=19, strict=strict, remaps=1
        )
        assert scalar_rows == [3]
        if strict:
            assert outcome == "RetiredBlockError"
        else:
            assert outcome[2] == 1

    @pytest.mark.parametrize("spec", AEGIS_SPECS, ids=_IDS)
    @pytest.mark.parametrize("strict", [False, True])
    def test_invalid_payload_before_a_first_touch(self, spec, strict):
        outcome, scalar_rows = _check_drain(
            spec, ("first_touch", "fast", "invalid", "first_touch"), seed=23, strict=strict
        )
        assert outcome == "ValueError"
        assert scalar_rows == [2]

    @pytest.mark.parametrize("spec", AEGIS_SPECS, ids=_IDS)
    @pytest.mark.parametrize("strict", [False, True])
    def test_dead_address_among_first_touches(self, spec, strict):
        outcome, scalar_rows = _check_drain(
            spec, ("first_touch", "dead", "first_touch", "fast"), seed=29, strict=strict
        )
        if strict:
            assert outcome == "RetiredBlockError"
            assert scalar_rows == [1]
        else:
            assert outcome[2] == 1
            assert scalar_rows == [1, 2]

    @settings(max_examples=30, deadline=None)
    @given(
        spec_index=st.integers(0, len(AEGIS_SPECS) - 1),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        strict=st.booleans(),
    )
    def test_random_layouts_match_the_scalar_drain(self, spec_index, kinds, seed, strict):
        _check_drain(AEGIS_SPECS[spec_index], tuple(kinds), seed=seed, strict=strict)


class TestLoadGeneratorSweep:
    """Full ``run_load`` equivalence: snapshots and trace JSONL across
    engines, seeds, and the 1/2/4 worker ladder."""

    _reference: dict = {}

    @classmethod
    def _run(cls, spec, seed, engine, workers, tmp_path, name):
        report = run_load(
            spec,
            ops=1200,
            seed=seed,
            shards=2,
            workers=workers,
            n_addresses=24,
            spares=8,
            workload="zipf",
            lifetime_model=NormalLifetime(mean_lifetime=40.0),
            buffer_capacity=8,
            engine=engine,
            trace_sample=7,
        )
        trace_path = tmp_path / f"{name}.jsonl"
        report.telemetry.tracer.write_jsonl(str(trace_path))
        return report.snapshot, trace_path.read_bytes()

    @classmethod
    def _reference_for(cls, spec, seed, tmp_path):
        key = (spec.key, seed)
        if key not in cls._reference:
            cls._reference[key] = cls._run(
                spec, seed, "scalar", 1, tmp_path, "reference"
            )
        return cls._reference[key]

    @pytest.mark.parametrize("spec", LOAD_SPECS, ids=_IDS)
    @pytest.mark.parametrize("seed", [2013, 7])
    def test_vector_serial_matches_scalar(self, spec, seed, tmp_path):
        snapshot, trace = self._reference_for(spec, seed, tmp_path)
        got_snapshot, got_trace = self._run(
            spec, seed, "auto", 1, tmp_path, "auto"
        )
        assert got_snapshot == snapshot
        assert got_trace == trace

    @pytest.mark.parametrize("spec", LOAD_SPECS, ids=_IDS)
    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_fanout_matches_serial_scalar(
        self, spec, engine, workers, tmp_path
    ):
        snapshot, trace = self._reference_for(spec, 2013, tmp_path)
        got_snapshot, got_trace = self._run(
            spec, 2013, engine, workers, tmp_path, f"{engine}-{workers}"
        )
        assert got_snapshot == snapshot
        assert got_trace == trace

    @pytest.mark.parametrize("spec", FALLBACK_SPECS, ids=_IDS)
    def test_fallback_scheme_runs_under_every_engine_label(self, spec, tmp_path):
        snapshot, trace = self._reference_for(spec, 2013, tmp_path)
        got_snapshot, got_trace = self._run(
            spec, 2013, "auto", 1, tmp_path, "fallback"
        )
        assert got_snapshot == snapshot
        assert got_trace == trace
