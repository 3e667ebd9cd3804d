"""Tests for the service layer: write buffer, spare pool, telemetry,
health machine, memory array, controller pipeline, and the load generator's
cross-worker determinism contract."""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, RetiredBlockError
from repro.obs.metrics import Histogram
from repro.pcm.block import ProtectedBlock
from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys
from repro.pcm.lifetime import (
    CorrelatedLifetime,
    FixedLifetime,
    NormalLifetime,
    WearSkewLifetime,
)
from repro.pcm.workload import ZipfWorkload
from repro.pcm.writebuffer import WriteBuffer
from repro.remap.pool import SparePool
from repro.schemes.base import WriteReceipt
from repro.schemes.ideal import NoProtectionScheme
from repro.service import (
    BlockHealth,
    HealthTracker,
    MemoryArray,
    ServiceController,
    ServiceTelemetry,
    build_workload,
    run_load,
)
from repro.sim.rng import rng_for
from repro.sim.roster import aegis_spec, ecp_spec


def ones(n_bits=32):
    return np.ones(n_bits, dtype=np.uint8)


def patterned(rng, n_bits=32):
    return rng.integers(0, 2, n_bits, dtype=np.uint8)


class TestWriteBuffer:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WriteBuffer(0)

    def test_coalesce_keeps_first_enqueue_order(self):
        buffer = WriteBuffer(8)
        assert buffer.put(3, ones()) is False
        buffer.put(5, ones())
        assert buffer.put(3, np.zeros(32, dtype=np.uint8)) is True  # coalesces
        addresses, payloads = buffer.drain()
        assert addresses.tolist() == [3, 5]  # CAM update, not re-enqueue
        assert payloads[0].sum() == 0  # last payload wins
        assert buffer.coalesced == 1 and buffer.enqueued == 3

    def test_store_to_load_forwarding_is_a_read_only_view(self):
        buffer = WriteBuffer(4)
        payload = ones()
        buffer.put(7, payload)
        got = buffer.lookup(7)
        assert np.array_equal(got, payload)
        assert not got.flags.writeable  # forwarded without a copy, but frozen
        with pytest.raises(ValueError):
            got[0] = 0
        assert buffer.lookup(7)[0] == 1
        assert buffer.lookup(9) is None
        assert buffer.read_hits == 2

    def test_payload_is_copied_on_put(self):
        buffer = WriteBuffer(4)
        payload = ones()
        buffer.put(1, payload)
        payload[0] = 0
        assert buffer.lookup(1)[0] == 1

    def test_drained_payloads_do_not_alias_the_store(self):
        buffer = WriteBuffer(4)
        buffer.put(2, ones())
        _, payloads = buffer.drain()
        buffer.put(9, np.zeros(32, dtype=np.uint8))  # reuses the columnar row
        assert payloads[0].sum() == 32

    def test_full_signals_at_capacity(self):
        buffer = WriteBuffer(2)
        buffer.put(0, ones())
        assert not buffer.full
        buffer.put(1, ones())
        assert buffer.full
        buffer.put(0, ones())  # coalescing does not overflow
        assert len(buffer) == 2
        buffer.drain()
        assert not buffer.full and len(buffer) == 0
        assert buffer.drains == 1
        addresses, payloads = buffer.drain()  # empty drain is free
        assert addresses.size == 0 and payloads.shape == (0, 32)
        assert buffer.drains == 1


class TestSparePool:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SparePool(0)
        with pytest.raises(ConfigurationError):
            SparePool(4, free=[9])

    def test_allocates_until_exhausted(self, rng):
        from repro.pcm.wear import PerfectWearLeveling

        pool = SparePool(3)
        policy = PerfectWearLeveling()
        got = {pool.allocate(i, policy, rng) for i in range(3)}
        assert got == {0, 1, 2}
        assert pool.remaining == 0
        assert pool.allocate(3, policy, rng) is None  # exhaustion, not an error
        assert pool.allocations == 3

    def test_remaining_tracks_the_free_mask(self, rng):
        from repro.pcm.wear import PerfectWearLeveling

        pool = SparePool(6, free=[1, 2, 4, 4, 5])
        policy = PerfectWearLeveling()
        assert pool.remaining == pool._free.sum() == 4
        while pool.allocate(0, policy, rng) is not None:
            assert pool.remaining == pool._free.sum()
        assert pool.remaining == pool._free.sum() == 0
        assert pool.allocations == 4

    def test_policy_sees_a_read_only_mask(self, rng):
        from repro.pcm.wear import PerfectWearLeveling

        class Greedy(PerfectWearLeveling):
            def place(self, logical, alive, rng):
                alive[:] = False  # claims every block for itself
                return 0

        pool = SparePool(4)
        with pytest.raises(ValueError):
            pool.allocate(0, Greedy(), rng)
        assert pool._free.all() and pool.remaining == 4 and pool.allocations == 0
        assert pool.allocate(0, PerfectWearLeveling(), rng) == 0
        assert pool.remaining == 3


class TestHistogram:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Histogram(())
        with pytest.raises(ConfigurationError):
            Histogram((3, 1))

    def test_observe_and_overflow(self):
        hist = Histogram((10, 20))
        for value in (5, 15, 999):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]  # last is the overflow bucket
        assert hist.total == 3
        assert hist.mean == pytest.approx((5 + 15 + 999) / 3)

    def test_quantile_is_bucket_upper_bound(self):
        hist = Histogram((10, 20, 40))
        for value in (1, 2, 3, 15, 35):
            hist.observe(value)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 40.0
        assert Histogram((10,)).quantile(0.5) == 0.0

    def test_merge_requires_same_edges(self):
        a, b = Histogram((10, 20)), Histogram((10, 20))
        a.observe(5)
        b.observe(25)
        a.merge(b)
        assert a.counts == [1, 0, 1] and a.total == 2
        with pytest.raises(ConfigurationError):
            a.merge(Histogram((1, 2)))

    def test_quantile_in_overflow_bucket_is_unbounded(self):
        # regression: the old implementation clamped the index into the
        # edges and reported the *last finite edge* for tail quantiles,
        # silently under-stating any distribution with overflow mass
        hist = Histogram((10, 20, 40))
        for value in (5, 100, 200, 300):
            hist.observe(value)
        assert math.isinf(hist.quantile(0.5))
        assert math.isinf(hist.quantile(1.0))
        assert hist.quantile_label(0.75) == ">40"
        assert hist.quantile(0.25) == 10.0

    def test_quantile_zero_rank_clamped_to_first_observation(self):
        hist = Histogram((10, 20, 40))
        hist.observe(15)
        assert hist.quantile(0.0) == 20.0


class TestServiceTelemetry:
    def test_receipt_lands_in_histograms_and_counters(self):
        telemetry = ServiceTelemetry()
        receipt = WriteReceipt(
            cell_writes=40, verification_reads=2, repartitions=1, inversion_writes=1
        )
        telemetry.record_receipt(receipt)
        assert telemetry.metrics.counter_value("cell_writes_total") == 40
        assert telemetry.service_cost.total == 1
        assert telemetry.latency.mean == pytest.approx(5.0)  # 1 + 2 + 1 + 1

    def test_merge_is_order_insensitive_for_snapshot_counts(self):
        def shard(n):
            t = ServiceTelemetry()
            t.metrics.inc("writes", n)
            t.service_cost.observe(10 * n)
            t.emit("remap", op=n)
            return t

        forward, backward = ServiceTelemetry(), ServiceTelemetry()
        forward.merge(shard(1), shard=0)
        forward.merge(shard(2), shard=1)
        backward.merge(shard(2), shard=1)
        backward.merge(shard(1), shard=0)
        fwd, bwd = forward.snapshot(), backward.snapshot()
        assert fwd["counters"] == bwd["counters"]
        assert fwd["service_cost"] == bwd["service_cost"]
        assert fwd["events_logged"] == bwd["events_logged"] == 2
        assert forward.events[0]["shard"] == 0  # merge tags event provenance

    def test_snapshot_has_no_wallclock(self):
        telemetry = ServiceTelemetry()
        telemetry.metrics.inc("writes")
        flat = json.dumps(telemetry.snapshot())
        assert "time" not in flat and "elapsed" not in flat

    def test_write_jsonl(self, tmp_path):
        telemetry = ServiceTelemetry()
        telemetry.emit("retire", op=3, block=1)
        path = tmp_path / "events.jsonl"
        assert telemetry.write_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"event": "retire", "op": 3, "block": 1}
        assert lines[1]["event"] == "final_snapshot"

    def test_event_ring_caps_memory(self):
        # regression: the event log used to grow without bound; it is now
        # a ring that drops the oldest events and counts the drops
        telemetry = ServiceTelemetry(event_cap=3)
        for op in range(10):
            telemetry.emit("tick", op=op)
        assert len(telemetry.events) == 3
        assert [event["op"] for event in telemetry.events] == [7, 8, 9]
        assert telemetry.events_dropped == 7
        assert telemetry.snapshot()["events_dropped"] == 7

    def test_event_ring_cap_respected_across_merge(self):
        merged = ServiceTelemetry(event_cap=4)
        for shard in range(2):
            t = ServiceTelemetry(event_cap=4)
            for op in range(3):
                t.emit("tick", op=op)
            merged.merge(t, shard=shard)
        assert len(merged.events) == 4
        assert merged.events_dropped == 2


class TestHealthTracker:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HealthTracker(0, 1)
        with pytest.raises(ConfigurationError):
            HealthTracker(1, 0)

    def test_transitions_are_monotonic(self):
        telemetry = ServiceTelemetry()
        tracker = HealthTracker(3, 3, telemetry=telemetry)
        assert tracker.observe_faults(0, 2) is BlockHealth.HEALTHY
        assert tracker.observe_faults(0, 3) is BlockHealth.DEGRADED
        tracker.retire(0)
        assert tracker.observe_faults(0, 0) is BlockHealth.RETIRED  # never heals
        tracker.retire(0)  # idempotent
        assert tracker.observe_faults(1, 5) is BlockHealth.DEGRADED
        assert telemetry.metrics.flat_counters() == {"blocks_degraded": 2, "blocks_retired": 1}
        assert tracker.summary() == {"healthy": 1, "degraded": 1, "retired": 1}


class LongLife(FixedLifetime):
    """Cells that never wear out: failures come only from injected faults."""

    def __init__(self):
        super().__init__(10**9)


def small_array(n_addresses=3, spares=2, **kwargs):
    return MemoryArray(
        n_addresses,
        32,
        NoProtectionScheme,
        spares=spares,
        lifetime_model=LongLife(),
        rng=np.random.default_rng(11),
        **kwargs,
    )


def kill_block(array, physical):
    """Inject a stuck-at-0 fault, so writing all-ones must fail."""
    array.blocks[physical].cells.inject_fault(0, stuck_value=0)


class TestMemoryArray:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_array(n_addresses=0)
        with pytest.raises(ConfigurationError):
            small_array(spares=-1)
        for bits in (0, -1):
            with pytest.raises(ConfigurationError):
                MemoryArray(2, bits, NoProtectionScheme)
        with pytest.raises(ConfigurationError):
            small_array().read(99)

    def test_read_after_write(self, rng):
        array = small_array()
        payload = patterned(rng)
        array.write(0, payload)
        assert np.array_equal(array.read(0), payload)

    def test_unwritten_address_reads_zeros(self):
        array = small_array()
        assert array.read(2).sum() == 0
        assert array.physical_of(2) is None

    def test_remap_survives_block_failure(self, rng):
        array = small_array()
        array.write(0, patterned(rng))
        before = array.physical_of(0)
        kill_block(array, before)
        receipt = array.write(0, ones())  # stuck-at-0 vs all-ones: must remap
        after = array.physical_of(0)
        assert after != before
        assert np.array_equal(array.read(0), ones())
        assert array.health.state_of(before) is BlockHealth.RETIRED
        assert array.telemetry.metrics.counter_value("remaps") == 1
        assert receipt.cell_writes > 0  # replay accounted on the merged receipt

    def test_pool_exhaustion_kills_only_that_address(self, rng):
        array = small_array(n_addresses=2, spares=1)  # 3 physical blocks
        array.write(0, ones())
        array.write(1, patterned(rng))
        for _ in range(2):  # burn the free block, then the pool is dry
            kill_block(array, array.physical_of(0))
            try:
                array.write(0, ones())
            except RetiredBlockError as err:
                # full placement context for cluster routing decisions
                assert err.address == 0
                assert err.array == array.name
                assert err.block is not None
                assert err.scheme == array.scheme_name
                break
        else:
            pytest.fail("spare exhaustion never surfaced")
        assert array.is_dead(0)
        with pytest.raises(RetiredBlockError) as excinfo:
            array.read(0)
        assert excinfo.value.address == 0
        assert excinfo.value.array == array.name
        assert excinfo.value.block is None  # already dead: no new block failed
        assert excinfo.value.scheme == array.scheme_name
        with pytest.raises(RetiredBlockError):
            array.write(0, ones())
        # the neighbour address keeps serving
        assert array.read(1) is not None
        array.write(1, ones())
        summary = array.capacity_summary()
        assert summary["dead_addresses"] == 1
        assert summary["live_addresses"] == 1
        assert summary["capacity_fraction"] == 0.5
        assert summary["free_blocks"] == 0

    def test_migrate_moves_data_and_spends_a_spare(self, rng):
        array = small_array(n_addresses=1, spares=1)
        payload = patterned(rng)
        array.write(0, payload)
        old = array.physical_of(0)
        assert array.migrate(0) is True
        assert array.physical_of(0) != old
        assert np.array_equal(array.read(0), payload)
        assert array.health.state_of(old) is BlockHealth.RETIRED
        assert array.migrate(0) is False  # pool dry: refuses, keeps data
        assert np.array_equal(array.read(0), payload)

    def test_degrade_threshold_from_hard_ftc(self):
        array = MemoryArray(
            2, 512, aegis_spec(9, 61, 512).make_controller,
            lifetime_model=LongLife(), rng=np.random.default_rng(5),
        )
        hard_ftc = array.blocks[0].scheme.hard_ftc
        assert array.health.degrade_threshold == hard_ftc - 1

    def test_fail_cache_records_discovered_faults(self, rng):
        from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys

        cache = DirectMappedFailCache(64, key_of=SequentialBlockKeys())
        array = small_array(fail_cache=cache)
        array.write(0, np.zeros(32, dtype=np.uint8))
        physical = array.physical_of(0)
        array.blocks[physical].cells.inject_fault(3, stuck_value=0)
        array.write(0, np.zeros(32, dtype=np.uint8))  # survives, fault recorded
        assert array.known_faults(0) == {3: 0}


#: a block's per-cell arrays, by ``BlockStore`` matrix name
CELL_FIELDS = {
    "stored": "_stored",
    "stuck": "_stuck",
    "stuck_value": "_stuck_value",
    "partial": "_partial",
    "write_counts": "_write_counts",
}


def _block_arrays(block):
    arrays = {name: getattr(block.cells, field) for name, field in CELL_FIELDS.items()}
    arrays["endurance"] = block.endurance
    return arrays


def _assert_blocks_on_store_rows(array):
    for physical, block in enumerate(array.blocks):
        for name, values in _block_arrays(block).items():
            row = getattr(array.store, name)[physical]
            assert np.shares_memory(values, row), (physical, name)


class TestBlockStorage:
    """Every block keeps its cell state in its ``BlockStore`` rows, so the
    store's matrices are the only copy."""

    def _array(self):
        spec = aegis_spec(9, 61, 512)
        return MemoryArray(
            4,
            spec.n_bits,
            spec.make_controller,
            spares=3,
            lifetime_model=LongLife(),
            rng=np.random.default_rng(3),
            scheme_key=spec.key,
        )

    def test_blocks_and_spares_live_on_store_rows(self):
        array = self._array()
        assert len(array.blocks) == array.store.stored.shape[0] == 7
        _assert_blocks_on_store_rows(array)

    def test_rows_survive_remap_and_scheme_switch(self, rng):
        array = self._array()
        array.write(0, ones(512))
        before = array.physical_of(0)
        for offset in range(0, 512, 3):  # mixed stuck values, far past any FTC
            array.blocks[before].cells.inject_fault(offset, stuck_value=offset % 2)
        array.write(0, ones(512))
        assert array.physical_of(0) != before
        _assert_blocks_on_store_rows(array)
        assert array.switch_scheme(0, ecp_spec(6, 512).make_controller, "ecp6")
        _assert_blocks_on_store_rows(array)
        physical = array.physical_of(0)
        array.blocks[physical].cells.inject_fault(5, stuck_value=1)
        assert array.store.stuck[physical, 5] and array.store.stuck_value[physical, 5] == 1

    def test_standalone_block_owns_private_arrays(self):
        spec = aegis_spec(9, 61, 512)
        blocks = [
            ProtectedBlock(512, spec.make_controller, rng=np.random.default_rng(seed))
            for seed in (1, 2)
        ]
        first, second = (list(_block_arrays(block).values()) for block in blocks)
        for values in first:
            assert values.base is None
            assert not any(np.shares_memory(values, other) for other in second)


#: seeded arrays whose cell state and telemetry are pinned: every fault
#: model, and the lifetime models whose draws differ in shape (clustered
#: factors, a positional hot set) from the default Normal
DIGEST_CASES = {
    "hard-normal": ("hard", NormalLifetime(mean_lifetime=25.0)),
    "partial-normal": ("partial", NormalLifetime(mean_lifetime=25.0)),
    "drift-normal": ("drift", NormalLifetime(mean_lifetime=25.0)),
    "hard-correlated": ("hard", CorrelatedLifetime(mean_lifetime=25.0, cluster_size=32)),
    "hard-wearskew": (
        "hard",
        WearSkewLifetime(NormalLifetime(mean_lifetime=25.0), hot_fraction=0.1, hot_rate=4.0),
    ),
}

#: sha256 prefixes of the store matrices (stored, stuck, stuck value,
#: write counts, endurance), the blocks' partial masks and the telemetry
#: snapshot, right after construction and after the zipf stream
STORE_DIGESTS = {
    "drift-normal": {"built": "343236b3b60ba525", "streamed": "657ecc21fa659861"},
    "hard-correlated": {"built": "f86609c658f347f5", "streamed": "65d5de7604f3e083"},
    "hard-normal": {"built": "46d4d5514c334c68", "streamed": "0dcd14ec8976a43b"},
    "hard-wearskew": {"built": "00025f32f3c28d60", "streamed": "7f1d08d29b0ec767"},
    "partial-normal": {"built": "511266d9b7377bcd", "streamed": "5af86db73eb38d3f"},
}


def _digest_array(case, engine="auto"):
    fault_model, lifetime = DIGEST_CASES[case]
    spec = aegis_spec(9, 61, 512)
    return MemoryArray(
        32,
        spec.n_bits,
        spec.make_controller,
        spares=6,
        lifetime_model=lifetime,
        fail_cache=DirectMappedFailCache(64, key_of=SequentialBlockKeys()),
        rng=rng_for(2013, 0, 91),
        engine=engine,
        fault_model=fault_model,
        scheme_key=spec.key,
    )


def _state_digest(array):
    store = array.store
    digest = hashlib.sha256()
    for matrix in (
        store.stored,
        store.stuck,
        store.stuck_value,
        store.write_counts,
        store.endurance,
    ):
        digest.update(np.ascontiguousarray(matrix).tobytes())
    digest.update(np.stack([block.cells._partial for block in array.blocks]).tobytes())
    snapshot = json.dumps(array.telemetry.snapshot(), sort_keys=True, default=str)
    digest.update(snapshot.encode())
    return digest.hexdigest()[:16]


def _stream(array, ops=500):
    """A seeded zipf stream, about one read per three writes."""
    controller = ServiceController(array, buffer_capacity=8)
    rng = rng_for(2013, 1, 92)
    workload = ZipfWorkload(alpha=0.8)
    for _ in range(ops):
        address = workload.next_logical_page(array.n_addresses, rng)
        is_read = rng.random() < 0.25
        payload = rng.integers(0, 2, array.block_bits, dtype=np.uint8)
        if array.is_dead(address):
            continue
        if is_read:
            controller.read(address)
        else:
            controller.write(address, payload)
    controller.close()


class TestStoreDigests:
    """Array construction and serving are pinned to recorded digests, so
    a change to how blocks get their storage cannot move an RNG draw, a
    stuck value or a counter."""

    @pytest.mark.parametrize("case", sorted(DIGEST_CASES))
    def test_built_array_matches_recorded_digest(self, case):
        assert _state_digest(_digest_array(case)) == STORE_DIGESTS[case]["built"]

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    @pytest.mark.parametrize("case", sorted(DIGEST_CASES))
    def test_streamed_array_matches_recorded_digest(self, case, engine):
        array = _digest_array(case, engine)
        _stream(array)
        assert array.telemetry.metrics.counter_value("remaps") > 0
        assert _state_digest(array) == STORE_DIGESTS[case]["streamed"]


class TestServiceController:
    def test_buffered_write_forwards_to_reads(self, rng):
        array = small_array()
        controller = ServiceController(array, buffer_capacity=4)
        payload = patterned(rng)
        controller.write(0, payload)
        assert np.array_equal(controller.read(0), payload)  # forwarded
        assert controller.telemetry.metrics.counter_value("buffer_read_hits") == 1
        # still pending
        assert "writes_serviced" not in controller.telemetry.metrics.flat_counters()
        controller.close()
        assert controller.telemetry.metrics.counter_value("writes_serviced") == 1
        assert np.array_equal(array.read(0), payload)

    def test_coalescing_reduces_serviced_writes(self):
        array = small_array()
        controller = ServiceController(array, buffer_capacity=8)
        for _ in range(5):
            controller.write(1, ones())
        controller.close()
        counters = controller.telemetry.metrics.flat_counters()
        assert counters["write_requests"] == 5
        assert counters["writes_serviced"] == 1

    def test_full_buffer_drains_automatically(self, rng):
        array = small_array(n_addresses=3, spares=0)
        controller = ServiceController(array, buffer_capacity=2)
        controller.write(0, patterned(rng))
        controller.write(1, patterned(rng))  # hits capacity -> drain
        assert controller.telemetry.metrics.counter_value("writes_serviced") == 2
        assert len(controller.buffer) == 0

    def test_lost_write_absorbed_unless_strict(self, rng):
        array = small_array(n_addresses=2, spares=1)  # 3 physical blocks
        array.write(1, patterned(rng))
        array.write(0, ones())
        for _ in range(array.pool.remaining + 2):  # drive address 0 to death
            if array.is_dead(0):
                break
            kill_block(array, array.physical_of(0))
            try:
                array.write(0, ones())
            except RetiredBlockError:
                break
        assert array.is_dead(0)
        controller = ServiceController(array, buffer_capacity=4)
        controller.write(0, ones())
        controller.write(1, ones())
        controller.close()  # dead address must not stall the drain
        counters = controller.telemetry.metrics.flat_counters()
        assert counters["writes_lost"] == 1
        assert np.array_equal(array.read(1), ones())
        strict = ServiceController(array, buffer_capacity=4, strict=True)
        strict.write(0, ones())
        with pytest.raises(RetiredBlockError):
            strict.close()


class TestLoadGenerator:
    def test_build_workload_validates(self):
        with pytest.raises(ConfigurationError):
            build_workload("nope")
        assert build_workload("zipf", {"alpha": 2.0}).alpha == 2.0

    def test_run_load_validates(self):
        spec = ecp_spec(2, 64)
        with pytest.raises(ConfigurationError):
            run_load(spec, ops=0)
        with pytest.raises(ConfigurationError):
            run_load(spec, ops=10, shards=0)
        with pytest.raises(ConfigurationError):
            run_load(spec, ops=10, read_fraction=1.5)

    def test_snapshot_invariant_across_worker_counts(self):
        spec = ecp_spec(2, 64)
        snapshots = [
            run_load(
                spec,
                ops=1500,
                seed=7,
                shards=2,
                workers=workers,
                n_addresses=12,
                spares=4,
                lifetime_model=NormalLifetime(mean_lifetime=25.0),
                snapshot_interval=250,
            ).snapshot
            for workers in (1, 2)
        ]
        assert snapshots[0] == snapshots[1]
        counters = snapshots[0]["counters"]
        assert counters.get("integrity_failures", 0) == 0
        assert counters["integrity_checked"] > 0
        assert counters["remaps"] > 0  # the degradation path actually ran
        assert snapshots[0]["capacity"]["total_addresses"] == 24

    def test_uneven_ops_split_is_worker_independent(self):
        report = run_load(
            ecp_spec(2, 64),
            ops=101,
            shards=3,
            workers=1,
            n_addresses=8,
            spares=2,
            lifetime_model=LongLife(),
        )
        assert sum(s["ops"] for s in report.per_shard) == 101
        assert report.snapshot["config"]["ops"] == 101
        assert report.ops_per_second > 0

    def test_telemetry_jsonl_export(self, tmp_path):
        report = run_load(
            ecp_spec(2, 64),
            ops=50,
            shards=1,
            workers=1,
            n_addresses=8,
            spares=2,
            lifetime_model=LongLife(),
            snapshot_interval=20,
        )
        path = tmp_path / "telemetry.jsonl"
        lines = report.telemetry.write_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == lines
        assert records[-1]["event"] == "final_snapshot"
        assert any(r["event"] == "health_snapshot" for r in records)


class TestWiring:
    def test_experiment_registered(self):
        from repro.experiments import all_experiment_ids

        assert "ext-service" in all_experiment_ids()

    def test_top_level_exports(self):
        import repro

        for name in (
            "MemoryArray",
            "ServiceController",
            "ServiceTelemetry",
            "RetiredBlockError",
            "WriteBuffer",
            "BlockHealth",
        ):
            assert hasattr(repro, name)

    def test_cli_serve_bench_smoke(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "snap.json"
        jsonl_path = tmp_path / "events.jsonl"
        rc = main(
            [
                "serve-bench",
                "--ops", "300",
                "--shards", "1",
                "--addresses", "8",
                "--spares", "2",
                "--endurance", "80",
                "--workers", "1",
                "--seed", "3",
                "--json", str(json_path),
                "--telemetry-jsonl", str(jsonl_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "read-after-write integrity: ok" in out
        snapshot = json.loads(json_path.read_text())
        assert snapshot["counters"].get("integrity_failures", 0) == 0
        assert jsonl_path.exists()
