"""The asyncio front-end: wire protocol, QoS queueing, and read-your-writes
through the bulk queue (see ``repro/cluster/frontend.py``).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterFrontend,
    ClusterService,
    LoopbackClient,
    TenantSpec,
    decode_payload,
    encode_payload,
    loopback_selftest,
)
from repro.cluster.qos import QoSClass
from repro.errors import ConfigurationError
from repro.pcm.lifetime import FixedLifetime
from repro.sim.roster import aegis_spec

BITS = 64


def make_cluster(**kwargs) -> ClusterService:
    kwargs.setdefault("lifetime_model", FixedLifetime(10**9))
    cluster = ClusterService(
        2,
        aegis_spec(5, 13, BITS),
        n_addresses=32,
        spares=2,
        buffer_capacity=4,
        seed=7,
        **kwargs,
    )
    cluster.register_tenant(TenantSpec("vip", QoSClass.INTERACTIVE, 1))
    cluster.register_tenant(TenantSpec("batch", QoSClass.BULK, 1))
    return cluster


def bits_of(fill: int) -> np.ndarray:
    bits = np.zeros(BITS, dtype=np.uint8)
    bits[: fill % (BITS + 1)] = 1
    return bits


async def with_frontend(test, **cluster_kwargs):
    """Run ``test(frontend, cluster)`` with a started frontend, always
    stopping it."""
    cluster = make_cluster(**cluster_kwargs)
    frontend = ClusterFrontend(cluster, maintenance_interval=0.01)
    await frontend.start()
    try:
        await test(frontend, cluster)
    finally:
        await frontend.stop()


class TestPayloadCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, BITS, dtype=np.uint8)
        assert np.array_equal(decode_payload(encode_payload(bits), BITS), bits)

    def test_length_validated(self):
        with pytest.raises(ConfigurationError):
            decode_payload("ff", BITS)


class TestProtocol:
    def test_hello_write_read_stats_quit(self):
        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            hello = await client.hello("vip")
            assert hello["ok"] and hello["qos"] == "interactive"
            assert hello["block_bits"] == BITS

            payload = bits_of(17)
            response = await client.write(3, payload)
            assert response["ok"] and response["status"] == "serviced"
            read = await client.read(3)
            assert read["ok"] and read["payload"] == encode_payload(payload)

            stats = await client.stats()
            assert stats["ok"]
            assert stats["tenants"]["vip"]["writes"] == 1
            assert len(stats["arrays"]) == 2

            bye = await client.quit()
            assert bye.get("bye")
            await client.close()

        asyncio.run(with_frontend(scenario))

    def test_commands_require_hello(self):
        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            response = await client.write(0, bits_of(1))
            assert not response["ok"] and response["error"] == "no_tenant"
            await client.close()

        asyncio.run(with_frontend(scenario))

    def test_unknown_tenant_and_command_are_typed(self):
        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            hello = await client.hello("ghost")
            assert not hello["ok"] and hello["error"] == "unknown_tenant"
            await client.hello("vip")
            response = await client.request(cmd="frobnicate")
            assert not response["ok"] and response["error"] == "unknown_cmd"
            await client.close()

        asyncio.run(with_frontend(scenario))


#: lines that are not valid requests (sent after a hello), with the typed
#: error each must get: well-formed JSON that is not a request, and a
#: line that is not UTF-8
MALFORMED = [
    (b"[1,2]", "bad_request"),
    (b"null", "bad_request"),
    (b'{"cmd":"hello","tenant":[1]}', "bad_request"),
    (b'{"cmd":"read","tenant":[1],"address":0}', "bad_request"),
    (b'{"cmd":"write","tenant":[1],"address":0,"payload":"0000000000000000"}', "bad_request"),
    (b'{"cmd":"read","address":1e400}', "bad_request"),
    (b'{"cmd":"write","address":1e400,"payload":"0000000000000000"}', "bad_request"),
    (b'{"cmd":"watch","count":1e400}', "bad_request"),
    (b'{"cmd":"\xff"}', "bad_json"),
]


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "frame, error",
        MALFORMED,
        ids=[frame.decode(errors="backslashreplace") for frame, _ in MALFORMED],
    )
    def test_answered_with_a_typed_error_and_session_kept(self, frame, error):
        async def scenario(frontend, cluster):
            reader, writer = await asyncio.open_connection(
                frontend.host, frontend.port
            )

            async def send(line: bytes) -> dict:
                writer.write(line + b"\n")
                await writer.drain()
                response = await reader.readline()
                assert response, "server closed the session"
                return json.loads(response)

            assert (await send(b'{"cmd":"hello","tenant":"vip"}'))["ok"]
            response = await send(frame)
            assert not response["ok"] and response["error"] == error
            stats = await send(b'{"cmd":"stats"}')
            assert stats["ok"]
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_frontend(scenario, series_bucket=4))


class TestBulkQueueing:
    def test_queued_write_is_readable_before_it_drains(self):
        """A bulk write that lands in the queue must still satisfy
        read-your-writes (pending forwarding) and eventually be applied."""

        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            await client.hello("batch")
            queued = []
            written = {}
            for address in range(24):
                payload = bits_of(address + 1)
                response = await client.write(address, payload)
                assert response["ok"], response
                written[address] = payload
                if response["status"] == "queued":
                    queued.append(address)
                    # read-your-writes holds whether the drainer has
                    # already applied the queued write or not
                    read = await client.read(address)
                    assert read["ok"], read
                    assert read["payload"] == encode_payload(payload)
            assert queued, "the bulk watermark never queued anything"
            await frontend.join_queues()
            for address, payload in written.items():
                read = await client.read(address)
                assert read["ok"], read
                assert read["payload"] == encode_payload(payload)
            await client.close()

        asyncio.run(with_frontend(scenario))

    def test_drain_error_on_full_cluster_is_counted(self):
        """Two new-key bulk writes are queued while one free address is
        left; the second finds the cluster full when it drains, and that
        acknowledged-then-lost write must be counted, not swallowed."""
        cluster = ClusterService(
            1,
            aegis_spec(5, 13, BITS),
            n_addresses=4,
            spares=2,
            buffer_capacity=4,
            seed=7,
            lifetime_model=FixedLifetime(10**9),
        )
        cluster.register_tenant(TenantSpec("vip", QoSClass.INTERACTIVE, 1))
        cluster.register_tenant(TenantSpec("batch", QoSClass.BULK, 1))
        for address in range(3):  # three keys placed, buffer at the watermark
            cluster.write("vip", address, bits_of(address + 1))
        assert cluster.nodes[0].occupancy >= cluster.bulk_watermark

        async def scenario():
            frontend = ClusterFrontend(cluster, maintenance_interval=60.0)
            await frontend.start()
            try:
                for address in (0, 1):
                    response = await frontend._handle_write(
                        {"address": address, "payload": encode_payload(bits_of(9))},
                        "batch",
                    )
                    assert response["status"] == "queued", response
                await frontend.join_queues()
            finally:
                await frontend.stop()

        asyncio.run(scenario())
        telemetry = cluster.telemetry
        assert telemetry.metrics.counter_value(
            "frontend_drain_errors_total", error="ClusterCapacityError"
        ) == 1
        errors = [e for e in telemetry.events if e["event"] == "drain_error"]
        assert [(e["tenant"], e["address"]) for e in errors] == [("batch", 1)]

    @staticmethod
    def _watermarked_cluster() -> ClusterService:
        """One array whose write buffer sits at the bulk watermark."""
        cluster = ClusterService(
            1,
            aegis_spec(5, 13, BITS),
            n_addresses=8,
            spares=2,
            buffer_capacity=4,
            seed=7,
            lifetime_model=FixedLifetime(10**9),
        )
        cluster.register_tenant(TenantSpec("vip", QoSClass.INTERACTIVE, 1))
        cluster.register_tenant(TenantSpec("batch", QoSClass.BULK, 1))
        for address in range(3):
            cluster.write("vip", address, bits_of(address + 1))
        return cluster

    def test_rewrite_of_a_queued_key_lands_after_it(self):
        """A queued bulk write followed by a write to the same key that
        admission would now accept inline: the newer payload must still
        win once the queue drains."""
        cluster = self._watermarked_cluster()
        older, newer = bits_of(9), bits_of(20)

        async def scenario():
            frontend = ClusterFrontend(cluster, maintenance_interval=60.0)
            await frontend.start()
            try:
                first = await frontend._handle_write(
                    {"address": 5, "payload": encode_payload(older)}, "batch"
                )
                assert first["status"] == "queued", first
                # the watermark clears, so admission alone would service
                # the rewrite inline, ahead of the queued older payload
                cluster.nodes[0].controller.flush()
                second = await frontend._handle_write(
                    {"address": 5, "payload": encode_payload(newer)}, "batch"
                )
                assert second["status"] == "queued", second
                await frontend.join_queues()
                return await frontend._handle_read({"address": 5}, "batch")
            finally:
                await frontend.stop()

        read = asyncio.run(scenario())
        assert read["ok"], read
        assert read["payload"] == encode_payload(newer)

    def test_concurrent_rewrites_of_one_key_land_in_order(self):
        """Two connections write one key while the lock is held; the first
        is queued, the watermark then clears, and the second reaches the
        lock: it must see the pending write and queue behind it."""
        cluster = self._watermarked_cluster()
        older, newer = bits_of(9), bits_of(20)

        async def scenario():
            frontend = ClusterFrontend(cluster, maintenance_interval=60.0)
            await frontend.start()
            try:

                async def flush():
                    async with frontend._lock:
                        cluster.nodes[0].controller.flush()

                await frontend._lock.acquire()
                # lock waiters queue in FIFO order: first, flush, second
                first = asyncio.create_task(
                    frontend._handle_write(
                        {"address": 5, "payload": encode_payload(older)}, "batch"
                    )
                )
                await asyncio.sleep(0)
                flusher = asyncio.create_task(flush())
                await asyncio.sleep(0)
                second = asyncio.create_task(
                    frontend._handle_write(
                        {"address": 5, "payload": encode_payload(newer)}, "batch"
                    )
                )
                await asyncio.sleep(0)
                frontend._lock.release()
                responses = await asyncio.wait_for(
                    asyncio.gather(first, flusher, second), timeout=10
                )
                await asyncio.wait_for(frontend.join_queues(), timeout=10)
                read = await frontend._handle_read({"address": 5}, "batch")
                return responses, read
            finally:
                await frontend.stop()

        (first, _, second), read = asyncio.run(scenario())
        assert first["status"] == "queued", first
        assert second["status"] == "queued", second
        assert read["ok"], read
        assert read["payload"] == encode_payload(newer)

    def test_rewrite_of_a_queued_key_meets_a_full_queue(self):
        cluster = self._watermarked_cluster()

        async def scenario():
            frontend = ClusterFrontend(
                cluster, maintenance_interval=60.0, bulk_queue_depth=1
            )
            await frontend.start()
            try:
                first = await frontend._handle_write(
                    {"address": 5, "payload": encode_payload(bits_of(9))}, "batch"
                )
                assert first["status"] == "queued", first
                cluster.nodes[0].controller.flush()
                return await frontend._handle_write(
                    {"address": 5, "payload": encode_payload(bits_of(20))}, "batch"
                )
            finally:
                await frontend.stop()

        response = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"] == "backpressure"
        assert response["array"] == cluster.nodes[0].name

    def test_loopback_selftest_is_clean(self):
        cluster = make_cluster()
        summary = asyncio.run(loopback_selftest(cluster, ops_per_tenant=12))
        assert summary["mismatches"] == 0
        assert summary["writes"] > 0
        assert summary["reads"] > 0
