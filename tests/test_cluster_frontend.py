"""The asyncio front-end: wire protocol, QoS queueing, and read-your-writes
through the bulk queue (see ``repro/cluster/frontend.py``).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterFrontend,
    ClusterService,
    LoopbackClient,
    TenantSpec,
    decode_payload,
    encode_payload,
    loopback_selftest,
)
from repro.cluster.frontend import MAX_LINE_BYTES
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
    (b'{"cmd":"read","address":3.7}', "bad_request"),
    (b'{"cmd":"read","address":"3"}', "bad_request"),
    (b'{"cmd":"read","address":true}', "bad_request"),
    (b'{"cmd":"read","address":-1}', "bad_request"),
    (b'{"cmd":"write","address":3.7,"payload":"0000000000000000"}', "bad_request"),
    (b'{"cmd":"write","address":-1,"payload":"0000000000000000"}', "bad_request"),
    (b'{"cmd":"watch","count":2.5}', "bad_request"),
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

    @pytest.mark.parametrize(
        "size, error",
        [
            (MAX_LINE_BYTES, "bad_json"),
            (MAX_LINE_BYTES + 1, "bad_request"),
            (5 * MAX_LINE_BYTES, "bad_request"),
        ],
    )
    def test_line_limit(self, size, error):
        """A line over the limit is discarded through its newline and
        refused; one at the limit is parsed.  Both keep the session."""

        async def scenario(frontend, cluster):
            reader, writer = await asyncio.open_connection(frontend.host, frontend.port)
            line = b"x" * size + b"\n"
            for start in range(0, len(line), 4096):
                writer.write(line[start:start + 4096])
                await writer.drain()
            writer.write(b'{"cmd":"stats"}\n')
            response = json.loads(await reader.readline())
            assert not response["ok"] and response["error"] == error
            assert json.loads(await reader.readline())["ok"]
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_frontend(scenario))

    def test_final_line_without_newline_is_answered(self):
        async def scenario(frontend, cluster):
            reader, writer = await asyncio.open_connection(frontend.host, frontend.port)
            writer.write(b'{"cmd":"stats"}\n{"cmd":"hello","tenant":"vip"}')
            writer.write_eof()
            lines = (await reader.read()).splitlines()
            assert [json.loads(line)["ok"] for line in lines] == [True, True]
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_frontend(scenario))


class TestWatch:
    def test_streams_its_frames_before_the_next_pipelined_answer(self):
        async def scenario(frontend, cluster):
            reader, writer = await asyncio.open_connection(frontend.host, frontend.port)
            writer.write(b'{"cmd":"watch","count":3}\n{"cmd":"stats"}\n')
            lines = [json.loads(await reader.readline()) for _ in range(4)]
            frames, stats = lines[:3], lines[3]
            assert all(frame["ok"] for frame in frames)
            assert [frame["remaining"] for frame in frames] == [2, 1, 0]
            assert stats["ok"] and "tenants" in stats
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_frontend(scenario, series_bucket=4))

    def test_without_series_is_refused(self):
        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            frames = await client.watch(3)
            assert len(frames) == 1
            assert not frames[0]["ok"] and frames[0]["error"] == "no_series"
            assert (await client.stats())["ok"]
            await client.close()

        asyncio.run(with_frontend(scenario))


#: every error a fuzzed line may get (anything else fails the property)
FUZZ_ERRORS = {"bad_json", "bad_request", "no_tenant", "unknown_cmd", "rejected"}


def _fuzz_lines():
    """One request line: valid hello/write/read/stats, or a malformed one."""
    addresses = st.integers(0, 40)
    payloads = st.binary(min_size=BITS // 8, max_size=BITS // 8).map(bytes.hex)

    def frame(**fields) -> bytes:
        return json.dumps(fields).encode()

    valid = st.one_of(
        st.just(frame(cmd="hello", tenant="vip")),
        st.builds(lambda a, p: frame(cmd="write", address=a, payload=p), addresses, payloads),
        st.builds(lambda a: frame(cmd="read", address=a), addresses),
        st.just(frame(cmd="stats")),
    )
    odd_addresses = st.one_of(
        st.integers(2**63, 2**80),
        st.integers(max_value=-1),
        st.floats(allow_nan=False),
        st.booleans(),
        st.text(max_size=4),
        st.none(),
    )
    bad_payloads = st.one_of(
        st.binary(max_size=2 * BITS // 8).filter(lambda raw: len(raw) != BITS // 8).map(bytes.hex),
        st.text(max_size=20),
    )
    malformed = st.one_of(
        st.binary(max_size=40).filter(lambda raw: b"\n" not in raw),
        st.sampled_from([b"[1,2]", b"null", b"7", b'"read"', b"{}"]),
        st.builds(lambda p: frame(cmd="write", address=1, payload=p), bad_payloads),
        st.builds(lambda a: frame(cmd="read", address=a), odd_addresses),
        st.builds(lambda a, p: frame(cmd="write", address=a, payload=p), odd_addresses, payloads),
    )
    return st.one_of(valid, malformed)


async def _fuzz_exchange(chunks: list[bytes], lockstep: bool) -> list[bytes]:
    """Send ``chunks`` to a fresh frontend, one write each (in lockstep,
    reading one response line after each), then half-close and collect
    every response line until the server closes."""
    frontend = ClusterFrontend(make_cluster(), maintenance_interval=60.0)
    await frontend.start()
    responses = []
    try:
        reader, writer = await asyncio.open_connection(frontend.host, frontend.port)
        try:
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                if lockstep:
                    responses.append(await asyncio.wait_for(reader.readline(), 10))
                await asyncio.sleep(0)
            writer.write_eof()
            rest = await asyncio.wait_for(reader.read(), 10)
            responses += rest.splitlines(keepends=True)
        finally:
            writer.close()
    finally:
        await frontend.stop()
    return responses


class TestProtocolFuzz:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_fuzz_lines(), min_size=1, max_size=24), st.data())
    def test_every_line_gets_one_typed_answer_however_it_is_split(self, lines, data):
        """Pipelined at random byte offsets, every line (one of them over
        the length limit) gets exactly one response, in order, that is
        either ``ok`` or a known error -- and the same responses a fresh
        frontend gives the lines one at a time."""
        oversize = b'{"cmd":"stats","pad":"' + b"a" * MAX_LINE_BYTES + b'"}'
        lines = list(lines)
        lines.insert(data.draw(st.integers(0, len(lines)), label="oversize at"), oversize)
        stream = b"".join(line + b"\n" for line in lines)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(1, len(stream) - 1), max_size=8, unique=True),
                label="cuts",
            )
        )
        chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]

        split = asyncio.run(_fuzz_exchange(chunks, lockstep=False))
        assert len(split) == len(lines)
        for raw in split:
            assert raw.endswith(b"\n")
            response = json.loads(raw)
            assert response["ok"] is True or response["error"] in FUZZ_ERRORS, response
        oversize_answer = json.loads(split[lines.index(oversize)])
        assert oversize_answer["error"] == "bad_request"
        one_by_one = [line + b"\n" for line in lines]
        assert split == asyncio.run(_fuzz_exchange(one_by_one, lockstep=True))


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
                    response = frontend._handle_write(
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
                first = frontend._handle_write(
                    {"address": 5, "payload": encode_payload(older)}, "batch"
                )
                assert first["status"] == "queued", first
                # the watermark clears, so admission alone would service
                # the rewrite inline, ahead of the queued older payload
                cluster.nodes[0].controller.flush()
                second = frontend._handle_write(
                    {"address": 5, "payload": encode_payload(newer)}, "batch"
                )
                assert second["status"] == "queued", second
                await frontend.join_queues()
                return frontend._handle_read({"address": 5}, "batch")
            finally:
                await frontend.stop()

        read = asyncio.run(scenario())
        assert read["ok"], read
        assert read["payload"] == encode_payload(newer)

    def test_concurrent_rewrites_of_one_key_land_in_order(self):
        """Two connections rewrite one key in the same event-loop turn
        (both packets are sent before the loop next polls, which reports
        the sockets in arrival order).  The first write is queued behind
        the watermark; the second connection then clears the watermark
        with an interactive write (the buffer fills and flushes) and
        rewrites the key, which admission alone would service inline.
        The rewrite must find the pending write and queue behind it."""
        cluster = self._watermarked_cluster()
        older, newer = bits_of(9), bits_of(20)

        def line(**fields) -> bytes:
            return (json.dumps(fields) + "\n").encode()

        async def scenario():
            frontend = ClusterFrontend(cluster, maintenance_interval=60.0)
            await frontend.start()
            connections = []
            try:
                for _ in range(2):
                    reader, writer = await asyncio.open_connection(
                        frontend.host, frontend.port
                    )
                    connections.append((reader, writer))
                    writer.write(line(cmd="hello", tenant="batch"))
                    assert json.loads(await reader.readline())["ok"]
                (first, first_writer), (second, second_writer) = connections
                first_writer.write(line(cmd="write", address=5, payload=encode_payload(older)))
                second_writer.write(
                    line(cmd="write", tenant="vip", address=6, payload=encode_payload(bits_of(3)))
                    + line(cmd="write", address=5, payload=encode_payload(newer))
                )
                queued = json.loads(await first.readline())
                flushing = json.loads(await second.readline())
                rewrite = json.loads(await second.readline())
                await asyncio.wait_for(frontend.join_queues(), timeout=10)
                first_writer.write(line(cmd="read", address=5))
                return queued, flushing, rewrite, json.loads(await first.readline())
            finally:
                for _, writer in connections:
                    writer.close()
                await frontend.stop()

        queued, flushing, rewrite, read = asyncio.run(scenario())
        assert queued["status"] == "queued", queued
        assert flushing["status"] == "serviced", flushing
        assert rewrite["status"] == "queued", rewrite
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
                first = frontend._handle_write(
                    {"address": 5, "payload": encode_payload(bits_of(9))}, "batch"
                )
                assert first["status"] == "queued", first
                cluster.nodes[0].controller.flush()
                return frontend._handle_write(
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
