"""``cluster-tcp``: two loopback sessions on a ``ClusterFrontend``.

A front-end over a 3-array ``ClusterService`` runs inside the benchmark
process.  One interactive and one bulk tenant from ``default_tenants(2)``
each drive one JSON-lines session in a closed loop (the protocol answers
one line per request).  The interactive session mostly reads and sends
one request at a time.  The bulk session mostly writes and sends a window
of requests (seven writes, then a read of the last key written) before it
waits for their answers: within a window the front-end does not yield to
its drainers, so writes to a watermarked array fill the small bulk queue
and the rest are refused, and the window's read is forwarded from a
still-queued write.  The interactive session sends twice as many
requests, so overall traffic is read-heavy, the opposite of ``serve``.

The bulk session writes its keys in a cycle, so a key is never rewritten
while an earlier write to it still waits in a bulk queue: the front-end
forwards a queued payload to readers and applies it after any later
inline write to the same key, so rewriting a queued key would read stale
data (a front-end limitation this workload does not exercise).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.frontend import ClusterFrontend, encode_payload
from repro.cluster.qos import default_tenants
from repro.cluster.service import ClusterService
from repro.pcm.lifetime import NormalLifetime
from repro.sim import roster
from repro.sim.rng import rng_for

from perfbench.harness import Outcome, Stopwatch
from perfbench.stats import latency_summaries, summary, throughput

BLOCK_BITS = 512
ARRAYS = 3
ADDRESSES_PER_ARRAY = 256
SPARES = 16
MEAN_ENDURANCE = 400.0
INTERACTIVE_KEYS = 128
BULK_KEYS = 256
INTERACTIVE_READ_FRACTION = 0.9
#: bulk requests sent before the session waits for their answers
BULK_WINDOW = 8
#: queued bulk writes per array; small enough that a window's writes to
#: one watermarked array overflow it
BULK_QUEUE_DEPTH = 2
PAYLOAD_POOL = 512
#: requests per episode: (interactive, bulk)
OPS = {"full": (6_000, 3_000), "tiny": (320, 160)}
THROUGHPUT = "tcp_ops_per_s"


@dataclass(frozen=True)
class Session:
    """One tenant's pre-encoded request stream and its key expectations."""

    tenant: str
    keys: int
    #: requests sent before waiting for their answers
    window: int
    #: (request line, address, payload hex for writes or None for reads)
    requests: list[tuple[bytes, int, str | None]]
    #: payload hex every key holds after set-up
    touched: list[str]


@dataclass(frozen=True)
class Inputs:
    seed: int
    sessions: tuple[Session, Session]
    touch_bits: dict[tuple[str, int], np.ndarray]


def _request(address: int, payload: str | None) -> bytes:
    if payload is None:
        return (json.dumps({"cmd": "read", "address": address}) + "\n").encode()
    return (json.dumps({"cmd": "write", "address": address, "payload": payload}) + "\n").encode()


def make_inputs(seed: int, scale: str) -> Inputs:
    rng = rng_for(seed, 0, 67)
    bits = rng.integers(0, 2, (PAYLOAD_POOL, BLOCK_BITS), dtype=np.uint8)
    hexes = [encode_payload(row) for row in bits]
    interactive, bulk = default_tenants(2)
    touch_bits = {}
    sessions = []
    for spec, keys, ops, window in (
        (interactive, INTERACTIVE_KEYS, OPS[scale][0], 1),
        (bulk, BULK_KEYS, OPS[scale][1], BULK_WINDOW),
    ):
        touched = rng.integers(0, PAYLOAD_POOL, keys)
        for address, index in enumerate(touched):
            touch_bits[(spec.tenant_id, address)] = bits[index]
        requests = []
        written = 0
        for op in range(ops):
            if spec is interactive:
                address = int(rng.integers(0, keys))
                is_read = rng.random() < INTERACTIVE_READ_FRACTION
            else:
                is_read = op % window == window - 1
                address = (written - 1) % keys if is_read else written % keys
            payload = None if is_read else hexes[int(rng.integers(0, PAYLOAD_POOL))]
            if not is_read:
                written += 1
            requests.append((_request(address, payload), address, payload))
        sessions.append(
            Session(spec.tenant_id, keys, window, requests, [hexes[i] for i in touched])
        )
    return Inputs(seed=seed, sessions=tuple(sessions), touch_bits=touch_bits)


def build_cluster(inputs: Inputs) -> ClusterService:
    cluster = ClusterService(
        ARRAYS,
        roster.aegis_spec(9, 61, BLOCK_BITS),
        n_addresses=ADDRESSES_PER_ARRAY,
        spares=SPARES,
        seed=inputs.seed,
        lifetime_model=NormalLifetime(mean_lifetime=MEAN_ENDURANCE),
    )
    for spec in default_tenants(2):
        cluster.register_tenant(spec)
    for (tenant, address), bits in inputs.touch_bits.items():
        cluster.write(tenant, address, bits, admit=False)
    cluster.flush_all()
    return cluster


async def _connect(port: int, tenant: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps({"cmd": "hello", "tenant": tenant}) + "\n").encode())
    await writer.drain()
    hello = json.loads(await reader.readline())
    if not hello.get("ok"):
        raise RuntimeError(f"hello refused: {hello}")
    return reader, writer


async def _drive(session: Session, reader, writer, shadow: list[str], outcome: Outcome,
                 rtt_ns: np.ndarray, offset: int, recorder) -> None:
    """Closed loop: send a window of requests, then wait for and check
    each response line; a request's round trip runs from its window's
    send to its own response."""
    clock = time.perf_counter_ns
    counts = outcome.counts
    requests = session.requests
    for position, (line, address, payload) in enumerate(requests):
        if position % session.window == 0:
            start = clock()
            writer.write(b"".join(line for line, _, _ in
                                  requests[position:position + session.window]))
            await writer.drain()
        raw = await reader.readline()
        rtt_ns[offset + position] = clock() - start
        with recorder.span("client"):
            response = json.loads(raw)
            if not response.get("ok"):
                counts["failed"] += 1
                if response.get("error") == "backpressure":
                    counts["refusals"] += 1
                elif response.get("error") != "retired":
                    outcome.failures.append(f"cluster-tcp: {session.tenant}: {response}")
            elif payload is not None:
                shadow[address] = payload
                if response.get("status") == "queued":
                    counts["queued_writes"] += 1
            else:
                if response.get("source") == "queued":
                    counts["forwarded_reads"] += 1
                if response["payload"] != shadow[address]:
                    outcome.failures.append(
                        f"cluster-tcp: {session.tenant} read {address} returned stale data"
                    )


async def _audit(session: Session, reader, writer, shadow: list[str]) -> list[str]:
    """Read-your-writes after the bulk queues drained: every live key
    holds the last payload this session had acknowledged."""
    failures = []
    for address in range(session.keys):
        writer.write(_request(address, None))
        await writer.drain()
        response = json.loads(await reader.readline())
        if response.get("ok") and response["payload"] != shadow[address]:
            failures.append(f"cluster-tcp: {session.tenant} key {address} lost its last write")
        elif not response.get("ok") and response.get("error") != "retired":
            failures.append(f"cluster-tcp: {session.tenant} audit read failed: {response}")
    return failures


def _wrap_cluster(cluster: ClusterService, recorder) -> None:
    recorder.wrap(cluster, "write", "cluster.write")
    recorder.wrap(cluster, "read", "cluster.read")
    recorder.wrap(cluster, "maintenance", "cluster.maintenance")
    for node in cluster.nodes:
        recorder.wrap(node.controller, "flush", "cluster.flush")


async def _repeat(inputs: Inputs, recorder) -> Outcome:
    outcome = Outcome()
    outcome.counts = {"failed": 0, "refusals": 0, "queued_writes": 0, "forwarded_reads": 0}
    watch = Stopwatch(recorder)
    cluster = build_cluster(inputs)
    frontend = ClusterFrontend(cluster, bulk_queue_depth=BULK_QUEUE_DEPTH)
    await frontend.start()
    connections = []
    try:
        for session in inputs.sessions:
            connections.append(await _connect(frontend.port, session.tenant))
        outcome.setup_s = watch.split()
        shadows = [list(session.touched) for session in inputs.sessions]
        total = sum(len(session.requests) for session in inputs.sessions)
        rtt_ns = np.empty(total, dtype=np.int64)
        if recorder.enabled:
            _wrap_cluster(cluster, recorder)
        start = time.perf_counter()
        root = recorder.open("episode") if recorder.enabled else None
        offsets = (0, len(inputs.sessions[0].requests))
        await asyncio.gather(*(
            _drive(session, reader, writer, shadow, outcome, rtt_ns, offset, recorder)
            for session, (reader, writer), shadow, offset
            in zip(inputs.sessions, connections, shadows, offsets)
        ))
        if root is not None:
            recorder.close(root)
        outcome.wall_s = time.perf_counter() - start
        outcome.episode_s = watch.split()
        if recorder.enabled:
            recorder.unwrap()
        outcome.work = total
        outcome.latencies["tcp"] = rtt_ns
        await frontend.join_queues()
        for session, (reader, writer), shadow in zip(inputs.sessions, connections, shadows):
            outcome.failures += await _audit(session, reader, writer, shadow)
    finally:
        for _, writer in connections:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
        await frontend.stop()
    return outcome


def repeat(inputs: Inputs, recorder, round_index: int) -> Outcome:
    """One repeat; every round replays the same sessions."""
    return asyncio.run(_repeat(inputs, recorder))


def verify(inputs: Inputs, outcomes: list[Outcome], recorder) -> list[str]:
    return []  # the read-your-writes audits ran inside every repeat


def report(inputs: Inputs, outcomes: list[Outcome]) -> dict[str, dict]:
    return {
        THROUGHPUT: throughput(outcomes, "req/s"),
        **latency_summaries("tcp", [o.latencies["tcp"] for o in outcomes]),
        "tcp_failed_frac": summary([o.counts["failed"] / o.work for o in outcomes], "ratio"),
    }


def layers(inputs: Inputs, outcomes: list[Outcome], totals: dict) -> dict[str, float]:
    repeats = len(outcomes)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for layer in ("write", "read", "maintenance", "flush"):
        entry = totals.get(f"cluster.{layer}", empty)
        out[f"cluster.{layer}.calls"] = entry["calls"] / repeats
        out[f"cluster.{layer}.s"] = entry["s"] / repeats
    wall = sum(o.wall_s for o in outcomes) / repeats
    episode = totals["episode"]
    client_s = totals.get("client", empty)["s"] / repeats
    residual_s = episode["self_s"] / repeats
    out["client.s"] = client_s
    out["frontend.residual_s"] = residual_s
    # cluster calls are the episode's direct children other than the client
    out["cluster.busy_frac"] = (episode["s"] / repeats - client_s - residual_s) / wall
    for name in ("queued_writes", "refusals", "forwarded_reads"):
        out[f"frontend.{name}"] = sum(o.counts[name] for o in outcomes) / repeats
    return out
