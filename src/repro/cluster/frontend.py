"""The asyncio front-end: ``repro serve`` and its loopback client.

:class:`ClusterFrontend` multiplexes per-tenant sessions over one
:class:`~repro.cluster.service.ClusterService` behind a JSON-lines TCP
protocol (one request object per line, one response object per line):

``{"cmd": "hello", "tenant": "tenant0"}``
    Bind the session to a registered tenant (its QoS class is echoed).
``{"cmd": "write", "address": 3, "payload": "<hex>"}``
    Payload is the block's bits packed MSB-first (``np.packbits``) and
    hex-encoded.  Interactive writes are serviced inline.  Bulk writes
    that hit the admission watermark are *queued* on a bounded per-array
    ``asyncio.Queue`` (``{"status": "queued"}``) and applied by that
    array's drainer task; when the queue itself is full the client gets
    ``{"ok": false, "error": "backpressure", "retry_after": N}`` and must
    back off — the two-level backpressure the cluster design calls for.
    A write to a key whose older bulk write still waits in a queue is
    queued behind it on that array's queue (or refused with
    ``backpressure`` when the queue is full), never applied ahead of it.
``{"cmd": "read", "address": 3}``
    Read-your-writes: queued-but-unapplied bulk writes are forwarded from
    the pending table, then the cluster (whose write buffers forward
    their own pending entries).
``{"cmd": "stats"}``
    Per-tenant and per-array snapshot sections, the cluster op clock,
    and — when the cluster records time series — the series geometry
    plus a compact per-SLO budget summary.
``{"cmd": "watch", "count": N}``
    Stream ``N`` time-series bucket frames, one JSON line each (the only
    multi-line response in the protocol).  The first frame is the newest
    bucket as of the request; each further frame waits for the
    maintenance loop's next sample (an idle cluster re-samples the same
    bucket, so consecutive frames may repeat it).  Frames carry the bucket
    index, its end clock, and the bucket's non-zero counter deltas and
    gauges.  Requires the cluster to have been built with
    ``series_bucket >= 1`` (``{"error": "no_series"}`` otherwise).
``{"cmd": "quit"}``
    End the session.

Malformed lines are answered, never dropped: a line that is not JSON
gets ``{"ok": false, "error": "bad_json"}``, and well-formed JSON that is
not a valid request (not an object, a non-string ``tenant``, an
``address`` that is not a JSON integer ``>= 0`` or a ``count`` that is
not a JSON integer ``>= 1``) gets ``{"ok": false, "error":
"bad_request"}``, as does a line longer than :data:`MAX_LINE_BYTES`
(discarded through its newline); either way the session stays open.

Each connection is one :class:`asyncio.Protocol` session that answers
every complete line of a socket read in order, synchronously, and sends
that read's responses with one ``transport.write``.  The service core is
synchronous and not thread-safe, and nothing that touches it awaits, so
each request, queued-write drain and maintenance pass (watermark
flushes, spare rebalancing, migration off draining arrays) runs whole
on the event loop; concurrency lives only in *when* the sessions, the
per-array drainers and the maintenance loop get their turns.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import numpy as np

from repro.cluster.service import ClusterService
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ReproError,
    RetiredBlockError,
)

#: queued bulk writes per array before clients see hard backpressure
DEFAULT_BULK_QUEUE_DEPTH = 64

#: seconds between control-plane maintenance passes
DEFAULT_MAINTENANCE_INTERVAL = 0.05

#: longest request line (newline excluded) a session accepts; a session
#: never buffers more than this plus one socket read
MAX_LINE_BYTES = 2**16

#: one encoder for every response (``json.dumps`` builds one per call)
_encode = json.JSONEncoder(sort_keys=True).encode


def encode_payload(bits: np.ndarray) -> str:
    """Hex wire form of a block payload (bits packed MSB-first)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def _bad_request(detail: str) -> dict:
    return {"ok": False, "error": "bad_request", "detail": detail}


#: the answer to a line longer than MAX_LINE_BYTES
_OVERSIZE = _encode(_bad_request(f"request line longer than {MAX_LINE_BYTES} bytes"))


def _integer(request: dict, field: str, least: int, default: object = None) -> int:
    """``request[field]`` if it is a JSON integer ``>= least``."""
    value = request.get(field, default)
    if type(value) is not int or value < least:  # bool and float are not
        raise ValueError(f"{field} must be an integer >= {least}")
    return value


def decode_payload(text: str, block_bits: int) -> np.ndarray:
    """Inverse of :func:`encode_payload`; validates the bit length."""
    try:
        raw = bytes.fromhex(text)
    except ValueError as error:
        raise ConfigurationError(f"payload is not valid hex: {error}") from error
    if len(raw) * 8 < block_bits or len(raw) != (block_bits + 7) // 8:
        raise ConfigurationError(
            f"payload encodes {len(raw) * 8} bits; expected {block_bits}"
        )
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:block_bits]


class ClusterFrontend:
    """Serve one cluster over TCP (see module docstring for the protocol).

    Parameters
    ----------
    cluster:
        The service core; tenants must already be registered.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    bulk_queue_depth:
        Bound of each array's queued-bulk-write queue.
    maintenance_interval:
        Seconds between control-plane passes.
    """

    def __init__(
        self,
        cluster: ClusterService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        bulk_queue_depth: int = DEFAULT_BULK_QUEUE_DEPTH,
        maintenance_interval: float = DEFAULT_MAINTENANCE_INTERVAL,
    ) -> None:
        if bulk_queue_depth < 1:
            raise ConfigurationError("bulk queue depth must be positive")
        if maintenance_interval <= 0:
            raise ConfigurationError("maintenance interval must be positive")
        self.cluster = cluster
        self.host = host
        self._requested_port = port
        self.bulk_queue_depth = bulk_queue_depth
        self.maintenance_interval = maintenance_interval
        #: watch sessions block on this until maintenance samples a bucket
        self._watch_cond = asyncio.Condition()
        self._sample_count = 0
        self._queues: dict[str, asyncio.Queue] = {}
        #: newest queued-but-unapplied bulk write per key, as (array,
        #: payload): read-your-writes, and the queue a rewrite must follow
        self._pending: dict[tuple[str, int], tuple[str, np.ndarray]] = {}
        self._tasks: list[asyncio.Task] = []
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the server and launch the drainer/maintenance tasks."""
        for node in self.cluster.nodes:
            queue: asyncio.Queue = asyncio.Queue(maxsize=self.bulk_queue_depth)
            self._queues[node.name] = queue
            self._tasks.append(
                asyncio.create_task(
                    self._drain_queue(node.name, queue),
                    name=f"drain-{node.name}",
                )
            )
        self._tasks.append(
            asyncio.create_task(self._maintenance_loop(), name="maintenance")
        )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Session(self), self.host, self._requested_port
        )

    async def stop(self) -> None:
        """Cancel background tasks and close the server."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def join_queues(self) -> None:
        """Wait until every queued bulk write has been applied."""
        for queue in self._queues.values():
            await queue.join()

    # -- background tasks ---------------------------------------------------

    async def _drain_queue(self, name: str, queue: asyncio.Queue) -> None:
        """Apply queued bulk writes for one array.  Admission was paid at
        enqueue time (the bounded queue), so the drainer flushes the
        watermarked buffer itself and writes with admission disabled."""
        node = self.cluster.node_named(name)
        while True:
            tenant_id, address, payload = await queue.get()
            try:
                if node.occupancy >= self.cluster.bulk_watermark:
                    node.controller.flush()
                try:
                    self.cluster.write(tenant_id, address, payload, admit=False)
                finally:
                    key = (tenant_id, address)
                    pending = self._pending.get(key)
                    if pending is not None and pending[1] is payload:
                        del self._pending[key]
            except ReproError as error:
                # the write was acknowledged as queued, so its loss must be
                # counted; the drainer keeps draining for every other key
                telemetry = self.cluster.telemetry
                kind = type(error).__name__
                telemetry.metrics.inc("frontend_drain_errors_total", error=kind)
                telemetry.emit(
                    "drain_error",
                    op=self.cluster.clock,
                    array=name,
                    tenant=tenant_id,
                    address=address,
                    error=kind,
                )
            finally:
                queue.task_done()

    async def _maintenance_loop(self) -> None:
        while True:
            await asyncio.sleep(self.maintenance_interval)
            self.cluster.maintenance()
            recorder = self.cluster.telemetry.timeseries
            samples = recorder.samples if recorder is not None else 0
            if samples != self._sample_count:
                async with self._watch_cond:
                    self._sample_count = samples
                    self._watch_cond.notify_all()

    # -- protocol -----------------------------------------------------------

    def _dispatch(
        self, request: object, tenant_id: str | None
    ) -> tuple[dict, str | None]:
        if not isinstance(request, dict):
            return _bad_request("a request must be a JSON object"), tenant_id
        if not isinstance(request.get("tenant", ""), str):
            return _bad_request("tenant must be a string"), tenant_id
        cmd = request.get("cmd")
        if cmd == "hello":
            requested = request.get("tenant", "")
            try:
                spec = self.cluster.tenant(requested)
            except ConfigurationError as error:
                return {"ok": False, "error": "unknown_tenant", "detail": str(error)}, tenant_id
            return (
                {
                    "ok": True,
                    "tenant": spec.tenant_id,
                    "qos": spec.qos.value,
                    "block_bits": self.cluster.block_bits,
                },
                spec.tenant_id,
            )
        if cmd == "quit":
            return {"ok": True, "bye": True}, tenant_id
        if cmd == "stats":
            response = {
                "ok": True,
                "tenants": self.cluster.tenant_summary(),
                "arrays": self.cluster.array_summary(),
                "keys": self.cluster.key_count,
                "clock": self.cluster.clock,
            }
            recorder = self.cluster.telemetry.timeseries
            if recorder is not None:
                response["series"] = {
                    "bucket_width": recorder.bucket_width,
                    "buckets": recorder.bucket_count,
                    "start_bucket": recorder.start_bucket,
                    "samples": recorder.samples,
                    "buckets_dropped": recorder.dropped,
                }
            summary = self.cluster.slo_summary()
            if summary is not None:
                response["slo"] = {
                    name: {
                        "budget_left_fraction": entry["budget_left_fraction"],
                        "violating_buckets": entry["violating_buckets"],
                        "alerts": len(entry["alerts"]),
                        "action": entry["action"],
                    }
                    for name, entry in summary["slos"].items()
                }
            return response, tenant_id
        session_tenant = request.get("tenant", tenant_id)
        if session_tenant is None:
            return {"ok": False, "error": "no_tenant", "detail": "send hello first"}, tenant_id
        if cmd == "write":
            return self._handle_write(request, session_tenant), tenant_id
        if cmd == "read":
            return self._handle_read(request, session_tenant), tenant_id
        return {"ok": False, "error": "unknown_cmd", "detail": repr(cmd)}, tenant_id

    def _refuse_watch(self, request: dict) -> dict | None:
        """The error answer to a ``watch`` that cannot stream, else None."""
        if self.cluster.telemetry.timeseries is None:
            return {
                "ok": False,
                "error": "no_series",
                "detail": "cluster records no time series (series_bucket=0)",
            }
        try:
            _integer(request, "count", 1, default=1)
        except ValueError as error:
            return _bad_request(str(error))
        return None

    async def _watch_frames(self, count: int):
        """Yield ``count`` bucket frames (see module docstring).

        The first frame reflects the newest bucket immediately; every
        further frame waits on the maintenance loop's sample signal, so
        a watcher observes samples in order without polling.
        """
        recorder = self.cluster.telemetry.timeseries
        seen: int | None = None
        for index in range(count):
            async with self._watch_cond:
                await self._watch_cond.wait_for(
                    lambda: self._sample_count != seen
                )
                seen = self._sample_count
            frame = recorder.last_bucket_snapshot()
            frame.update(ok=True, remaining=count - index - 1)
            yield frame

    def _handle_write(self, request: dict, tenant_id: str) -> dict:
        try:
            address = _integer(request, "address", 0)
            payload = decode_payload(
                str(request.get("payload", "")), self.cluster.block_bits
            )
        except ValueError as error:  # ConfigurationError included
            return _bad_request(str(error))
        key = (tenant_id, address)
        pending = self._pending.get(key)
        if pending is not None:
            # an older write to this key still waits in a bulk queue:
            # queue this one behind it, so the drainer applies them in order
            saturated = pending[0]
            retry_after = self._queues[saturated].qsize()
        else:
            try:
                self.cluster.write(tenant_id, address, payload)
                return {"ok": True, "status": "serviced"}
            except BackpressureError as error:
                saturated = error.array
                retry_after = error.retry_after
            except ReproError as error:
                return {"ok": False, "error": "rejected", "detail": str(error)}
        queue = self._queues[saturated]
        if queue.full():
            return {
                "ok": False,
                "error": "backpressure",
                "array": saturated,
                "retry_after": retry_after,
            }
        self._pending[key] = (saturated, payload)
        queue.put_nowait((tenant_id, address, payload))
        return {"ok": True, "status": "queued", "array": saturated}

    def _handle_read(self, request: dict, tenant_id: str) -> dict:
        try:
            address = _integer(request, "address", 0)
        except ValueError as error:
            return _bad_request(str(error))
        pending = self._pending.get((tenant_id, address))
        if pending is not None:
            return {"ok": True, "payload": encode_payload(pending[1]), "source": "queued"}
        try:
            bits = self.cluster.read(tenant_id, address)
        except RetiredBlockError as error:
            return {
                "ok": False,
                "error": "retired",
                "address": error.address,
                "array": error.array,
                "scheme": error.scheme,
            }
        except ReproError as error:
            return {"ok": False, "error": "rejected", "detail": str(error)}
        return {"ok": True, "payload": encode_payload(bits), "source": "cluster"}


class _Session(asyncio.Protocol):
    """One connection's protocol session.

    :meth:`data_received` answers every complete line of a socket read in
    order and sends the read's responses with one ``transport.write``.
    ``quit`` sends what is pending and closes.  ``watch`` sends what is
    pending, pauses reading, streams its frames from a task, and then
    answers the lines still buffered.  Requests stop being read while
    the transport's write buffer is over its high-water mark.
    """

    def __init__(self, frontend: ClusterFrontend) -> None:
        self.frontend = frontend
        self.tenant_id: str | None = None
        self.transport: asyncio.Transport | None = None
        #: bytes read and not yet answered
        self.buffer = b""
        #: inside an over-limit line: drop bytes through its newline
        self.skipping = False
        self.eof = False
        self.quitting = False
        self.watch: asyncio.Task | None = None
        #: clear while the transport's write buffer is over its high-water mark
        self.writable = asyncio.Event()
        self.writable.set()

    # -- asyncio.Protocol callbacks -----------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def connection_lost(self, exc: Exception | None) -> None:
        if self.watch is not None:
            self.watch.cancel()

    def pause_writing(self) -> None:
        self.writable.clear()
        self._update_reading()

    def resume_writing(self) -> None:
        self.writable.set()
        self._update_reading()

    def data_received(self, data: bytes) -> None:
        if self.skipping:
            end = data.find(b"\n")
            if end < 0:
                return
            data = data[end + 1:]
            self.skipping = False
        self.buffer += data
        if self.watch is None:
            self._answer_lines()

    def eof_received(self) -> bool:
        self.eof = True
        if self.watch is None:
            self._answer_lines()
        # keep the transport open: _answer_lines closes it once every
        # line (a watch's frames included) has been answered
        return True

    # -- the session --------------------------------------------------------

    def _update_reading(self) -> None:
        """Read requests only while responses can leave and no watch streams."""
        if self.eof or self.transport.is_closing():
            return
        if self.watch is None and self.writable.is_set():
            self.transport.resume_reading()
        else:
            self.transport.pause_reading()

    def _answer_lines(self) -> None:
        """Answer the buffered lines in order with one write; at EOF the
        final line needs no newline.  Stops early at ``quit`` or at a
        ``watch`` that streams."""
        buffer = self.buffer
        start = 0
        out: list[str] = []
        while self.watch is None and not self.quitting:
            end = buffer.find(b"\n", start)
            if end >= 0:
                line = buffer[start:end + 1]
                size = end - start
                start = end + 1
            elif self.eof and start < len(buffer):
                line = buffer[start:]
                size = len(line)
                start = len(buffer)
            else:
                break
            if size > MAX_LINE_BYTES:
                out.append(_OVERSIZE)
                continue
            response = self._answer(line)
            if response is not None:
                out.append(response)
        rest = buffer[start:]
        if len(rest) > MAX_LINE_BYTES and self.watch is None and not self.quitting:
            out.append(_OVERSIZE)
            rest = b""
            self.skipping = True
        self.buffer = rest
        if out:
            self.transport.write(("\n".join(out) + "\n").encode())
        if self.quitting or (self.eof and self.watch is None):
            self.transport.close()
        elif self.watch is not None:
            self._update_reading()

    def _answer(self, line: bytes) -> str | None:
        """One request line's encoded response; ``None`` when it starts a
        watch stream."""
        try:
            request = json.loads(line)
        except ValueError as error:  # bad JSON or bad UTF-8
            response: dict = {"ok": False, "error": "bad_json", "detail": str(error)}
        else:
            if isinstance(request, dict) and request.get("cmd") == "watch":
                # the one streaming command: multiple lines out
                response = self.frontend._refuse_watch(request)
                if response is None:
                    self.watch = asyncio.create_task(
                        self._stream(request.get("count", 1))
                    )
                    return None
            else:
                response, self.tenant_id = self.frontend._dispatch(
                    request, self.tenant_id
                )
                self.quitting = bool(response.get("bye"))
        return _encode(response)

    async def _stream(self, count: int) -> None:
        async for frame in self.frontend._watch_frames(count):
            await self.writable.wait()
            self.transport.write((_encode(frame) + "\n").encode())
        self.watch = None
        self._answer_lines()
        self._update_reading()


class LoopbackClient:
    """A minimal asyncio client for the JSON-lines protocol (tests, the
    ``--selftest`` path, and a template for external clients)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            with contextlib.suppress(Exception):
                await self._writer.wait_closed()
            self._reader = self._writer = None

    async def request(self, **fields: object) -> dict:
        assert self._reader is not None and self._writer is not None
        self._writer.write((json.dumps(fields) + "\n").encode())
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the session")
        return json.loads(line)

    async def hello(self, tenant: str) -> dict:
        return await self.request(cmd="hello", tenant=tenant)

    async def write(self, address: int, bits: np.ndarray) -> dict:
        return await self.request(
            cmd="write", address=address, payload=encode_payload(bits)
        )

    async def read(self, address: int) -> dict:
        return await self.request(cmd="read", address=address)

    async def stats(self) -> dict:
        return await self.request(cmd="stats")

    async def watch(self, count: int = 1) -> list[dict]:
        """Collect ``count`` streamed bucket frames (or the error frame)."""
        assert self._reader is not None and self._writer is not None
        self._writer.write(
            (json.dumps({"cmd": "watch", "count": count}) + "\n").encode()
        )
        await self._writer.drain()
        frames: list[dict] = []
        for _ in range(count):
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("server closed the session")
            frame = json.loads(line)
            frames.append(frame)
            if not frame.get("ok"):
                break
        return frames

    async def quit(self) -> dict:
        return await self.request(cmd="quit")


async def loopback_selftest(
    cluster: ClusterService, *, ops_per_tenant: int = 8, seed: int = 2013
) -> dict:
    """Start a frontend on a free port, drive every registered tenant over
    a loopback session, verify read-your-writes, and return a summary.

    This is what ``repro serve --selftest`` runs: an end-to-end exercise
    of the wire protocol, the admission path, and the drainers without
    needing an external client.
    """
    from repro.sim.rng import rng_for

    frontend = ClusterFrontend(cluster, maintenance_interval=0.01)
    await frontend.start()
    summary = {"writes": 0, "queued": 0, "backpressured": 0, "reads": 0, "mismatches": 0}
    try:
        for index, spec in enumerate(cluster.tenants):
            rng = rng_for(seed, index, 53)
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            hello = await client.hello(spec.tenant_id)
            assert hello["ok"], hello
            written: dict[int, np.ndarray] = {}
            for _ in range(ops_per_tenant):
                address = int(rng.integers(0, 16))
                bits = rng.integers(0, 2, cluster.block_bits, dtype=np.uint8)
                response = await client.write(address, bits)
                if response.get("ok"):
                    summary["writes"] += 1
                    if response.get("status") == "queued":
                        summary["queued"] += 1
                    written[address] = bits
                else:
                    summary["backpressured"] += 1
            for address, bits in sorted(written.items()):
                response = await client.read(address)
                summary["reads"] += 1
                if not response.get("ok") or response.get("payload") != encode_payload(bits):
                    summary["mismatches"] += 1
            await client.quit()
            await client.close()
        await frontend.join_queues()
    finally:
        await frontend.stop()
    return summary
