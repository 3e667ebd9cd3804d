"""``serve``: one closed-loop caller on one ``ServiceController``.

The caller waits on every ``write``/``read`` of a pre-generated zipf
stream (about three writes per read) against one ``MemoryArray`` of
aegis-9x61 blocks.  Every address is first-touched during set-up, and
endurance and spares are sized so remaps and repartitions recur through
the whole episode while lost and rejected operations stay a small share.
The workload loads the per-op request path, the batched drain and the
scalar escalation rows; it never enters ``sim``, ``cluster`` or TCP.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys
from repro.pcm.lifetime import NormalLifetime
from repro.pcm.workload import ZipfWorkload
from repro.service.array import MemoryArray
from repro.service.controller import ServiceController
from repro.sim import roster
from repro.sim.rng import rng_for

from perfbench.harness import NullRecorder, Outcome, Stopwatch
from perfbench.stats import latency_summaries, summary, throughput

BLOCK_BITS = 512
ADDRESSES = 1024
#: few spares and a low mean cell endurance (writes): the hotter blocks
#: wear out, repartition and remap all episode long, and the last remaps
#: exhaust the pool so a small share of operations meets a dead address
SPARES = 6
MEAN_ENDURANCE = 80.0
BUFFER_CAPACITY = 32
READ_FRACTION = 0.25
#: a flat zipf spreads wear over many blocks, so the escalation count
#: (the costly part of an episode) varies little from seed to seed
ZIPF_ALPHA = 0.5
PAYLOAD_POOL = 1024
OPS = {"full": 24_000, "tiny": 2_000}
#: operations between two probes of the host (see ``Stopwatch``)
PROBE_OPS = 1_000
THROUGHPUT = "serve_ops_per_s"

#: label-less registry counters read as episode deltas
COUNTERS = (
    "write_requests",
    "read_requests",
    "buffer_read_hits",
    "remaps",
    "repartitions_total",
    "writes_lost",
    "cell_writes_total",
)


@dataclass(frozen=True)
class Inputs:
    seed: int
    addresses: list[int]
    is_read: list[bool]
    payload_index: list[int]
    payloads: np.ndarray
    touch_index: list[int]


def make_inputs(seed: int, scale: str) -> Inputs:
    rng = rng_for(seed, 0, 61)
    ops = OPS[scale]
    workload = ZipfWorkload(alpha=ZIPF_ALPHA)
    addresses = [workload.next_logical_page(ADDRESSES, rng) for _ in range(ops)]
    return Inputs(
        seed=seed,
        addresses=addresses,
        is_read=(rng.random(ops) < READ_FRACTION).tolist(),
        payload_index=rng.integers(0, PAYLOAD_POOL, ops).tolist(),
        payloads=rng.integers(0, 2, (PAYLOAD_POOL, BLOCK_BITS), dtype=np.uint8),
        touch_index=rng.integers(0, PAYLOAD_POOL, ADDRESSES).tolist(),
    )


def build(inputs: Inputs, engine: str) -> tuple[MemoryArray, ServiceController]:
    """The array and controller, with every address first-touched."""
    spec = roster.aegis_spec(9, 61, BLOCK_BITS)
    array = MemoryArray(
        ADDRESSES,
        BLOCK_BITS,
        spec.make_controller,
        spares=SPARES,
        lifetime_model=NormalLifetime(mean_lifetime=MEAN_ENDURANCE),
        fail_cache=DirectMappedFailCache(1024, key_of=SequentialBlockKeys()),
        rng=rng_for(inputs.seed, 0, 41),
        engine=engine,
        scheme_key=spec.key,
    )
    controller = ServiceController(array, buffer_capacity=BUFFER_CAPACITY)
    for address, index in enumerate(inputs.touch_index):
        controller.write(address, inputs.payloads[index])
    controller.flush()
    return array, controller


def counter_values(array: MemoryArray) -> dict[str, int]:
    metrics = array.telemetry.metrics
    values = {name: metrics.counter_value(name) for name in COUNTERS}
    values["enqueued"] = metrics.counter_value("buffer_requests_total", kind="enqueued")
    values["coalesced"] = metrics.counter_value("buffer_requests_total", kind="coalesced")
    return values


def drive(inputs: Inputs, array: MemoryArray, controller: ServiceController, outcome: Outcome,
          watch: Stopwatch):
    """Replay the stream in a closed loop with an online shadow audit,
    splitting ``watch`` every ``PROBE_OPS`` operations; returns
    ``(reference seconds, write latencies, read latencies, shadow)``,
    latencies in nanoseconds."""
    payloads = inputs.payloads
    shadow = list(inputs.touch_index)
    write, read, is_dead = controller.write, controller.read, array.is_dead
    clock = time.perf_counter_ns
    write_ns = np.empty(len(inputs.addresses), dtype=np.int64)
    read_ns = np.empty(len(inputs.addresses), dtype=np.int64)
    writes = reads = rejected = 0
    elapsed = 0.0
    for position, (address, is_read, index) in enumerate(
        zip(inputs.addresses, inputs.is_read, inputs.payload_index), 1
    ):
        if position % PROBE_OPS == 0:
            elapsed += watch.split()
        if is_dead(address):
            rejected += 1
            continue
        if is_read:
            start = clock()
            got = read(address)
            read_ns[reads] = clock() - start
            reads += 1
            if not np.array_equal(got, payloads[shadow[address]]):
                outcome.failures.append(f"serve: online read of address {address} mismatched")
        else:
            start = clock()
            write(address, payloads[index])
            write_ns[writes] = clock() - start
            writes += 1
            shadow[address] = index
    controller.flush()
    elapsed += watch.split()
    outcome.counts["rejected"] = rejected
    return elapsed, write_ns[:writes], read_ns[:reads], shadow


def audit(inputs: Inputs, array: MemoryArray, shadow: list[int]) -> list[str]:
    """Final read-after-write sweep over every surviving address."""
    return [
        f"serve: final read of address {address} mismatched"
        for address in range(ADDRESSES)
        if not array.is_dead(address)
        and not np.array_equal(array.read(address), inputs.payloads[shadow[address]])
    ]


def registry_digest(array: MemoryArray) -> str:
    blob = json.dumps(array.telemetry.snapshot(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def repeat(inputs: Inputs, recorder, round_index: int) -> Outcome:
    """One repeat; every round replays the same stream."""
    outcome = Outcome()
    watch = Stopwatch(recorder)
    with recorder.span("setup"):
        array, controller = build(inputs, "auto")
    outcome.setup_s = watch.split()
    if recorder.enabled:
        recorder.wrap(controller, "write", "service.controller.write")
        recorder.wrap(controller, "flush", "service.controller.flush")
        recorder.wrap(controller, "read", "service.controller.read")
        recorder.wrap(array, "write", "service.array.write")
        recorder.wrap(array, "read", "service.array.read")
    before = counter_values(array)
    start = time.perf_counter()
    with recorder.span("episode"):
        outcome.episode_s, write_ns, read_ns, shadow = drive(
            inputs, array, controller, outcome, watch
        )
    outcome.wall_s = time.perf_counter() - start
    if recorder.enabled:
        recorder.unwrap()
    after = counter_values(array)
    outcome.counts.update({name: after[name] - before[name] for name in after})
    outcome.work = len(inputs.addresses)
    outcome.latencies = {"serve_write": write_ns, "serve_read": read_ns}
    outcome.digests["serve.registry"] = registry_digest(array)
    outcome.failures += audit(inputs, array, shadow)
    return outcome


def verify(inputs: Inputs, outcomes: list[Outcome], recorder) -> list[str]:
    """Replay the stream on the scalar drain: the registry must match."""
    array, controller = build(inputs, "scalar")
    reference = Outcome()
    drive(inputs, array, controller, reference, Stopwatch(NullRecorder()))
    expected = registry_digest(array)
    seen = {outcome.digests["serve.registry"] for outcome in outcomes}
    if seen != {expected}:
        return [f"serve: registry digests {sorted(seen)} != scalar reference {expected}"]
    return []


def report(inputs: Inputs, outcomes: list[Outcome]) -> dict[str, dict]:
    failed = [
        (o.counts["rejected"] + o.counts["writes_lost"]) / o.work for o in outcomes
    ]
    return {
        THROUGHPUT: throughput(outcomes, "ops/s"),
        **latency_summaries("serve_write", [o.latencies["serve_write"] for o in outcomes]),
        **latency_summaries("serve_read", [o.latencies["serve_read"] for o in outcomes]),
        "serve_failed_frac": summary(failed, "ratio"),
    }


def layers(inputs: Inputs, outcomes: list[Outcome], totals: dict) -> dict[str, float]:
    repeats = len(outcomes)

    def mean_count(name: str) -> float:
        return sum(o.counts[name] for o in outcomes) / repeats

    out: dict[str, float] = {}
    for layer in ("controller.write", "controller.flush", "controller.read",
                  "array.write", "array.read"):
        entry = totals.get(f"service.{layer}", {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"service.{layer}.calls"] = entry["calls"] / repeats
        out[f"service.{layer}.s"] = entry["s"] / repeats
    out["service.controller.write.self_s"] = (
        totals["service.controller.write"]["self_s"] / repeats
    )
    del out["service.controller.write.s"]
    rows = mean_count("enqueued")
    out["service.controller.flush.rows"] = rows
    out["service.drain.rows_per_s"] = rows / out["service.controller.flush.s"]
    out["service.drain.fast_row_ratio"] = 1.0 - out["service.array.write.calls"] / rows
    out["service.buffer.read_hit_ratio"] = mean_count("buffer_read_hits") / mean_count(
        "read_requests"
    )
    out["service.buffer.coalesce_ratio"] = mean_count("coalesced") / mean_count("write_requests")
    out["service.remaps"] = mean_count("remaps")
    out["service.repartitions"] = mean_count("repartitions_total")
    out["service.writes_lost"] = mean_count("writes_lost")
    out["service.cell_writes"] = mean_count("cell_writes_total")
    return out
