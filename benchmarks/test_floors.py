"""Speed floors of the simulation, service and process-pool layers.

Plain pytest; it runs with the figure-shape tests under
``PYTHONPATH=src python -m pytest benchmarks -q`` (add ``-s`` to see every
measured ratio).  Each test times both sides of one comparison on the
same host and asserts a fixed floor:

* ``test_kernel_floor``: the batch kernels run an aegis-9x61 page study
  at least 3x faster than the scalar checkers (median of alternating
  pairs), with identical results;
* ``test_ecp_kernel_floor``: the frozen-order walk runs an ecp6 study of
  24 4 KB pages at least 1.2x faster than the scalar scheduler, with
  identical results (the endurance draws, the same on both sides, are
  about half of the batch side's time);
* ``test_drain_floor``: the vector write drain moves at least 5x the
  rows per second of the scalar drain over warm blocks, with identical
  metric snapshots;
* ``test_first_touch_floor``: the vector drain first-touches every
  address of a built 1024-address aegis-9x61 array at least 2x faster
  than the scalar drain (median of alternating pairs), with identical
  telemetry snapshots;
* ``test_sampling_overhead``: per-drain time-series sampling costs at
  most 5% of drain time and leaves the metrics unchanged;
* ``test_campaign_memory``: a streaming fleet campaign 100x larger peaks
  at most 3x higher under tracemalloc, since every chunk folds into the
  running aggregate;
* ``test_pool_speedup``: a process pool beats the serial run by the
  floor for its worker count (median of alternating pairs), with
  identical results; skipped on hosts with fewer cores than workers;
* ``test_bit_source_floor``: the scalar walks' ``BitSource`` hands out an
  rdis-3-shaped sequence of stuck-value runs and ``(128, f)`` pattern
  draws at least 1.5x faster than the ``Generator.integers`` calls it
  reproduces (median of alternating pairs), with identical values;
* ``test_safer_cache_floor``: ``SaferCacheChecker`` walks seeded
  safer64-cache blocks to death at least 25x faster than one
  ``grow_vector`` call per sampled pattern, the sequential rule it
  batches (median of alternating pairs), with identical verdicts and
  vectors.

Regressions against an earlier commit are measured by
``perfbench/run.py``, not here.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np
import pytest

from benchmarks.hostmeta import host_cpus
from repro.fleet import CampaignSpec, run_campaign
from repro.obs import TimeSeriesRecorder
from repro.pairing.sim import pairing_study
from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys
from repro.pcm.lifetime import FixedLifetime, NormalLifetime
from repro.service import MemoryArray, ServiceController, run_load
from repro.schemes.safer import grow_vector
from repro.sim.checkers import SaferCacheChecker
from repro.sim.context import ExecContext
from repro.sim.page_sim import run_page_study
from repro.sim.rng import BitSource, rng_for
from repro.sim.roster import aegis_spec, ecp_spec, safer_spec

SPECS = {
    spec.key: spec for spec in (aegis_spec(9, 61, 512), safer_spec(64, 512), ecp_spec(6, 512))
}

#: alternating baseline/candidate pairs per speedup; the median is gated
PAIRS = 5

KERNEL_FLOOR = 3.0
KERNEL_PAGES = 96

ECP_KERNEL_FLOOR = 1.2
ECP_KERNEL_PAGES = 24

DRAIN_FLOOR = 5.0
SAMPLING_OVERHEAD_MAX = 0.05
#: rows per drain and distinct warm addresses: deep enough that a batch
#: amortises its per-drain fixed cost
DRAIN_CAPACITY = 128
DRAIN_ADDRESSES = 256
DRAIN_ROUNDS = 80

FIRST_TOUCH_FLOOR = 2.0
FIRST_TOUCH_ADDRESSES = 1024

CAMPAIGN_MEMORY_FACTOR = 3.0
CAMPAIGN_SCALE = 100

BIT_SOURCE_FLOOR = 1.5
#: (stuck-run length, faults) per drawing arrival: rdis-3 draws 128
#: patterns from its 4th fault on, after a run of one to a few stuck values
BIT_SOURCE_PLAN = [
    (int(k), int(f))
    for k, f in zip(
        np.random.default_rng(35).integers(1, 4, 400),
        np.random.default_rng(36).integers(4, 14, 400),
    )
]

SAFER_CACHE_FLOOR = 25.0
#: fault orders of the seeded safer64-cache walks (each runs to death)
SAFER_CACHE_FEEDS = [
    np.random.default_rng(3800 + walk).permutation(512).tolist() for walk in range(40)
]


def _median_speedup(label, baseline, candidate, prepare=None):
    """Time ``PAIRS`` alternating baseline/candidate runs, assert each
    pair's results are equal, print every time ratio and return the
    median.  ``prepare``, when given, runs untimed before each pair and
    returns the baseline's and the candidate's argument."""
    ratios = []
    for _ in range(PAIRS):
        args = [(arg,) for arg in prepare()] if prepare is not None else [(), ()]
        start = time.perf_counter()
        expected = baseline(*args[0])
        middle = time.perf_counter()
        actual = candidate(*args[1])
        ratios.append((middle - start) / (time.perf_counter() - middle))
        assert actual == expected
    median = statistics.median(ratios)
    print(f"\n{label}: {', '.join(f'{r:.2f}' for r in ratios)} -> median {median:.2f}x")
    return median


def test_kernel_floor():
    spec = SPECS["aegis-9x61"]

    def study(engine, n_pages=KERNEL_PAGES):
        return run_page_study(
            spec, n_pages=n_pages, blocks_per_page=32, seed=2013, engine=engine
        ).results

    # build the lru-cached formation tables outside the timed pairs
    study("auto", n_pages=1)
    median = _median_speedup("kernel aegis-9x61", lambda: study("scalar"), lambda: study("auto"))
    assert median >= KERNEL_FLOOR


def test_ecp_kernel_floor():
    spec = SPECS["ecp6"]

    def study(engine, n_pages=ECP_KERNEL_PAGES):
        return run_page_study(spec, n_pages=n_pages, seed=2013, engine=engine).results

    study("auto", n_pages=1)
    median = _median_speedup("kernel ecp6", lambda: study("scalar"), lambda: study("auto"))
    assert median >= ECP_KERNEL_FLOOR


def _drain(spec, engine, *, sample=False):
    """Drain ``DRAIN_ROUNDS`` full buffers over warm, healthy blocks.

    One up-front write per address keeps first touch (timed on its own
    by ``test_first_touch_floor``) out of the timed region, and a huge
    fixed endurance keeps out wear-out, which both engines serve on the
    scalar path.  Returns the drain seconds, the seconds of it spent in
    ``TimeSeriesRecorder.sample`` and the final metrics snapshot."""
    rng = rng_for(2013, 0, 41)
    array = MemoryArray(
        DRAIN_ADDRESSES,
        spec.n_bits,
        spec.make_controller,
        spares=8,
        lifetime_model=FixedLifetime(10**9),
        fail_cache=DirectMappedFailCache(1024, key_of=SequentialBlockKeys()),
        rng=rng,
        engine=engine,
    )
    controller = ServiceController(array, buffer_capacity=DRAIN_CAPACITY)
    recorder = None
    if sample:
        recorder = TimeSeriesRecorder(
            array.telemetry.metrics, bucket_width=DRAIN_CAPACITY, capacity=4096
        )
    warm = rng.integers(0, 2, (DRAIN_ADDRESSES, spec.n_bits), dtype=np.uint8)
    for address in range(DRAIN_ADDRESSES):
        controller.write(address, warm[address])
        controller.flush()
    payloads = rng.integers(0, 2, (DRAIN_ROUNDS, DRAIN_CAPACITY, spec.n_bits), dtype=np.uint8)
    addresses = rng_for(2013, 1, 41).permutation(DRAIN_ADDRESSES)[:DRAIN_CAPACITY]
    drain_s = sample_s = 0.0
    for payload in payloads:
        for slot, address in enumerate(addresses):
            controller.buffer.put(int(address), payload[slot])
        start = time.perf_counter()
        controller.flush()
        if recorder is not None:
            sampled = time.perf_counter()
            recorder.sample(array.op_clock)
            sample_s += time.perf_counter() - sampled
        drain_s += time.perf_counter() - start
    return drain_s, sample_s, array.telemetry.metrics.snapshot()


@pytest.mark.parametrize("key", sorted(SPECS))
def test_drain_floor(key):
    scalar_s, _, scalar_metrics = _drain(SPECS[key], "scalar")
    auto_s, _, auto_metrics = _drain(SPECS[key], "auto")
    assert auto_metrics == scalar_metrics
    speedup = scalar_s / auto_s
    print(f"\ndrain speedup on {key}: {speedup:.2f}x")
    assert speedup >= DRAIN_FLOOR


def _fresh_array(engine):
    """A built, never-written aegis-9x61 array's controller and one
    payload per address."""
    spec = SPECS["aegis-9x61"]
    rng = rng_for(2013, 0, 43)
    array = MemoryArray(
        FIRST_TOUCH_ADDRESSES,
        spec.n_bits,
        spec.make_controller,
        spares=6,
        fail_cache=DirectMappedFailCache(1024, key_of=SequentialBlockKeys()),
        rng=rng,
        engine=engine,
    )
    payloads = rng.integers(0, 2, (FIRST_TOUCH_ADDRESSES, spec.n_bits), dtype=np.uint8)
    return ServiceController(array), payloads


def _first_touch(fresh):
    """First-touch every address in order, flush; the telemetry snapshot."""
    controller, payloads = fresh
    for address, payload in enumerate(payloads):
        controller.write(address, payload)
    controller.flush()
    return controller.telemetry.snapshot()


def test_first_touch_floor():
    median = _median_speedup(
        "first touch aegis-9x61",
        _first_touch,
        _first_touch,
        prepare=lambda: (_fresh_array("scalar"), _fresh_array("auto")),
    )
    assert median >= FIRST_TOUCH_FLOOR


def test_sampling_overhead():
    *_, plain_metrics = _drain(SPECS["aegis-9x61"], "auto")
    drain_s, sample_s, sampled_metrics = _drain(SPECS["aegis-9x61"], "auto", sample=True)
    assert sampled_metrics == plain_metrics
    overhead = sample_s / drain_s
    print(f"\ntime-series sampling: {overhead:.1%} of drain time")
    assert overhead <= SAMPLING_OVERHEAD_MAX


def _campaign(pages, chunk_pages, schemes=("aegis-9x61", "ecp6"), workers=1):
    spec = CampaignSpec(
        schemes=schemes, pages_per_scheme=pages, blocks_per_page=2, chunk_pages=chunk_pages
    )
    return run_campaign(spec, ExecContext(seed=2013, workers=workers))


def test_campaign_memory():
    def peak(pages):
        tracemalloc.start()
        _campaign(pages, 16, schemes=("aegis-9x61",))
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak_bytes

    # build the lru-cached formation tables outside the traced runs
    _campaign(16, 16, schemes=("aegis-9x61",))
    base = peak(16)
    scaled = peak(16 * CAMPAIGN_SCALE)
    growth = scaled / base
    print(f"\ncampaign peak {base:,} B -> {scaled:,} B at {CAMPAIGN_SCALE}x: {growth:.2f}x")
    assert growth <= CAMPAIGN_MEMORY_FACTOR


def _page_study(key, n_pages):
    def run(workers):
        # a full 4 KB page per task: at 32 blocks a page the pool's
        # 4-page chunks halve the kernel batch and eat the speedup
        return run_page_study(SPECS[key], n_pages=n_pages, seed=2013, workers=workers).results

    return run


def _pairing(workers):
    # 4 KB pages again: the pairing reduce is serial and grows faster than
    # linearly in pages (about half the run at 192 pages of 16 blocks)
    return pairing_study(
        aegis_spec(17, 31, 512),
        n_pages=96,
        blocks_per_page=64,
        ctx=ExecContext(seed=2013, workers=workers),
    )


def _load(key, ops):
    def run(workers):
        report = run_load(
            SPECS[key],
            ops=ops,
            seed=2013,
            shards=4,
            workers=workers,
            n_addresses=32,
            spares=8,
            lifetime_model=NormalLifetime(mean_lifetime=45.0),
            trace_sample=50,
        )
        return report.snapshot, [root.to_dict() for root in report.telemetry.tracer.roots]

    return run


def _campaign_digest(workers):
    return _campaign(1536, 64, workers=workers).digest


#: (run, workers, floor); each serial run lasts a second or more so the
#: pool start is amortised
POOL_CASES = {
    "study-aegis-9x61": (_page_study("aegis-9x61", 192), 2, 1.1),
    "study-safer64": (_page_study("safer64", 128), 2, 1.1),
    "study-ecp6": (_page_study("ecp6", 512), 2, 1.1),
    "pairing": (_pairing, 2, 1.1),
    "pairing-4w": (_pairing, 4, 2.0),
    "load-aegis-9x61": (_load("aegis-9x61", 24000), 2, 1.1),
    "load-safer64": (_load("safer64", 24000), 2, 1.1),
    "load-ecp6": (_load("ecp6", 48000), 2, 1.1),
    "campaign": (_campaign_digest, 2, 1.1),
}


@pytest.mark.parametrize("case", list(POOL_CASES))
def test_pool_speedup(case):
    run, workers, floor = POOL_CASES[case]
    if host_cpus() < workers:
        pytest.skip(f"needs {workers} CPUs")
    median = _median_speedup(case, lambda: run(1), lambda: run(workers))
    assert median >= floor


def _numpy_draws():
    """The plan's draws as ``Generator.integers`` calls (a one-value run is
    the scalar call the page walk made before the bit source)."""
    rng, drawn = rng_for(2013, 35), []
    for k, f in BIT_SOURCE_PLAN:
        drawn.append([int(rng.integers(0, 2))] if k == 1 else rng.integers(0, 2, k).tolist())
        drawn.append(rng.integers(0, 2, size=(128, f), dtype=np.uint8).tobytes())
    return drawn, rng.bit_generator.state


def _bit_source_draws():
    rng, drawn = rng_for(2013, 35), []
    with BitSource(rng) as bits:
        for k, f in BIT_SOURCE_PLAN:
            drawn.append(bits.bits(k))
            drawn.append(bits.patterns(128, f).tobytes())
    return drawn, rng.bit_generator.state


def test_bit_source_floor():
    median = _median_speedup("bit source rdis-3 draws", _numpy_draws, _bit_source_draws)
    assert median >= BIT_SOURCE_FLOOR


def _safer_cache_reference():
    """Each walk's vector after every arrival (``None`` at death), one
    ``grow_vector`` call per sampled pattern, in pattern order."""
    vectors = []
    for walk, feed in enumerate(SAFER_CACHE_FEEDS):
        with BitSource(rng_for(2013, 38, walk)) as bits:
            positions = ()
            for f in range(1, len(feed) + 1):
                for row in bits.patterns(128, f).tolist():
                    positions = grow_vector(positions, feed[:f], 6, row)
                    if positions is None:
                        break
                vectors.append(positions)
                if positions is None:
                    break
    return vectors


def _safer_cache_checker():
    vectors = []
    for walk, feed in enumerate(SAFER_CACHE_FEEDS):
        with BitSource(rng_for(2013, 38, walk)) as bits:
            checker = SaferCacheChecker(512, 64, bits)
            for offset in feed:
                alive = checker.add_fault(offset, 0)
                vectors.append(checker.positions if alive else None)
                if not alive:
                    break
    return vectors


def test_safer_cache_floor():
    median = _median_speedup(
        "safer64-cache growth loop", _safer_cache_reference, _safer_cache_checker
    )
    assert median >= SAFER_CACHE_FLOOR
