"""Speed floors of the simulation, service and process-pool layers.

Plain pytest; it runs with the figure-shape tests under
``PYTHONPATH=src python -m pytest benchmarks -q`` (add ``-s`` to see every
measured ratio).  Each test times both sides of one comparison on the
same host and asserts a fixed floor:

* ``test_kernel_floor``: the batch kernels run an aegis-9x61 page study
  at least 3x faster than the scalar checkers (median of alternating
  pairs), with identical results;
* ``test_drain_floor``: the vector write drain moves at least 5x the
  rows per second of the scalar drain over warm blocks, with identical
  metric snapshots;
* ``test_sampling_overhead``: per-drain time-series sampling costs at
  most 5% of drain time and leaves the metrics unchanged;
* ``test_campaign_memory``: a streaming fleet campaign 100x larger peaks
  at most 3x higher under tracemalloc, since every chunk folds into the
  running aggregate;
* ``test_pool_speedup``: a process pool beats the serial run by the
  floor for its worker count (median of alternating pairs), with
  identical results; skipped on hosts with fewer cores than workers.

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
from repro.sim.context import ExecContext
from repro.sim.page_sim import run_page_study
from repro.sim.rng import rng_for
from repro.sim.roster import aegis_spec, ecp_spec, safer_spec

SPECS = {
    spec.key: spec for spec in (aegis_spec(9, 61, 512), safer_spec(64, 512), ecp_spec(6, 512))
}

#: alternating baseline/candidate pairs per speedup; the median is gated
PAIRS = 5

KERNEL_FLOOR = 3.0
KERNEL_PAGES = 96

DRAIN_FLOOR = 5.0
SAMPLING_OVERHEAD_MAX = 0.05
#: rows per drain and distinct warm addresses: deep enough that a batch
#: amortises its per-drain fixed cost
DRAIN_CAPACITY = 128
DRAIN_ADDRESSES = 256
DRAIN_ROUNDS = 80

CAMPAIGN_MEMORY_FACTOR = 3.0
CAMPAIGN_SCALE = 100


def _median_speedup(label, baseline, candidate):
    """Time ``PAIRS`` alternating baseline/candidate runs, assert each
    pair's results are equal, print every time ratio and return the
    median."""
    ratios = []
    for _ in range(PAIRS):
        start = time.perf_counter()
        expected = baseline()
        middle = time.perf_counter()
        actual = candidate()
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


def _drain(spec, engine, *, sample=False):
    """Drain ``DRAIN_ROUNDS`` full buffers over warm, healthy blocks.

    A huge fixed endurance and one up-front write per address keep
    first touch and wear-out, which both engines serve on the scalar
    path, out of the timed region.  Returns the drain seconds, the
    seconds of it spent in ``TimeSeriesRecorder.sample`` and the final
    metrics snapshot."""
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
