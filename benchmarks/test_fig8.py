"""Benchmark: regenerate Figure 8 (block failure probability vs faults)."""

import numpy as np
import pytest

from benchmarks.conftest import once, show
from repro.experiments import run_experiment
from repro.pcm.faults import fault_model_for
from repro.sim.block_sim import failure_curve
from repro.sim.rng import BitSource, rng_for
from repro.sim.roster import aegis_spec, safer_spec


def test_fig8(benchmark, capsys):
    result = once(
        benchmark,
        lambda: run_experiment("fig8", trials=600, max_faults=36, seed=2013),
    )
    show(result, capsys)
    by_faults = {row[0]: dict(zip(result.headers[1:], row[1:])) for row in result.rows}
    # hard-FTC zeros
    assert by_faults[6]["ECP6"] == 0.0
    assert by_faults[8]["Aegis 17x31"] == 0.0
    # ECP's vertical rise
    assert by_faults[8]["ECP6"] == 1.0
    # §3.2: Aegis 9x61 (67 bits) below SAFER64 (91) and SAFER128 (159)
    for f in (14, 18, 22):
        assert by_faults[f]["Aegis 9x61"] <= by_faults[f]["SAFER64"]
        assert by_faults[f]["Aegis 9x61"] <= by_faults[f]["SAFER128"]
    # §3.2: cache-assisted SAFER128 wins deep into the fault range
    assert by_faults[30]["SAFER128-cache"] <= by_faults[30]["Aegis 9x61"]


def _arrival_loop_deaths(spec, model, trials: int, seed: int) -> np.ndarray:
    """Faults at death from an independent oracle: each trial feeds a
    uniformly random permutation of the block's cells to the checker.

    Partial: the first ``mask_budget`` partial arrivals skip the checker
    but still count.  Drift: a bursty span's arrival ranks collapse onto
    its earliest one, and tied ranks arrive in cell-index order.
    """
    n = spec.n_bits
    deaths = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        rng = rng_for(seed, trial)
        order = rng.permutation(n)
        numbers = np.arange(1, n + 1)
        if model.key == "partial":
            partial = rng.random(n) < model.partial_fraction
            masked = partial & (np.cumsum(partial) <= model.mask_budget)
            order, numbers = order[~masked], numbers[~masked]
        elif model.key == "drift":
            span = model.burst_span
            bursty = rng.random(-(-n // span)) < model.burst_probability
            ranks = np.empty(n)
            ranks[order] = np.arange(n)
            spans = ranks.reshape(-1, span)
            spans[bursty] = spans[bursty].min(axis=1, keepdims=True)
            order = np.argsort(ranks, kind="stable")
        with BitSource(rng) as bits:
            checker = spec.make_checker(bits)
            for number, cell in zip(numbers.tolist(), order.tolist()):
                if not checker.add_fault(cell, bits.bit()):
                    deaths[trial] = number
                    break
    return deaths


@pytest.mark.parametrize("fault_model", ["hard", "partial", "drift"])
@pytest.mark.parametrize(
    "spec", [aegis_spec(9, 61, 512), safer_spec(64, 512)], ids=lambda s: s.key
)
def test_failure_curve_matches_arrival_loop(spec, fault_model, capsys):
    """Fig. 8 runs on the cell-death scheduler; its faults at death must
    agree in the mean with the arrival-permutation loop the scheduler
    replaced (independent draws, so a two-sample z-test)."""
    trials = 4000
    model = fault_model_for(fault_model)
    oracle = _arrival_loop_deaths(spec, model, trials, seed=11)
    curve = failure_curve(
        spec, trials=trials, max_faults=spec.n_bits, seed=2013, fault_model=model
    )
    pmf = np.diff(np.concatenate([[0.0], curve.probabilities]))
    counts = np.asarray(curve.fault_counts)
    mean = float(pmf @ counts)
    var = float(pmf @ (counts - mean) ** 2)
    z = (mean - oracle.mean()) / np.sqrt((var + oracle.var()) / trials)
    with capsys.disabled():
        print(
            f"\n{spec.label} {fault_model}: scheduler {mean:.3f} vs arrival "
            f"loop {oracle.mean():.3f} faults at death, z={z:+.2f}"
        )
    assert abs(z) < 4
