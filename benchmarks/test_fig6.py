"""Benchmark: regenerate Figure 6 (page lifetime improvement)."""

from benchmarks.conftest import once, show
from repro.experiments import run_experiment


def test_fig6(benchmark, capsys):
    result = once(benchmark, lambda: run_experiment("fig6", n_pages=16, seed=2013))
    show(result, capsys)
    improvement = dict(
        zip(result.column("Scheme"), result.column("Improvement (x)"))
    )
    # ordering claims of §3.2: every scheme above 1x; Aegis 9x61 on top;
    # and the Aegis lifetime gaps within ~5% of their values at this
    # pinned scale and seed, which sit near the paper's bar ratios
    assert all(v > 1 for v in improvement.values())
    assert improvement["Aegis 9x61"] == max(improvement.values())
    # measured 1.674; paper: 10.7 / 6.3 = 1.70
    assert 1.59 < improvement["Aegis 9x61"] / improvement["ECP4"] < 1.76
    # measured 1.158; paper: about 1.19
    assert 1.10 < improvement["Aegis 9x61"] / improvement["Aegis 17x31"] < 1.22
