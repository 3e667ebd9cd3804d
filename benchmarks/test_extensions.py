"""Benchmarks for the extension experiments (paper §3.1 note and §4)."""

from benchmarks.conftest import once, show
from repro.experiments import run_experiment


def test_ext_memblock(benchmark, capsys):
    """The paper's unreported 256 B memory-block configuration."""
    result = once(benchmark, lambda: run_experiment("ext-memblock", n_pages=32, seed=2013))
    show(result, capsys)
    faults = dict(zip(result.column("Scheme"), result.column("Faults/256B block")))
    # "similar trend": same ordering as the 4 KB Figure 5
    assert faults["Aegis 9x61"] > faults["Aegis 17x31"] > faults["SAFER32"]
    assert faults["Aegis 9x61"] > faults["SAFER64"]


def test_ext_payg(benchmark, capsys):
    """PAYG with Aegis as GEC: capacity/overhead sweep."""
    result = once(
        benchmark,
        lambda: run_experiment(
            "ext-payg", n_pages=16, seed=2013, pool_fractions=(0.25, 0.5, 1.0)
        ),
    )
    show(result, capsys)
    payg_rows = [r for r in result.rows if str(r[0]).startswith("PAYG")]
    capacities = [r[2] for r in payg_rows]
    overheads = [r[1] for r in payg_rows]
    assert capacities == sorted(capacities)
    assert overheads == sorted(overheads)
    flat_aegis = next(r for r in result.rows if r[0] == "flat Aegis 17x31")
    # full pool + LEC reaches at least flat-Aegis capacity
    assert capacities[-1] >= 0.95 * flat_aegis[2]


def test_ext_pairing(benchmark, capsys):
    """Dynamic pairing above weak vs strong in-chip recovery."""
    result = once(benchmark, lambda: run_experiment("ext-pairing", n_pages=24, seed=2013))
    show(result, capsys)
    assert all(g >= 0 for g in result.column("Pairing gain"))
    # stronger in-chip recovery pushes the failure window later
    ages = {}
    for row in result.rows:
        scheme, age, without = row[0], float(row[1]), row[2]
        if without < 1.0 and scheme not in ages:
            ages[scheme] = age
    assert ages["Aegis 17x31"] > ages["ECP2"]


def test_ext_freep(benchmark, capsys):
    """§4's FREE-p claim: Aegis substantially delays block redirection."""
    result = once(
        benchmark,
        lambda: run_experiment("ext-freep", n_pages=24, seed=2013,
                               spare_counts=(0, 2, 8)),
    )
    show(result, capsys)
    lifetime = {
        (row[0], row[1]): float(row[2]) for row in result.rows
    }
    # lifetime grows with spares for both schemes
    assert lifetime[("ECP6", 8)] > lifetime[("ECP6", 0)]
    assert lifetime[("Aegis 17x31", 8)] > lifetime[("Aegis 17x31", 0)]
    # bare Aegis outlives ECP6 even when ECP6 gets 8 spare blocks
    assert lifetime[("Aegis 17x31", 0)] > lifetime[("ECP6", 8)]


def test_ext_bsweep(benchmark, capsys):
    """§5's future-work knob: capability and cost vs the prime B."""
    result = once(
        benchmark,
        lambda: run_experiment("ext-bsweep", trials=120, seed=2013,
                               b_values=(23, 31, 61, 113)),
    )
    show(result, capsys)
    soft = [float(v) for v in result.column("Soft FTC (measured)")]
    hard = [int(v) for v in result.column("Hard FTC")]
    bits = [int(v) for v in result.column("Overhead bits")]
    assert soft == sorted(soft)  # capability grows with B...
    assert bits == sorted(bits)  # ...but so does overhead, linearly
    # soft FTC comfortably exceeds hard FTC everywhere
    assert all(s > 1.4 * h for s, h in zip(soft, hard))
    # diminishing space efficiency: faults-per-overhead-bit shrinks
    efficiency = [s / b for s, b in zip(soft, bits)]
    assert efficiency[0] > efficiency[-1]


def test_ext_softftc(benchmark, capsys):
    """Analytic occupancy model vs Monte Carlo block-failure curve."""
    result = once(benchmark, lambda: run_experiment("ext-softftc", trials=500, seed=2013))
    show(result, capsys)
    for row in result.rows:
        if row[1] == "E[soft FTC]":
            continue
        assert abs(float(row[2]) - float(row[3])) < 0.4


def test_ext_fullscale(benchmark, capsys):
    """The full-chip page study at a sizeable population: Figure 5/9
    shapes with negligible sampling error."""
    result = once(benchmark, lambda: run_experiment("ext-fullscale", n_pages=512, seed=2013))
    show(result, capsys)
    faults = dict(zip(result.column("Scheme"), result.column("Faults/page")))
    half = {
        label: float(v)
        for label, v in zip(result.column("Scheme"),
                            result.column("Half lifetime (writes)"))
    }
    assert faults["Aegis 9x61"] > faults["Aegis 17x31"] > faults["Aegis 23x23"]
    assert faults["Aegis 23x23"] > faults["ECP6"]
    assert half["Aegis 9x61"] > half["ECP6"]


def test_ext_frontier(benchmark, capsys):
    """The conclusion's cost-effectiveness claim as a Pareto statement."""
    result = once(benchmark, lambda: run_experiment("ext-frontier", n_pages=24, seed=2013))
    show(result, capsys)
    status = dict(zip(result.column("Scheme"), result.column("Status")))
    aegis = [label for label in status if label.startswith("Aegis")]
    assert aegis and all(status[label] == "frontier" for label in aegis)
    for label in ("SAFER32", "SAFER64", "SAFER128", "ECP4", "ECP5", "ECP6"):
        assert status[label] == "dominated"


def test_ext_intrablock(benchmark, capsys):
    """The §2.1 intra-block wear-leveling side claim."""
    result = once(
        benchmark,
        lambda: run_experiment("ext-intrablock", writes=100, blocks=5, seed=2013),
    )
    show(result, capsys)
    rows = {(r[0], r[1]): r for r in result.rows}
    # ECP adds no inversion wear: flat CoV at the noise floor
    ecp_covs = [rows[("ECP12", f)][2] for f in (4, 8, 12)]
    assert max(ecp_covs) - min(ecp_covs) < 0.05
    # Aegis's hottest-cell excess falls as re-partitions spread the wear
    assert rows[("Aegis 9x61", 12)][3] < rows[("Aegis 9x61", 4)][3]


def test_ext_latency(benchmark, capsys):
    """The §2.4 latency arguments under a device timing model."""
    result = once(
        benchmark,
        lambda: run_experiment(
            "ext-latency", fault_counts=(0, 6, 12), writes=20, blocks=4, seed=2013
        ),
    )
    show(result, capsys)
    latency = {(r[0], r[1]): float(r[2]) for r in result.rows}
    # the double-write option is ~3x a clean write at any fault count
    assert latency[("Aegis-dw 9x61", 0)] >= 2.9 * latency[("ECP12", 0)]
    # the cache variant's latency is flat; basic Aegis degrades with faults
    assert latency[("Aegis-rw 9x61", 12)] == latency[("Aegis-rw 9x61", 0)]
    assert latency[("Aegis 9x61", 12)] > 1.5 * latency[("Aegis 9x61", 0)]


def test_ext_writecost(benchmark, capsys):
    """Service-cost comparison: the mechanism behind Figure 12."""
    result = once(
        benchmark,
        lambda: run_experiment(
            "ext-writecost", fault_counts=(0, 4, 8, 12), writes=25, blocks=6, seed=2013
        ),
    )
    show(result, capsys)
    rows = {(r[0], r[1]): r for r in result.rows}
    # basic Aegis's inversion writes grow with fault count...
    assert rows[("Aegis 9x61", 12)][4] > rows[("Aegis 9x61", 4)][4] > 0
    # ...while Aegis-rw stays single-pass
    assert rows[("Aegis-rw 9x61", 12)][4] == 0.0
    assert rows[("Aegis-rw 9x61", 12)][3] == 1.0
