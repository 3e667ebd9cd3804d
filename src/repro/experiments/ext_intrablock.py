"""Extension: intra-block wear leveling (the §2.1 side claim).

"[Separating any two bits on re-partition] helps to evenly spread faults
in a block across different groups and promotes wear leveling within each
block."  Inversion re-writes concentrate wear on the bits of flagged
groups; a scheme that keeps re-partitioning onto fresh slopes spreads that
extra wear across different bit subsets, while a scheme with a sticky
partition hammers the same group members.

Measured directly on the bit-accurate controllers: drive a faulty block
with random writes and report the coefficient of variation of *healthy*
cells' programming counts (lower = more even wear), plus the hottest
cell's excess over the mean.
"""

from __future__ import annotations

import numpy as np

from repro.core.aegis import AegisScheme
from repro.core.formations import formation
from repro.errors import UncorrectableError
from repro.experiments.base import ExperimentResult, register
from repro.pcm.cell import CellArray
from repro.sim.context import ExecContext
from repro.schemes.ecp import EcpScheme
from repro.schemes.safer import SaferScheme


def _wear_spread(
    scheme_factory, n_bits: int, fault_count: int, writes: int, blocks: int, seed: int
) -> tuple[float, float]:
    """(mean CoV of healthy-cell write counts, mean hottest/mean ratio)."""
    covs, peaks = [], []
    for trial in range(blocks):
        rng = np.random.default_rng((seed, trial))
        cells = CellArray(n_bits)
        fault_offsets = rng.choice(n_bits, size=fault_count, replace=False)
        for offset in fault_offsets:
            cells.inject_fault(int(offset), stuck_value=int(rng.integers(0, 2)))
        scheme = scheme_factory(cells)
        try:
            for _ in range(writes):
                scheme.write(rng.integers(0, 2, n_bits, dtype=np.uint8))
        except UncorrectableError:
            continue
        healthy = np.ones(n_bits, dtype=bool)
        healthy[fault_offsets] = False
        counts = cells.write_counts[healthy].astype(np.float64)
        if counts.mean() == 0:
            continue
        covs.append(float(counts.std() / counts.mean()))
        peaks.append(float(counts.max() / counts.mean()))
    if not covs:
        raise UncorrectableError("no trial produced a serviceable block")
    return float(np.mean(covs)), float(np.mean(peaks))


@register("ext-intrablock")
def run(
    ctx: ExecContext,
    *,
    block_bits: int = 512,
    fault_counts: tuple[int, ...] = (4, 8, 12),
    writes: int = 120,
    blocks: int = 6,
) -> ExperimentResult:
    """Healthy-cell wear evenness by scheme and resident fault count, over
    ``blocks`` faulty blocks per table row."""
    contenders = [
        ("Aegis 9x61", lambda c: AegisScheme(c, formation(9, 61, block_bits))),
        ("SAFER64", lambda c: SaferScheme(c, 64)),
        ("ECP12", lambda c: EcpScheme(c, 12)),
    ]
    rows = []
    for label, factory in contenders:
        for fault_count in fault_counts:
            cov, peak = _wear_spread(
                factory, block_bits, fault_count, writes, blocks, ctx.seed
            )
            rows.append((label, fault_count, round(cov, 3), round(peak, 2)))
    return ExperimentResult(
        experiment_id="ext-intrablock",
        title=(
            f"Extension: intra-block wear evenness over {writes} writes "
            f"({block_bits}-bit blocks)"
        ),
        headers=("Scheme", "Faults", "Wear CoV (healthy cells)", "Hottest/mean"),
        rows=tuple(rows),
        notes=(
            "ECP's pointer corrections add no inversion wear (CoV stays at "
            "the differential-write noise floor); partition schemes "
            "concentrate extra wear on flagged-group members",
            "the §2.1 spreading effect shows up as the *hottest/mean* ratio "
            "falling for Aegis as faults (and hence re-partitions) "
            "accumulate: each slope change moves the inversion wear onto a "
            "fresh bit subset",
        ),
    )
