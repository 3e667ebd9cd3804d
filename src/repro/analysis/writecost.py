"""Write-overhead accounting: the latency/wear side of each scheme.

The paper argues two service-cost points qualitatively: basic Aegis
"generates intensive inversion writes" as faults accumulate, while the
cache-assisted variants complete every request in a single pass.  This
module measures those costs directly on the bit-accurate controllers —
cell programming operations, verification reads, inversion re-writes, and
re-partition trials per serviced write, as a function of the block's fault
count — giving the reproduction a quantitative version of the paper's
§2.4/§3.3 service-cost narrative.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import RecoveryScheme


@dataclass(frozen=True)
class WriteCostSummary:
    """Average per-write service costs at a fixed fault count."""

    label: str
    fault_count: int
    writes_measured: int
    cell_writes: float
    verification_reads: float
    inversion_writes: float
    repartitions: float


def write_cost_study(
    label: str,
    scheme_factory: Callable[[CellArray], RecoveryScheme],
    *,
    n_bits: int = 512,
    fault_count: int = 8,
    writes: int = 50,
    trials: int = 10,
    seed: int = 0,
) -> WriteCostSummary:
    """Measure average service costs of a scheme at a given fault count.

    Each trial places ``fault_count`` faults uniformly, then services
    ``writes`` random writes, accumulating the controllers' receipts.
    Trials whose fault placement exceeds the scheme's soft capability are
    skipped (they would retire the block, not service writes).
    """
    totals = np.zeros(4, dtype=np.float64)  # cells, verifies, inversions, reparts
    measured = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        cells = CellArray(n_bits)
        for offset in rng.choice(n_bits, size=fault_count, replace=False):
            cells.inject_fault(int(offset), stuck_value=int(rng.integers(0, 2)))
        scheme = scheme_factory(cells)
        try:
            for _ in range(writes):
                receipt = scheme.write(rng.integers(0, 2, n_bits, dtype=np.uint8))
                totals += (
                    receipt.cell_writes,
                    receipt.verification_reads,
                    receipt.inversion_writes,
                    receipt.repartitions,
                )
                measured += 1
        except UncorrectableError:
            continue  # fault placement beyond soft capability: skip trial
    if measured == 0:
        raise UncorrectableError(
            f"{label}: no fault placement of size {fault_count} was serviceable"
        )
    return WriteCostSummary(
        label=label,
        fault_count=fault_count,
        writes_measured=measured,
        cell_writes=float(totals[0] / measured),
        verification_reads=float(totals[1] / measured),
        inversion_writes=float(totals[2] / measured),
        repartitions=float(totals[3] / measured),
    )
