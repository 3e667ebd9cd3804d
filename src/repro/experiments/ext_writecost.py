"""Extension: per-write service costs measured on the real controllers.

Quantifies the paper's service-cost narrative: basic Aegis pays
verification reads and inversion re-writes that grow with the fault count
("intensive inversion writes", §3.2), while the fail-cache variants
(Aegis-rw/-rw-p) complete each request in a single pass — the mechanism
behind their lifetime advantage in Figure 12.
"""

from __future__ import annotations

from repro.analysis.writecost import write_cost_study
from repro.core.aegis import AegisScheme
from repro.core.aegis_dw import AegisDoubleWriteScheme
from repro.core.aegis_rw import AegisRwScheme
from repro.core.aegis_rw_p import AegisRwPScheme
from repro.core.formations import formation
from repro.experiments.base import ExperimentResult, register
from repro.schemes.ecp import EcpScheme
from repro.schemes.safer import SaferScheme
from repro.sim.context import ExecContext


@register("ext-writecost")
def run(
    ctx: ExecContext,
    *,
    block_bits: int = 512,
    fault_counts: tuple[int, ...] = (0, 4, 8, 12),
    writes: int = 40,
    blocks: int = 8,
) -> ExperimentResult:
    """Average cell writes / verification reads / inversion re-writes per
    serviced request, by scheme and fault count, over ``blocks`` faulty
    blocks per table row."""
    form = formation(9, 61, block_bits)
    contenders = [
        ("Aegis 9x61", lambda c: AegisScheme(c, form)),
        ("Aegis-rw 9x61", lambda c: AegisRwScheme(c, form)),
        ("Aegis-rw-p 9x61 p=9", lambda c: AegisRwPScheme(c, form, 9)),
        ("Aegis-dw 9x61", lambda c: AegisDoubleWriteScheme(c, form)),
        ("SAFER64", lambda c: SaferScheme(c, 64)),
        ("ECP12", lambda c: EcpScheme(c, 12)),
    ]
    rows = []
    for label, factory in contenders:
        for fault_count in fault_counts:
            summary = write_cost_study(
                label,
                factory,
                n_bits=block_bits,
                fault_count=fault_count,
                writes=writes,
                trials=blocks,
                seed=ctx.seed,
            )
            rows.append(
                (
                    label,
                    fault_count,
                    round(summary.cell_writes, 1),
                    round(summary.verification_reads, 2),
                    round(summary.inversion_writes, 2),
                    round(summary.repartitions, 3),
                )
            )
    return ExperimentResult(
        experiment_id="ext-writecost",
        title=(
            f"Extension: service cost per write vs resident faults "
            f"({block_bits}-bit blocks)"
        ),
        headers=(
            "Scheme",
            "Faults",
            "Cell writes",
            "Verify reads",
            "Inversion writes",
            "Re-partitions",
        ),
        rows=tuple(rows),
        notes=(
            "cache-assisted variants stay at one verification read and zero "
            "inversion re-writes regardless of fault count",
        ),
    )
