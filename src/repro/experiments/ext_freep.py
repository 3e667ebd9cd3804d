"""Extension: FREE-p-style spare-block remapping above each scheme.

§4: "FREE-p is another scheme relying on OS to re-direct access of a faulty
block ... With Aegis's strong fault tolerance capability, the re-direction
as well as loss of faulty pages can be substantially delayed."  This
experiment sweeps the spare budget and compares how much lifetime each
in-chip scheme extracts per spare — the paper's claim shows up as Aegis
needing far fewer remaps for the same lifetime.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register
from repro.remap.sim import remap_page_study
from repro.sim.context import ExecContext
from repro.sim.roster import aegis_spec, ecp_spec


@register("ext-freep")
def run(
    ctx: ExecContext,
    *,
    block_bits: int = 512,
    n_pages: int = 32,
    spare_counts: tuple[int, ...] = (0, 1, 2, 4, 8),
) -> ExperimentResult:
    """Page lifetime vs spare budget for ECP6 and Aegis 17x31."""
    rows = []
    for spec in (ecp_spec(6, block_bits), aegis_spec(17, 31, block_bits)):
        for spares in spare_counts:
            result = remap_page_study(
                spec, spares=spares, blocks_per_page=16, n_pages=n_pages, ctx=ctx
            )
            rows.append(
                (
                    spec.label,
                    spares,
                    f"{result.lifetime.mean:.4g}",
                    round(result.faults.mean, 1),
                )
            )
    return ExperimentResult(
        experiment_id="ext-freep",
        title=(
            f"Extension: FREE-p spare-block remapping "
            f"(16-block pages, {n_pages} pages)"
        ),
        headers=(
            "Scheme",
            "Spares",
            "Page lifetime (writes)",
            "Faults recovered",
        ),
        rows=tuple(rows),
        notes=(
            "expect: lifetime grows with spares for both schemes, and Aegis "
            "reaches any given lifetime with far fewer spares (the paper's "
            "'substantially delayed' re-direction)",
        ),
    )
