"""Extension: the paper's full 8 MB population, exactly (2048 pages).

The other drivers sample the page population (pages are i.i.d.); this
experiment instead runs the *entire* 2048-page chip through the page-level
Monte Carlo for the static schemes (ECP, SAFER and plain Aegis), reporting
Figure 5's fault capacities and Figure 9's half lifetimes with no
population-sampling error at all.  Inversion wear is switched off so every
cell wears at the plain write rate.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register
from repro.sim.context import ExecContext
from repro.sim.page_sim import run_page_study
from repro.sim.roster import aegis_spec, ecp_spec, safer_spec
from repro.sim.survival import survival_curve_from_lifetimes


@register("ext-fullscale")
def run(
    ctx: ExecContext,
    *,
    block_bits: int = 512,
    n_pages: int = 2048,
) -> ExperimentResult:
    """Full-chip page study of the static schemes without inversion wear."""
    specs = (
        *(ecp_spec(pointers, block_bits) for pointers in (4, 6)),
        *(safer_spec(groups, block_bits) for groups in (32, 64, 128)),
        *(aegis_spec(a, b, block_bits) for a, b in ((23, 23), (17, 31), (9, 61))),
    )
    rows = []
    for spec in specs:
        study = run_page_study(spec, n_pages=n_pages, ctx=ctx, inversion_wear_rate=0.0)
        curve = survival_curve_from_lifetimes(study.lifetimes())
        rows.append(
            (
                spec.label,
                len(study.results),
                round(study.faults.mean, 1),
                round(study.faults.half_width, 1),
                f"{curve.half_lifetime:.4g}",
            )
        )
    return ExperimentResult(
        experiment_id="ext-fullscale",
        title=(
            f"Extension: full-chip run ({n_pages} pages; static schemes, "
            f"no inversion-wear amplification)"
        ),
        headers=(
            "Scheme",
            "Pages",
            "Faults/page",
            "±95% CI",
            "Half lifetime (writes)",
        ),
        rows=tuple(rows),
        notes=(
            "rows omit the extra wear that group inversions put on cells "
            "sharing a group with a fault, so capacities run above the default "
            "page study (SAFER ~1.6-1.7x, Aegis ~6-13%) while ECP is unchanged",
            "the population CI shrinks to a fraction of a percent at this scale",
        ),
    )
