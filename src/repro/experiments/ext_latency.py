"""Extension: write-service latency under a device timing model.

Prices the §2.4 latency arguments: the fail cache buys single-pass writes
(one program + one verify regardless of faults), basic Aegis pays extra
passes as faults accumulate, and the double-write option's latency is
~3x a clean write even before its wear cost — "too high", quantified.
"""

from __future__ import annotations

from repro.analysis.latency import LatencyModel, latency_study
from repro.core.aegis import AegisScheme
from repro.core.aegis_dw import AegisDoubleWriteScheme
from repro.core.aegis_rw import AegisRwScheme
from repro.core.formations import formation
from repro.experiments.base import ExperimentResult, register
from repro.schemes.ecp import EcpScheme
from repro.schemes.safer import SaferScheme
from repro.sim.context import ExecContext


@register("ext-latency")
def run(
    ctx: ExecContext,
    *,
    block_bits: int = 512,
    fault_counts: tuple[int, ...] = (0, 6, 12),
    writes: int = 30,
    blocks: int = 6,
) -> ExperimentResult:
    """Mean write latency (ns) by scheme and resident fault count, over
    ``blocks`` faulty blocks per table row."""
    form = formation(9, 61, block_bits)
    model = LatencyModel()
    contenders = [
        ("Aegis 9x61", lambda c: AegisScheme(c, form), False),
        ("Aegis-rw 9x61", lambda c: AegisRwScheme(c, form), True),
        ("Aegis-dw 9x61", lambda c: AegisDoubleWriteScheme(c, form), False),
        ("SAFER64", lambda c: SaferScheme(c, 64), False),
        ("ECP12", lambda c: EcpScheme(c, 12), False),
    ]
    rows = []
    for label, factory, cache_assisted in contenders:
        for fault_count in fault_counts:
            summary = latency_study(
                label,
                factory,
                fault_count=fault_count,
                cache_assisted=cache_assisted,
                model=model,
                n_bits=block_bits,
                writes=writes,
                trials=blocks,
                seed=ctx.seed,
            )
            rows.append(
                (
                    label,
                    fault_count,
                    round(summary.mean_latency_ns, 1),
                    round(summary.passes_per_write, 2),
                    round(summary.slowdown_vs_single_pass, 2),
                )
            )
    return ExperimentResult(
        experiment_id="ext-latency",
        title=(
            f"Extension: write-service latency "
            f"(read {model.array_read_ns:.0f} ns, program {model.program_ns:.0f} ns)"
        ),
        headers=("Scheme", "Faults", "Latency (ns)", "Passes/write", "Slowdown (x)"),
        rows=tuple(rows),
        notes=(
            "cache-assisted Aegis-rw holds single-pass latency at any fault "
            "count; the double-write option starts at 3 passes — the §2.4 "
            "'latency too high' argument, quantified",
        ),
    )
