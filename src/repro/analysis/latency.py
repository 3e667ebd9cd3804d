"""Write-service latency model.

The paper argues latency qualitatively — the double-write option is
rejected because "its latency [is] too high", and the fail cache's
viability depends on "relative times of reading from the cache and writing
into the PCM" (§2.4).  This module prices a serviced write from the
per-write averages of :func:`~repro.analysis.writecost.write_cost_study`
under a simple device timing model, so those arguments become numbers:

* every write *pass* costs one program pulse plus its verification read
  (the receipts' ``verification_reads`` count the passes);
* every re-partition trial costs a combinational lookup (the Figure 3
  ROM);
* cache-assisted schemes pay one SRAM lookup before the first pass.

Default timings follow common PCM literature values (array read ~120 ns,
program ~150 ns, SRAM ~5 ns); all are parameters.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis.writecost import write_cost_study
from repro.errors import ConfigurationError
from repro.pcm.cell import CellArray
from repro.schemes.base import RecoveryScheme


@dataclass(frozen=True)
class LatencyModel:
    """Operation timings in nanoseconds."""

    array_read_ns: float = 120.0
    program_ns: float = 150.0
    cache_lookup_ns: float = 5.0
    logic_ns: float = 1.0

    def __post_init__(self) -> None:
        for name in ("array_read_ns", "program_ns", "cache_lookup_ns", "logic_ns"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    def write_latency_ns(
        self, passes: float, repartitions: float, *, cache_assisted: bool = False
    ) -> float:
        """Service latency of a write of ``passes`` program-and-verify
        passes and ``repartitions`` re-partition trials (per-write averages
        are priced as they are)."""
        latency = passes * (self.program_ns + self.array_read_ns)
        latency += repartitions * self.logic_ns
        if cache_assisted:
            latency += self.cache_lookup_ns
        return latency


@dataclass(frozen=True)
class LatencySummary:
    """Average service latency of a scheme at a fixed fault count."""

    label: str
    fault_count: int
    mean_latency_ns: float
    passes_per_write: float

    @property
    def slowdown_vs_single_pass(self) -> float:
        """Latency relative to a clean single-pass write."""
        single = LatencyModel()
        baseline = single.program_ns + single.array_read_ns
        return self.mean_latency_ns / baseline


def latency_study(
    label: str,
    scheme_factory: Callable[[CellArray], RecoveryScheme],
    *,
    fault_count: int = 8,
    cache_assisted: bool = False,
    model: LatencyModel | None = None,
    n_bits: int = 512,
    writes: int = 40,
    trials: int = 8,
    seed: int = 0,
) -> LatencySummary:
    """Average write latency of a scheme at a given resident fault count."""
    timing = model if model is not None else LatencyModel()
    costs = write_cost_study(
        label,
        scheme_factory,
        n_bits=n_bits,
        fault_count=fault_count,
        writes=writes,
        trials=trials,
        seed=seed,
    )
    # verification_reads is a per-write average, so fractional passes are
    # priced directly for a faithful mean latency
    passes = max(costs.verification_reads, 1.0)
    return LatencySummary(
        label=label,
        fault_count=fault_count,
        mean_latency_ns=timing.write_latency_ns(
            passes, costs.repartitions, cache_assisted=cache_assisted
        ),
        passes_per_write=passes,
    )
