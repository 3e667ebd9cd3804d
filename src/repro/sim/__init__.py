"""Event-driven Monte Carlo engines reproducing the paper's evaluation."""

from repro.sim.block_sim import (
    BlockLifetimeStudy,
    FailureCurve,
    block_lifetime_study,
    failure_curve,
)
from repro.sim.checkers import DEFAULT_SAMPLES, BlockChecker
from repro.sim.page_sim import (
    DEFAULT_INVERSION_WEAR,
    DEFAULT_WRITE_PROBABILITY,
    FaultEvent,
    PageResult,
    PageStudy,
    run_page_study,
    simulate_page,
)
from repro.sim.context import ExecContext
from repro.sim.parallel import PageTask, SimExecutor, resolve_workers, run_study
from repro.sim.rng import rng_for
from repro.sim.roster import (
    RW_P_CHOICES,
    SchemeSpec,
    aegis_dynamic_spec,
    aegis_rw_p_spec,
    aegis_rw_spec,
    aegis_spec,
    ecp_spec,
    figure5_roster,
    figure8_roster,
    figure9_roster,
    hamming_spec,
    no_protection_spec,
    rdis_spec,
    safer_cache_spec,
    safer_spec,
    variants_roster,
)
from repro.sim.survival import (
    SurvivalCurve,
    survival_curve_from_lifetimes,
    survival_curve_from_study,
)

__all__ = [
    "DEFAULT_INVERSION_WEAR",
    "DEFAULT_SAMPLES",
    "DEFAULT_WRITE_PROBABILITY",
    "RW_P_CHOICES",
    "BlockChecker",
    "BlockLifetimeStudy",
    "ExecContext",
    "FailureCurve",
    "FaultEvent",
    "PageResult",
    "PageStudy",
    "PageTask",
    "SchemeSpec",
    "SimExecutor",
    "SurvivalCurve",
    "aegis_dynamic_spec",
    "aegis_rw_p_spec",
    "aegis_rw_spec",
    "aegis_spec",
    "block_lifetime_study",
    "ecp_spec",
    "failure_curve",
    "figure5_roster",
    "figure8_roster",
    "figure9_roster",
    "hamming_spec",
    "no_protection_spec",
    "rdis_spec",
    "resolve_workers",
    "rng_for",
    "run_page_study",
    "run_study",
    "safer_cache_spec",
    "safer_spec",
    "simulate_page",
    "survival_curve_from_lifetimes",
    "survival_curve_from_study",
    "variants_roster",
]
