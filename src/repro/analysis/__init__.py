"""Analytic companions to the Monte Carlo evaluation."""

from repro.analysis.frontier import FrontierAnalysis, SchemePoint, pareto_frontier
from repro.analysis.latency import LatencyModel, LatencySummary, latency_study
from repro.analysis.softftc import (
    aegis_expected_soft_ftc,
    aegis_failure_probability,
    birthday_collision_probability,
    safer_birthday_soft_ftc,
)
from repro.analysis.writecost import WriteCostSummary, write_cost_study

__all__ = [
    "FrontierAnalysis",
    "LatencyModel",
    "LatencySummary",
    "SchemePoint",
    "WriteCostSummary",
    "pareto_frontier",
    "aegis_expected_soft_ftc",
    "aegis_failure_probability",
    "birthday_collision_probability",
    "latency_study",
    "safer_birthday_soft_ftc",
    "write_cost_study",
]
