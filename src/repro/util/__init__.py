"""Shared utilities: primes, bit operations, statistics, table rendering."""

from repro.util.bitops import ceil_log2
from repro.util.primes import is_prime, mod_inverse, next_prime
from repro.util.stats import MeanEstimate, mean_ci
from repro.util.tables import render_series, render_table

__all__ = [
    "MeanEstimate",
    "ceil_log2",
    "is_prime",
    "mean_ci",
    "mod_inverse",
    "next_prime",
    "render_series",
    "render_table",
]
