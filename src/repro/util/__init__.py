"""Shared utilities: primes, bit operations, statistics, table rendering."""

from repro.util.bitops import (
    bits_to_int,
    ceil_log2,
    int_to_bits,
    offsets_from_mask,
)
from repro.util.primes import is_prime, mod_inverse, next_prime
from repro.util.stats import MeanEstimate, mean_ci
from repro.util.tables import render_series, render_table

__all__ = [
    "MeanEstimate",
    "bits_to_int",
    "ceil_log2",
    "int_to_bits",
    "is_prime",
    "mean_ci",
    "mod_inverse",
    "next_prime",
    "offsets_from_mask",
    "render_series",
    "render_table",
]
