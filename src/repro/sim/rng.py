"""Deterministic random-stream management for the Monte Carlo engines.

Every experiment takes one integer seed; independent streams for pages,
trials, and schemes are spawned from it with numpy's ``SeedSequence`` so
results are reproducible regardless of execution order, and so the same
page population can be replayed under different schemes (a variance
reduction the paper's paired comparisons implicitly rely on).
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """A generator keyed by ``(seed, *keys)`` — stable across runs and
    independent across distinct key tuples."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=keys))
