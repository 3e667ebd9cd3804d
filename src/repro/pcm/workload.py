"""Write-traffic workload generators.

The paper's evaluation assumes uniform page-write traffic plus perfect wear
leveling (§3.1).  Real traffic is skewed — which is precisely why wear
leveling exists — so the device model accepts a workload generator and a
leveling policy separately, letting the ablation benchmarks measure how
close Start-Gap gets to the perfect-leveling assumption under realistic
skew.

A workload draws *logical* page indices; the wear-leveling policy maps them
to physical pages.

Workload instances may carry mutable draw state (Zipf's cached CDF and
permutation), so each shard of a sharded run needs its own instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


class Workload(ABC):
    """Draws logical page indices for successive write requests.

    Implementations must be deterministic given the ``rng`` stream.
    """

    @abstractmethod
    def next_logical_page(self, n_pages: int, rng: np.random.Generator) -> int:
        """Logical index in ``[0, n_pages)`` of the next write."""


class UniformWorkload(Workload):
    """The paper's workload: every logical page equally likely."""

    def next_logical_page(self, n_pages: int, rng: np.random.Generator) -> int:
        return int(rng.integers(0, n_pages))


@dataclass
class ZipfWorkload(Workload):
    """Zipf-distributed page popularity (rank ``r`` gets weight ``r^-alpha``).

    A fixed random permutation decouples popularity rank from page index,
    so hot pages are scattered across the address space.
    """

    alpha: float = 1.0
    _cdf: np.ndarray | None = field(default=None, repr=False)
    _perm: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ConfigurationError("Zipf exponent must be positive")

    def _prepare(self, n_pages: int, rng: np.random.Generator) -> None:
        weights = np.arange(1, n_pages + 1, dtype=np.float64) ** (-self.alpha)
        self._cdf = np.cumsum(weights / weights.sum())
        self._perm = rng.permutation(n_pages)

    def next_logical_page(self, n_pages: int, rng: np.random.Generator) -> int:
        if self._cdf is None or self._cdf.size != n_pages:
            self._prepare(n_pages, rng)
        rank = int(np.searchsorted(self._cdf, rng.random()))
        return int(self._perm[rank])


@dataclass
class HotColdWorkload(Workload):
    """A fraction of pages receives a disproportionate share of writes
    (the classic 90/10 skew by default)."""

    hot_fraction: float = 0.1
    hot_share: float = 0.9

    def __post_init__(self) -> None:
        if not 0 < self.hot_fraction < 1:
            raise ConfigurationError("hot fraction must be in (0, 1)")
        if not 0 < self.hot_share < 1:
            raise ConfigurationError("hot share must be in (0, 1)")

    def next_logical_page(self, n_pages: int, rng: np.random.Generator) -> int:
        hot_pages = max(1, int(self.hot_fraction * n_pages))
        if rng.random() < self.hot_share:
            return int(rng.integers(0, hot_pages))
        if hot_pages >= n_pages:
            return int(rng.integers(0, n_pages))
        return int(rng.integers(hot_pages, n_pages))
