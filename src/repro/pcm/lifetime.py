"""Cell-lifetime models (paper §3.1).

The paper assigns every PCM cell an endurance limit — the number of writes
it sustains before becoming stuck — drawn from a normal distribution with a
mean of 1e8 writes and a 25% coefficient of variation, with no spatial
correlation between neighbouring cells.  This module implements that model
(plus a couple of alternatives useful for sensitivity studies) behind a
single small interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: the paper's mean endurance in writes
PAPER_MEAN_LIFETIME = 1e8

#: the paper's coefficient of variation
PAPER_COV = 0.25


class LifetimeModel(ABC):
    """Draws per-cell endurance limits (in cell writes)."""

    @abstractmethod
    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n_cells`` positive endurance values (float64)."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Mean endurance of the distribution."""


@dataclass(frozen=True)
class NormalLifetime(LifetimeModel):
    """The paper's model: Normal(mean, cov*mean), truncated below at one write.

    With cov = 0.25 the probability mass below zero is ~3e-5, so truncation
    is a negligible correction rather than a distortion.
    """

    mean_lifetime: float = PAPER_MEAN_LIFETIME
    cov: float = PAPER_COV

    def __post_init__(self) -> None:
        if self.mean_lifetime <= 0:
            raise ConfigurationError("mean lifetime must be positive")
        if self.cov < 0:
            raise ConfigurationError("coefficient of variation must be non-negative")

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        draws = rng.normal(self.mean_lifetime, self.cov * self.mean_lifetime, size=n_cells)
        return np.maximum(draws, 1.0)

    @property
    def mean(self) -> float:
        return self.mean_lifetime


@dataclass(frozen=True)
class LogNormalLifetime(LifetimeModel):
    """Log-normal endurance — a heavier-tailed alternative used in
    sensitivity ablations (some PCM endurance studies report log-normal
    variation; the paper itself uses the normal model above)."""

    mean_lifetime: float = PAPER_MEAN_LIFETIME
    cov: float = PAPER_COV

    def __post_init__(self) -> None:
        if self.mean_lifetime <= 0:
            raise ConfigurationError("mean lifetime must be positive")
        if self.cov <= 0:
            raise ConfigurationError("coefficient of variation must be positive")

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        sigma2 = np.log1p(self.cov**2)
        mu = np.log(self.mean_lifetime) - sigma2 / 2
        return np.exp(rng.normal(mu, np.sqrt(sigma2), size=n_cells))

    @property
    def mean(self) -> float:
        return self.mean_lifetime


@dataclass(frozen=True)
class CorrelatedLifetime(LifetimeModel):
    """Spatially correlated endurance — probes the paper's "no correlation
    between neighbouring cells" assumption (§3.1).

    Cells are grouped into clusters of ``cluster_size`` adjacent cells;
    each cluster draws a common multiplicative factor (log-normal with
    coefficient of variation ``cluster_cov``) applied on top of per-cell
    Normal draws.  ``cluster_cov = 0`` degenerates to the paper's model.
    Correlated weak clusters concentrate faults inside individual data
    blocks, which is exactly the regime partition schemes handle worst.
    """

    mean_lifetime: float = PAPER_MEAN_LIFETIME
    cov: float = PAPER_COV
    cluster_size: int = 64
    cluster_cov: float = 0.25

    def __post_init__(self) -> None:
        if self.mean_lifetime <= 0:
            raise ConfigurationError("mean lifetime must be positive")
        if self.cov < 0 or self.cluster_cov < 0:
            raise ConfigurationError("coefficients of variation must be non-negative")
        if self.cluster_size < 1:
            raise ConfigurationError("cluster size must be positive")

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        base = rng.normal(self.mean_lifetime, self.cov * self.mean_lifetime, size=n_cells)
        n_clusters = -(-n_cells // self.cluster_size)
        if self.cluster_cov > 0:
            # the generator's own lognormal takes libm's exp of the same
            # normal draws; np.exp's AVX-512 kernel rounds some differently
            sigma2 = np.log1p(self.cluster_cov**2)
            factors = rng.lognormal(-sigma2 / 2, np.sqrt(sigma2), size=n_clusters)
        else:
            factors = np.ones(n_clusters)
        per_cell = np.repeat(factors, self.cluster_size)[:n_cells]
        return np.maximum(base * per_cell, 1.0)

    @property
    def mean(self) -> float:
        return self.mean_lifetime


@dataclass(frozen=True)
class WearSkewLifetime(LifetimeModel):
    """Wear-leveling quality expressed as an endurance skew.

    A perfect wear-leveler spreads traffic evenly, so a cell's sampled
    endurance *is* its observed lifetime; weaker policies concentrate
    writes on a hot fraction of cells, which therefore reach their limit
    early.  This wrapper models that as a deterministic positional skew:
    cells whose position hashes into the hot set have their sampled
    endurance divided by ``hot_rate`` (they see ``hot_rate``× the average
    write rate).  Positions — not RNG draws — select the hot set, so the
    wrapper never perturbs the base model's random stream:
    ``hot_fraction=0`` (or ``hot_rate=1``) is bit-identical to the base
    model, which is what keeps default fleet-campaign digests stable.
    """

    base: LifetimeModel
    hot_fraction: float
    hot_rate: float
    salt: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigurationError("hot fraction must be in [0, 1]")
        if self.hot_rate < 1.0:
            raise ConfigurationError("hot rate must be >= 1")

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        draws = self.base.sample(n_cells, rng)
        if self.hot_fraction <= 0.0 or self.hot_rate == 1.0:
            return draws
        positions = np.arange(n_cells, dtype=np.uint64)
        hashed = (
            positions * np.uint64(2654435761) + np.uint64(self.salt)
        ) & np.uint64(0xFFFFFFFF)
        hot = hashed < np.uint64(int(round(self.hot_fraction * 2**32)))
        draws[hot] = np.maximum(draws[hot] / self.hot_rate, 1.0)
        return draws

    @property
    def mean(self) -> float:
        # the base distribution's mean: retention edges and ages derived
        # from it stay comparable across wear policies in the same grid
        return self.base.mean


@dataclass(frozen=True)
class FixedLifetime(LifetimeModel):
    """Deterministic endurance — every cell dies after exactly the same
    number of writes.  Useful for unit tests that need reproducible fault
    arrival without seeding games."""

    mean_lifetime: float = PAPER_MEAN_LIFETIME

    def __post_init__(self) -> None:
        if self.mean_lifetime <= 0:
            raise ConfigurationError("mean lifetime must be positive")

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n_cells, float(self.mean_lifetime))

    @property
    def mean(self) -> float:
        return self.mean_lifetime
