"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formations import formation
from repro.core.geometry import rectangle_for
from repro.errors import UncorrectableError
from repro.pcm.lifetime import LifetimeModel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20131207)  # MICRO-46 opening day


@pytest.fixture
def paper_rect():
    """The paper's Figure 2 example: 32 bits in a 5x7 rectangle."""
    return rectangle_for(32, 7)


@pytest.fixture
def form_9x61():
    return formation(9, 61, 512)


@pytest.fixture
def form_23x23():
    return formation(23, 23, 512)


def random_data(rng: np.random.Generator, n_bits: int) -> np.ndarray:
    return rng.integers(0, 2, size=n_bits, dtype=np.uint8)


def write_until_failure(target, max_writes: int) -> int:
    """Random writes to a block or page until it fails or has serviced
    ``max_writes``; returns the writes serviced."""
    while target.writes_serviced < max_writes:
        try:
            target.write_random()
        except UncorrectableError:
            break
    return target.writes_serviced


class PreparedLifetime(LifetimeModel):
    """One fixed endurance sample, handed out unchanged."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        return self.values[:n_cells].copy()

    @property
    def mean(self) -> float:
        return float(self.values.mean())


class SequentialLifetime(LifetimeModel):
    """One prepared endurance array, handed out in successive slices: the
    ``k``-th draw of ``n`` cells gets the same values however the caller
    interleaves its other generator draws."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.drawn = 0

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        start, self.drawn = self.drawn, self.drawn + n_cells
        return self.values[start : self.drawn].copy()

    @property
    def mean(self) -> float:
        return float(self.values.mean())
