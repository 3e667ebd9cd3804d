"""Small statistics helpers for Monte Carlo result reporting.

The experiment drivers report sample means with normal-approximation
confidence intervals and empirical survival curves.  Everything here is a
thin, well-tested wrapper over numpy so the experiment modules stay
readable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: two-sided z values for common confidence levels
_Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class MeanEstimate:
    """A sample mean with its half-width confidence interval."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


def mean_ci(samples: np.ndarray | list[float], confidence: float = 0.95) -> MeanEstimate:
    """Sample mean with a normal-approximation confidence interval.

    >>> est = mean_ci([1.0, 2.0, 3.0, 4.0])
    >>> round(est.mean, 3)
    2.5
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot estimate a mean from zero samples")
    z = _Z_VALUES.get(confidence)
    if z is None:
        raise ValueError(f"unsupported confidence level {confidence!r}")
    mean = float(data.mean())
    if data.size == 1:
        return MeanEstimate(mean=mean, half_width=math.inf, n=1)
    sem = float(data.std(ddof=1)) / math.sqrt(data.size)
    return MeanEstimate(mean=mean, half_width=z * sem, n=int(data.size))


class RunningMean:
    """Streaming mean/variance accumulator (Welford's algorithm).

    Numerically stable one-pass replacement for re-running :func:`mean_ci`
    over a growing sample list — the sequential-stopping loop in
    :func:`repro.sim.page_sim.run_page_study` pushes each new page result
    once and reads the current interval in O(1), instead of rebuilding a
    Python list and recomputing mean/std every batch (O(n²) overall).

    >>> acc = RunningMean()
    >>> for x in (1.0, 2.0, 3.0, 4.0):
    ...     acc.push(x)
    >>> round(acc.estimate().mean, 3), acc.n
    (2.5, 4)
    """

    __slots__ = ("n", "_mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self.n += 1
        delta = value - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (value - self._mean)

    def merge(self, other: "RunningMean") -> None:
        """Fold another accumulator in (Chan's parallel combination).

        The fleet campaign engine's shard-side reduction depends on this:
        workers fold their chunk of pages into a compact accumulator and
        only the ``(n, mean, M2)`` triple crosses the process boundary.
        The combination is exact in exact arithmetic; in floats the result
        depends on merge order, which is why the campaign engine always
        merges shards in deterministic chunk-index order.
        """
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self._mean, self._m2 = other.n, other._mean, other._m2
            return
        total = self.n + other.n
        delta = other._mean - self._mean
        self._mean += delta * other.n / total
        self._m2 += other._m2 + delta * delta * self.n * other.n / total
        self.n = total

    def state(self) -> dict:
        """Picklable/JSON-able moment triple, for campaign checkpoints."""
        return {"n": self.n, "mean": self._mean, "m2": self._m2}

    @classmethod
    def from_state(cls, state: dict) -> "RunningMean":
        """Inverse of :meth:`state` (bit-exact restoration)."""
        acc = cls()
        acc.n = int(state["n"])
        acc._mean = float(state["mean"])
        acc._m2 = float(state["m2"])
        return acc

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("cannot estimate a mean from zero samples")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``ddof=1``)."""
        if self.n < 2:
            raise ValueError("sample variance needs at least two samples")
        return self._m2 / (self.n - 1)

    def estimate(self, confidence: float = 0.95) -> MeanEstimate:
        """Current mean with its normal-approximation interval."""
        if self.n == 0:
            raise ValueError("cannot estimate a mean from zero samples")
        z = _Z_VALUES.get(confidence)
        if z is None:
            raise ValueError(f"unsupported confidence level {confidence!r}")
        if self.n == 1:
            return MeanEstimate(mean=self._mean, half_width=math.inf, n=1)
        sem = math.sqrt(self.variance / self.n)
        return MeanEstimate(mean=self._mean, half_width=z * sem, n=self.n)


def survival_curve(death_times: np.ndarray | list[float], grid: np.ndarray) -> np.ndarray:
    """Empirical survival fraction ``P(T > t)`` evaluated on ``grid``.

    ``death_times`` are the per-individual failure times; the result has one
    entry per grid point giving the fraction of the population still alive.
    """
    deaths = np.sort(np.asarray(death_times, dtype=np.float64))
    grid = np.asarray(grid, dtype=np.float64)
    dead_counts = np.searchsorted(deaths, grid, side="right")
    return 1.0 - dead_counts / deaths.size


def half_life(death_times: np.ndarray | list[float]) -> float:
    """Time by which half the population has died (the paper's *half lifetime*)."""
    deaths = np.asarray(death_times, dtype=np.float64)
    if deaths.size == 0:
        raise ValueError("cannot compute a half life from zero samples")
    return float(np.median(deaths))


def geometric_mean(values: np.ndarray | list[float]) -> float:
    """Geometric mean of strictly positive values."""
    data = np.asarray(values, dtype=np.float64)
    if np.any(data <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(data))))
