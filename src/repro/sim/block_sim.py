"""Block-level Monte Carlo (Figures 8 and 10).

Both studies are the page Monte Carlo of :mod:`repro.sim.page_sim` on a
page of one block: the same endurance sample, differential-write time
scale and cell-death scheduler, so this module has no scheduler of its
own.

Figure 8 asks for the probability a single data block has failed once it
holds ``f`` faults, so it needs only the fault count at death.  Without
inversion wear the death order of i.i.d. endurances is a uniform
permutation of the cells, each dying with a uniformly random stuck-at
value, so the curve runs the scheduler with wear off.

Figure 10 asks for a block's *lifetime in writes*, which additionally needs
the death times and the inversion-wear acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.pcm.faults import FaultModel
from repro.pcm.lifetime import LifetimeModel
from repro.sim.page_sim import (
    DEFAULT_INVERSION_WEAR,
    DEFAULT_WRITE_PROBABILITY,
    simulate_pages,
)
from repro.sim.roster import SchemeSpec
from repro.util.stats import MeanEstimate, mean_ci


@dataclass(frozen=True)
class FailureCurve:
    """Empirical block failure probability by fault count (one Figure 8 line)."""

    spec_key: str
    label: str
    overhead_bits: int
    fault_counts: tuple[int, ...]
    probabilities: tuple[float, ...]

    def probability_at(self, fault_count: int) -> float:
        if fault_count < self.fault_counts[0]:
            return 0.0
        if fault_count >= self.fault_counts[-1]:
            return self.probabilities[-1]
        return self.probabilities[fault_count - self.fault_counts[0]]


def failure_curve(
    spec: SchemeSpec,
    *,
    trials: int = 2000,
    max_faults: int = 40,
    seed: int = 2013,
    engine: str = "auto",
    fault_model: "FaultModel | str | None" = None,
) -> FailureCurve:
    """Estimate P(block failed | f faults present) for f = 1..max_faults.

    Trial ``t`` is :func:`~repro.sim.page_sim.simulate_pages` page ``t``
    on a one-block page without inversion wear, so it draws from
    ``rng_for(seed, t)`` and runs the same cell-death scheduler (batch
    kernel or scalar walk, bit-identical across ``engine``) as the page
    studies.  Its faults at death are the page's recovered faults plus
    the fatal one; ``fault_model`` reshapes the death times
    (:mod:`repro.pcm.faults`), and masked partial faults still count.
    """
    _check_trials(trials)
    results = simulate_pages(
        spec,
        1,
        range(trials),
        seed,
        inversion_wear_rate=0.0,
        engine=engine,
        fault_model=fault_model,
    )
    deaths = np.array([r.faults_recovered + 1 for r in results])
    counts = tuple(range(1, max_faults + 1))
    probabilities = tuple(float((deaths <= f).mean()) for f in counts)
    return FailureCurve(
        spec_key=spec.key,
        label=spec.label,
        overhead_bits=spec.overhead_bits,
        fault_counts=counts,
        probabilities=probabilities,
    )


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError(f"a block study needs at least one trial, got {trials}")


@dataclass(frozen=True)
class BlockLifetimeStudy:
    """Block lifetime in writes (one Figure 10 point)."""

    spec_key: str
    label: str
    overhead_bits: int
    lifetime: MeanEstimate
    faults: MeanEstimate


def block_lifetime_study(
    spec: SchemeSpec,
    *,
    trials: int = 200,
    seed: int = 2013,
    lifetime_model: LifetimeModel | None = None,
    write_probability: float = DEFAULT_WRITE_PROBABILITY,
    inversion_wear_rate: float = DEFAULT_INVERSION_WEAR,
    engine: str = "auto",
    fault_model: "FaultModel | str | None" = None,
) -> BlockLifetimeStudy:
    """Mean block lifetime over ``trials`` independent blocks.

    A block's lifetime is the page Monte Carlo on a one-block page: trial
    ``t`` is :func:`~repro.sim.page_sim.simulate_pages` page ``t``, so it
    draws from ``rng_for(seed, t)`` and runs the same cell-death scheduler
    (batch kernel or scalar walk, bit-identical) as the page studies.
    The block's faults at death are the page's recovered faults plus the
    fatal one.
    """
    _check_trials(trials)
    results = simulate_pages(
        spec,
        1,
        range(trials),
        seed,
        lifetime_model=lifetime_model,
        write_probability=write_probability,
        inversion_wear_rate=inversion_wear_rate,
        engine=engine,
        fault_model=fault_model,
    )
    return BlockLifetimeStudy(
        spec_key=spec.key,
        label=spec.label,
        overhead_bits=spec.overhead_bits,
        lifetime=mean_ci([r.lifetime_writes for r in results]),
        faults=mean_ci([r.faults_recovered + 1 for r in results]),
    )
