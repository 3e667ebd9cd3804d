"""Block-level Monte Carlo (Figures 8 and 10).

Figure 8 asks for the probability a single data block has failed once it
holds ``f`` faults.  Fault *positions* arrive in uniformly random order
(cell endurances are i.i.d., so death order is a uniform permutation) with
uniformly random stuck-at values; each arrival is fed to the scheme's
incremental checker and the fault count at death is recorded.

Figure 10 asks for a block's *lifetime in writes*, which additionally needs
the death times.  That is the page Monte Carlo of
:mod:`repro.sim.page_sim` on a page of one block: the same endurance
sample, differential-write time scale, inversion-wear acceleration and
cell-death scheduler, so this module has no scheduler of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pcm.faults import FaultModel, fault_model_for
from repro.pcm.lifetime import LifetimeModel
from repro.sim import kernels
from repro.sim.page_sim import (
    DEFAULT_INVERSION_WEAR,
    DEFAULT_WRITE_PROBABILITY,
    simulate_pages,
)
from repro.sim.rng import BitSource, rng_for
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


def faults_at_death(
    spec: SchemeSpec,
    rng: np.random.Generator,
    fault_model: "FaultModel | str | None" = None,
) -> int:
    """Feed uniformly random fault arrivals to one block until it dies;
    returns the fault count at death (including the fatal fault).

    A non-hard ``fault_model`` reshapes the arrival stream (masked partial
    faults skip the checker, drift bursts arrive together); the reported
    count stays in *original* arrivals, masked faults included.  The hard
    model's transform is the identity and draws nothing.  The stuck values
    and the checker's patterns come from one :class:`~repro.sim.rng.BitSource`
    on ``rng``, opened after the arrival stream is drawn.
    """
    model = fault_model_for(fault_model)
    positions = rng.permutation(spec.n_bits)
    stream, numbers = model.transform_arrivals(positions, rng)
    with BitSource(rng) as bits:
        checker = spec.make_checker(bits)
        for step, offset in enumerate(stream):
            if not checker.add_fault(int(offset), bits.bit()):
                return step + 1 if numbers is None else int(numbers[step])
    raise AssertionError(
        f"{spec.label}: block survived all {spec.n_bits} faults"
    )  # pragma: no cover - every scheme dies before saturation


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

    ``engine`` selects the execution path: ``"scalar"`` walks each trial
    through the incremental checker, ``"auto"`` advances the whole trial
    population per fault arrival with the batch kernels of
    :mod:`repro.sim.kernels` whenever one covers the scheme (and walks
    the checker otherwise).  Both paths
    consume the same ``rng_for(seed, trial)`` substreams and return
    bit-identical curves.  ``fault_model`` selects the arrival statistics
    (:mod:`repro.pcm.faults`).
    """
    model = fault_model_for(fault_model)
    if trials > 0 and kernels.resolve_engine(engine, spec) == "vector":
        # the model reshapes each trial's arrival stream from the same
        # substream position the scalar walk uses, so the unchanged batch
        # checker stays bit-identical to the scalar path
        streams = []
        number_rows = []
        for trial in range(trials):
            rng = rng_for(seed, trial)
            stream, numbers = model.transform_arrivals(
                rng.permutation(spec.n_bits), rng
            )
            streams.append(stream)
            number_rows.append(numbers)
        raw = kernels.death_indices(spec, np.stack(streams))
        deaths = np.array(
            [
                int(k) if numbers is None else int(numbers[int(k) - 1])
                for k, numbers in zip(raw, number_rows)
            ]
        )
    else:
        deaths = np.array(
            [
                faults_at_death(spec, rng_for(seed, trial), model)
                for trial in range(trials)
            ]
        )
    counts = tuple(range(1, max_faults + 1))
    probabilities = tuple(float((deaths <= f).mean()) for f in counts)
    return FailureCurve(
        spec_key=spec.key,
        label=spec.label,
        overhead_bits=spec.overhead_bits,
        fault_counts=counts,
        probabilities=probabilities,
    )


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
