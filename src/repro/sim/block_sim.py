"""Block-level Monte Carlo (Figures 8 and 10).

Figure 8 asks for the probability a single data block has failed once it
holds ``f`` faults.  Fault *positions* arrive in uniformly random order
(cell endurances are i.i.d., so death order is a uniform permutation) with
uniformly random stuck-at values; each arrival is fed to the scheme's
incremental checker and the fault count at death is recorded.

Figure 10 asks for a block's *lifetime in writes*, which additionally needs
the death times: endurances are sampled from the lifetime model, converted
to page-write time via the differential-write probability, and the lifetime
is the arrival time of the fatal fault (with the same inversion-wear
acceleration as the page simulator where applicable).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.pcm.faults import FaultModel, HardStuckAt, fault_model_for
from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.sim import kernels
from repro.sim.page_sim import (
    DEFAULT_INVERSION_WEAR,
    DEFAULT_WRITE_PROBABILITY,
)
from repro.sim.rng import rng_for
from repro.sim.roster import SchemeSpec
from repro.util.stats import MeanEstimate, mean_ci

_NORMAL, _ACCELERATED, _DEAD = 0, 1, 2


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
    count stays in *original* arrivals, masked faults included.
    """
    model = fault_model_for(fault_model)
    checker = spec.make_checker(rng)
    positions = rng.permutation(spec.n_bits)
    if isinstance(model, HardStuckAt):
        for count, offset in enumerate(positions, start=1):
            stuck_value = int(rng.integers(0, 2))
            if not checker.add_fault(int(offset), stuck_value):
                return count
        raise AssertionError(
            f"{spec.label}: block survived all {spec.n_bits} faults"
        )  # pragma: no cover - every scheme dies before saturation
    stream, numbers = model.transform_arrivals(positions, rng)
    for step, offset in enumerate(stream):
        stuck_value = int(rng.integers(0, 2))
        if not checker.add_fault(int(offset), stuck_value):
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
    (:mod:`repro.pcm.faults`); the hard default takes exactly the
    historical code path.
    """
    model = fault_model_for(fault_model)
    hard = isinstance(model, HardStuckAt)
    if trials > 0 and kernels.resolve_engine(engine, spec) == "vector":
        if hard:
            positions = np.stack(
                [
                    rng_for(seed, trial).permutation(spec.n_bits)
                    for trial in range(trials)
                ]
            )
            deaths = kernels.death_indices(spec, positions)
        else:
            # the model reshapes each trial's arrival stream from the same
            # substream position the scalar walk uses, so the unchanged
            # batch checker stays bit-identical to the scalar path
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


def block_lifetime(
    spec: SchemeSpec,
    rng: np.random.Generator,
    *,
    lifetime_model: LifetimeModel | None = None,
    write_probability: float = DEFAULT_WRITE_PROBABILITY,
    inversion_wear_rate: float = DEFAULT_INVERSION_WEAR,
    engine: str = "auto",
    fault_model: "FaultModel | str | None" = None,
) -> tuple[float, int]:
    """One block's (lifetime in writes, faults at death) under ``spec``.

    Both engines sample the cell endurances from ``rng`` first (and apply
    the fault model's death-time transform from the same substream
    position) and the batched scheduler replicates the scalar tie-breaking
    exactly (duplicated death times included), so the vector path returns
    exactly what the scalar path would.
    """
    model = lifetime_model if lifetime_model is not None else NormalLifetime()
    fmodel = fault_model_for(fault_model)
    if kernels.resolve_engine(engine, spec) == "vector":
        endurance = model.sample(spec.n_bits, rng)
        base_death = endurance / write_probability
        shaped, masked = fmodel.transform_base_death(base_death, spec.n_bits, rng)
        result = kernels.block_dynamics(
            spec,
            shaped[None, :],
            write_probability=write_probability,
            inversion_wear_rate=inversion_wear_rate,
        )
        lifetime = float(result.death_time[0])
        faults = int(result.death_faults[0])
        if masked is not None:
            # masked partial faults never reach the checker but are still
            # faults present in the block at death
            faults += int((base_death[masked] <= lifetime).sum())
        return lifetime, faults
    return _block_lifetime_scalar(
        spec, rng, model, write_probability, inversion_wear_rate, fmodel
    )


def _block_lifetime_scalar(
    spec: SchemeSpec,
    rng: np.random.Generator,
    model: LifetimeModel,
    write_probability: float,
    inversion_wear_rate: float,
    fmodel: FaultModel | None = None,
) -> tuple[float, int]:
    n_bits = spec.n_bits
    endurance = model.sample(n_bits, rng)
    base_death = endurance / write_probability
    original_death = base_death
    masked = None
    if fmodel is not None and not isinstance(fmodel, HardStuckAt):
        base_death, masked = fmodel.transform_base_death(base_death, n_bits, rng)
    order = np.argsort(base_death)
    status = np.zeros(n_bits, dtype=np.int8)
    checker = spec.make_checker(rng)
    accel_rate = write_probability + inversion_wear_rate
    apply_wear = spec.inversion_wear and inversion_wear_rate > 0
    heap: list[tuple[float, int]] = []
    cursor = 0
    deaths = 0
    while True:
        while cursor < n_bits and status[order[cursor]] != _NORMAL:
            cursor += 1
        t_base = float(base_death[order[cursor]]) if cursor < n_bits else np.inf
        t_heap = heap[0][0] if heap else np.inf
        if t_base <= t_heap:
            if cursor >= n_bits:
                raise AssertionError(
                    "block outlived every cell"
                )  # pragma: no cover
            now, cell = t_base, int(order[cursor])
            cursor += 1
        else:
            now, cell = heapq.heappop(heap)
            cell = int(cell)
            if status[cell] == _DEAD:
                continue
        status[cell] = _DEAD
        deaths += 1
        stuck_value = int(rng.integers(0, 2))
        if not checker.add_fault(cell, stuck_value):
            if masked is not None:
                # masked partial faults skipped the checker but are still
                # faults present in the block at death
                deaths += int((original_death[masked] <= now).sum())
            return now, deaths
        if apply_wear:
            for member in checker.group_members(cell):
                mate = int(member)
                if status[mate] != _NORMAL:
                    continue
                status[mate] = _ACCELERATED
                remaining = max(float(base_death[mate]) - now, 0.0)
                heapq.heappush(
                    heap, (now + remaining * write_probability / accel_rate, mate)
                )


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

    With a vector-capable scheme all trials advance through one batched
    :func:`repro.sim.kernels.block_dynamics` call that replicates the
    scalar scheduler's tie-breaking exactly, so the study is bit-identical
    to the scalar engine.
    """
    lifetimes: list[float] = []
    fault_counts: list[int] = []
    model = lifetime_model if lifetime_model is not None else NormalLifetime()
    fmodel = fault_model_for(fault_model)
    hard = isinstance(fmodel, HardStuckAt)
    if trials > 0 and kernels.resolve_engine(engine, spec) == "vector":
        rows = []
        corrections: list[tuple[np.ndarray, np.ndarray] | None] = []
        for trial in range(trials):
            rng = rng_for(seed, trial)
            base_death = model.sample(spec.n_bits, rng) / write_probability
            if hard:
                rows.append(base_death)
                corrections.append(None)
            else:
                shaped, masked = fmodel.transform_base_death(
                    base_death, spec.n_bits, rng
                )
                rows.append(shaped)
                corrections.append(
                    None if masked is None else (base_death, masked)
                )
        result = kernels.block_dynamics(
            spec,
            np.stack(rows),
            write_probability=write_probability,
            inversion_wear_rate=inversion_wear_rate,
        )
        lifetimes = [float(t) for t in result.death_time]
        fault_counts = [int(f) for f in result.death_faults]
        for trial, correction in enumerate(corrections):
            if correction is not None:
                base_death, masked = correction
                fault_counts[trial] += int(
                    (base_death[masked] <= lifetimes[trial]).sum()
                )
    else:
        for trial in range(trials):
            lifetime, faults = block_lifetime(
                spec,
                rng_for(seed, trial),
                lifetime_model=lifetime_model,
                write_probability=write_probability,
                inversion_wear_rate=inversion_wear_rate,
                engine="scalar",
                fault_model=fmodel,
            )
            lifetimes.append(lifetime)
            fault_counts.append(faults)
    return BlockLifetimeStudy(
        spec_key=spec.key,
        label=spec.label,
        overhead_bits=spec.overhead_bits,
        lifetime=mean_ci(lifetimes),
        faults=mean_ci(fault_counts),
    )
