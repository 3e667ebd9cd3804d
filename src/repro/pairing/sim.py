"""Usable-capacity timeline with and without dynamic pairing.

For each page, every data block's death *age* (page writes) is simulated
independently: each block is a one-block page of the page Monte Carlo
(:func:`repro.sim.page_sim.simulate_page`, without inversion wear, under the
context's fault model), on the scalar scheduler and the page's shared
generator; a page is standalone-usable until its first block death, and
a dead page's failed-block set grows as further blocks die.  At sampled
ages the study reports usable capacity in page-equivalents, with failed
pages either retired outright or reclaimed through maximum-cardinality
pairing.

The expected interplay (the paper's §1.1 argument): with weak in-chip
protection pairing recovers a sizeable fraction of capacity, but a strong
scheme like Aegis pushes block deaths so close together — wear-out is a
cliff — that by the time pages fail, compatible partners are scarce and
the whole device is near end-of-life anyway.

Execution rides the unified plane (:mod:`repro.sim.context`): page ``p``
draws every random number from ``rng_for(seed, p, 13)``, so the
:func:`~repro.sim.parallel.run_study` fan-out produces bit-identical
studies for every worker count.  The blocks of a page share one generator
and the batch kernels skip the stuck-value draws a scalar walk makes, so a
kernel would shift every later block's draws: every ``engine`` takes the
scalar scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pairing.pairing import FailedPage, pair_failed_pages
from repro.pcm.lifetime import LifetimeModel
from repro.sim.context import ExecContext
from repro.sim.page_sim import DEFAULT_WRITE_PROBABILITY, simulate_page
from repro.sim.parallel import run_study
from repro.sim.rng import rng_for
from repro.sim.roster import SchemeSpec

#: substream salt separating pairing pages from other studies' pages
_PAIRING_SALT = 13


@dataclass(frozen=True)
class PairingStudy:
    """Usable capacity over device age, without and with pairing."""

    spec_label: str
    n_pages: int
    ages: tuple[float, ...]
    usable_without: tuple[float, ...]  # fraction of page-equivalents
    usable_with: tuple[float, ...]

    @property
    def peak_gain(self) -> float:
        """Largest capacity fraction pairing ever adds back."""
        return max(
            w - wo for w, wo in zip(self.usable_with, self.usable_without)
        )


@dataclass(frozen=True)
class PairingTask:
    """Everything a worker needs to age any page of one pairing study."""

    spec: SchemeSpec
    blocks_per_page: int
    seed: int
    lifetime_model: LifetimeModel | None
    write_probability: float
    fault_model: str


def simulate_pairing_page(task: PairingTask, page_index: int) -> np.ndarray:
    """Block death ages of one page — the picklable unit of fan-out."""
    rng = rng_for(task.seed, page_index, _PAIRING_SALT)
    return np.array(
        [
            simulate_page(
                task.spec,
                1,
                rng,
                lifetime_model=task.lifetime_model,
                write_probability=task.write_probability,
                inversion_wear_rate=0.0,
                engine="scalar",
                fault_model=task.fault_model,
            ).lifetime_writes
            for _ in range(task.blocks_per_page)
        ]
    )


def pairing_study(
    spec: SchemeSpec,
    *,
    n_pages: int = 48,
    blocks_per_page: int = 16,
    grid_points: int = 12,
    seed: int = 2013,
    lifetime_model: LifetimeModel | None = None,
    write_probability: float = DEFAULT_WRITE_PROBABILITY,
    ctx: ExecContext | None = None,
) -> PairingStudy:
    """Simulate a page population and compare retire-on-failure against
    dynamic pairing at ``grid_points`` sampled ages.

    ``ctx`` supplies the execution plane (seed, workers, engine); when
    absent, a serial context built from ``seed`` is used.  Results are
    bit-identical for every worker count.
    """
    if ctx is None:
        ctx = ExecContext(seed=seed)
    task = PairingTask(
        spec=spec,
        blocks_per_page=blocks_per_page,
        seed=ctx.seed,
        lifetime_model=lifetime_model,
        write_probability=write_probability,
        fault_model=ctx.fault_model,
    )

    def reduce(deaths: list[np.ndarray]) -> PairingStudy:
        all_deaths = np.stack(deaths)  # (pages, blocks)
        first_deaths = all_deaths.min(axis=1)
        low = float(first_deaths.min())
        high = float(all_deaths.max())
        ages = np.linspace(low, high, grid_points)
        without, with_pairing = [], []
        for age in ages:
            live = int((first_deaths > age).sum())
            failed = []
            for p in range(n_pages):
                blocks = frozenset(
                    int(b) for b in np.flatnonzero(all_deaths[p] <= age)
                )
                if blocks:
                    failed.append(FailedPage(page_id=p, failed_blocks=blocks))
            pairs, _ = pair_failed_pages(failed)
            without.append(live / n_pages)
            with_pairing.append((live + len(pairs)) / n_pages)
        return PairingStudy(
            spec_label=spec.label,
            n_pages=n_pages,
            ages=tuple(float(a) for a in ages),
            usable_without=tuple(without),
            usable_with=tuple(with_pairing),
        )

    return run_study(
        "pairing",
        ctx,
        simulate_pairing_page,
        task,
        range(n_pages),
        reduce=reduce,
        spec=spec.key,
        n_pages=n_pages,
    )
