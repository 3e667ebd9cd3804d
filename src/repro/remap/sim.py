"""Event-driven simulation of pages with spare-block remapping.

Base blocks age from time zero; when a block's recovery scheme fails, a
spare block (fresh cells, endurance sampled at allocation time) takes over
its address and ages from that moment.  The page survives until a block
fails with no spare left.

Each block, base or spare, is a one-block page of the page Monte Carlo
(:func:`repro.sim.page_sim.simulate_page`, without inversion wear) on the
page's generator, run to its scheme's failure; an observer records its
fault ages.  A heap of block deaths then orders the remaps, and the faults
recovered are every block's cell deaths strictly before the page's death.

Remap pointer storage is treated as reliable, matching FREE-p's redundant
embedding of the pointer in the dead block; the pointer bits are counted
in the overhead reported by the experiment.

Remap pages stay under hard faults whatever the context's fault model:
the observer sees only faults that reach a checker, so the masked partial
faults of a block still alive at the page's death could not be counted.

Execution rides the unified plane (:mod:`repro.sim.context`): page ``p``
draws every random number from ``rng_for(seed, p, 17)``, block by block,
so the :func:`~repro.sim.parallel.run_study` fan-out produces
bit-identical studies for every worker count.  An observed page takes the
scalar scheduler, so any requested ``engine`` resolves to it
transparently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.pcm.lifetime import LifetimeModel
from repro.sim.context import ExecContext
from repro.sim.page_sim import DEFAULT_WRITE_PROBABILITY, simulate_page
from repro.sim.parallel import mean_columns, run_study
from repro.sim.rng import rng_for
from repro.sim.roster import SchemeSpec
from repro.util.stats import MeanEstimate

#: substream salt separating remap pages from other studies' pages
_REMAP_SALT = 17


@dataclass(frozen=True)
class RemapPageResult:
    """Aggregate over simulated pages with spare-block remapping."""

    spec_label: str
    spares: int
    faults: MeanEstimate
    lifetime: MeanEstimate


@dataclass(frozen=True)
class RemapTask:
    """Everything a worker needs to simulate any page of one remap study."""

    spec: SchemeSpec
    blocks_per_page: int
    spares: int
    seed: int
    lifetime_model: LifetimeModel | None
    write_probability: float


def simulate_remap_page(task: RemapTask, page_index: int) -> tuple[float, int]:
    """One remapped page of a task — the picklable unit of fan-out: returns
    (lifetime, faults recovered).  A page dies only when a block fails
    with no spare left, so it always uses every spare."""
    rng = rng_for(task.seed, page_index, _REMAP_SALT)
    blocks: list[tuple[float, list[float]]] = []  # (start, fault ages), by slot

    def place(start: float) -> tuple[float, int]:
        """Age a fresh block from ``start`` until its scheme fails; returns
        its death as a heap entry."""
        ages: list[float] = []
        block = simulate_page(
            task.spec,
            1,
            rng,
            lifetime_model=task.lifetime_model,
            write_probability=task.write_probability,
            inversion_wear_rate=0.0,
            observer=lambda event: ages.append(event.time),
        )
        blocks.append((start, ages))
        return start + block.lifetime_writes, len(blocks) - 1

    deaths = [place(0.0) for _ in range(task.blocks_per_page)]
    heapq.heapify(deaths)
    # every block death but the last remaps to a spare
    for _ in range(task.spares):
        heapq.heapreplace(deaths, place(deaths[0][0]))
    lifetime = deaths[0][0]
    recovered = sum(start + age < lifetime for start, ages in blocks for age in ages)
    return lifetime, recovered


def remap_page_study(
    spec: SchemeSpec,
    *,
    spares: int,
    blocks_per_page: int = 16,
    n_pages: int = 32,
    seed: int = 2013,
    lifetime_model: LifetimeModel | None = None,
    write_probability: float = DEFAULT_WRITE_PROBABILITY,
    ctx: ExecContext | None = None,
) -> RemapPageResult:
    """Simulate pages of ``blocks_per_page`` blocks plus ``spares`` spares.

    ``ctx`` supplies the execution plane (seed, workers, engine); when
    absent, a serial context built from ``seed`` is used.  Results are
    bit-identical for every worker count.
    """
    if ctx is None:
        ctx = ExecContext(seed=seed)
    task = RemapTask(
        spec=spec,
        blocks_per_page=blocks_per_page,
        spares=spares,
        seed=ctx.seed,
        lifetime_model=lifetime_model,
        write_probability=write_probability,
    )

    def reduce(results: list[tuple[float, int]]) -> RemapPageResult:
        estimates = mean_columns(results, ("lifetime", "faults"))
        return RemapPageResult(
            spec_label=spec.label,
            spares=spares,
            faults=estimates["faults"],
            lifetime=estimates["lifetime"],
        )

    return run_study(
        "remap",
        ctx,
        simulate_remap_page,
        task,
        range(n_pages),
        reduce=reduce,
        spec=spec.key,
        spares=spares,
        n_pages=n_pages,
    )
