"""Event-driven simulation of pages with spare-block remapping.

Base blocks age from time zero; when a block's recovery scheme fails, a
spare block (fresh cells, endurance sampled at allocation time) takes over
its address and ages from that moment.  The page survives until a block
fails with no spare left.

Remap pointer storage is treated as reliable, matching FREE-p's redundant
embedding of the pointer in the dead block; the pointer bits are counted
in the overhead reported by the experiment.

Execution rides the unified plane (:mod:`repro.sim.context`): page ``p``
draws every random number from ``rng_for(seed, p, 17)``, so the
:func:`~repro.sim.parallel.run_study` fan-out produces bit-identical
studies for every worker count.  The remap event walk has no batch
kernel, so any requested ``engine`` resolves to the scalar path
transparently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.sim.context import ExecContext
from repro.sim.page_sim import DEFAULT_WRITE_PROBABILITY
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
    remaps: MeanEstimate


@dataclass(frozen=True)
class RemapTask:
    """Everything a worker needs to simulate any page of one remap study."""

    spec: SchemeSpec
    blocks_per_page: int
    spares: int
    seed: int
    lifetime_model: LifetimeModel | None
    write_probability: float


def _simulate_remap_page(
    spec: SchemeSpec,
    blocks_per_page: int,
    spares: int,
    rng: np.random.Generator,
    model: LifetimeModel,
    write_probability: float,
) -> tuple[float, int, int]:
    """One page: returns (lifetime, faults recovered, remaps performed)."""
    n_bits = spec.n_bits

    def fresh_block_events(block_slot: int, start_time: float) -> list[tuple[float, int, int]]:
        endurance = model.sample(n_bits, rng)
        times = start_time + endurance / write_probability
        return [(float(t), block_slot, offset) for offset, t in enumerate(times)]

    heap: list[tuple[float, int, int]] = []
    checkers = {}
    for slot in range(blocks_per_page):
        heap.extend(fresh_block_events(slot, 0.0))
        checkers[slot] = spec.make_checker(rng)
    heapq.heapify(heap)
    next_slot = blocks_per_page
    spares_left = spares
    deaths = 0
    remaps = 0
    retired: set[int] = set()
    while heap:
        now, slot, offset = heapq.heappop(heap)
        if slot in retired:
            continue
        deaths += 1
        if checkers[slot].add_fault(offset, int(rng.integers(0, 2))):
            continue
        # block exhausted: remap to a spare or die
        retired.add(slot)
        if spares_left == 0:
            return now, deaths - 1, remaps
        spares_left -= 1
        remaps += 1
        new_slot = next_slot
        next_slot += 1
        checkers[new_slot] = spec.make_checker(rng)
        for event in fresh_block_events(new_slot, now):
            heapq.heappush(heap, event)
    raise AssertionError("page outlived every cell")  # pragma: no cover


def simulate_remap_page(task: RemapTask, page_index: int) -> tuple[float, int, int]:
    """One remapped page of a task — the picklable unit of fan-out."""
    model = (
        task.lifetime_model if task.lifetime_model is not None else NormalLifetime()
    )
    return _simulate_remap_page(
        task.spec,
        task.blocks_per_page,
        task.spares,
        rng_for(task.seed, page_index, _REMAP_SALT),
        model,
        task.write_probability,
    )


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

    def reduce(results: list[tuple[float, int, int]]) -> RemapPageResult:
        estimates = mean_columns(
            results, ("lifetime", "faults", "remaps")
        )
        return RemapPageResult(
            spec_label=spec.label,
            spares=spares,
            faults=estimates["faults"],
            lifetime=estimates["lifetime"],
            remaps=estimates["remaps"],
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
