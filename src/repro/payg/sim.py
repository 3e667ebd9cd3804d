"""Monte Carlo evaluation of PAYG pages (extension experiment).

Event-driven like :mod:`repro.sim.page_sim`, but blocks share a finite GEC
pool: a block's first fault is absorbed by its LEC (ECP-1); the second
fault triggers a GEC allocation (an Aegis metadata slot); the page dies
when an allocation finds the pool empty or an allocated Aegis slot runs
out of slopes.

Inversion-wear amplification is not modelled here (it only shifts absolute
lifetimes; the PAYG story is about fault capacity per overhead bit), so
death times come straight from the endurance order statistics.

Execution rides the unified plane (:mod:`repro.sim.context`): page ``p``
draws every random number from ``rng_for(seed, p, 7)``, so the
:func:`~repro.sim.parallel.run_study` fan-out produces bit-identical
studies for every worker count.  The pool-allocation walk has no batch
kernel, so any requested ``engine`` resolves to the scalar path
transparently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.formations import Formation
from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.payg.payg import GecPool, payg_overhead_bits
from repro.sim.checkers import AegisChecker
from repro.sim.context import ExecContext
from repro.sim.page_sim import DEFAULT_WRITE_PROBABILITY
from repro.sim.parallel import mean_columns, run_study
from repro.sim.rng import rng_for
from repro.util.stats import MeanEstimate

#: substream salt separating PAYG pages from other studies' pages
_PAYG_SALT = 7


@dataclass(frozen=True)
class PaygPageResult:
    """Aggregate over simulated PAYG pages."""

    formation_name: str
    pool_entries: int
    blocks_per_page: int
    faults: MeanEstimate
    lifetime: MeanEstimate
    gec_allocations: MeanEstimate
    pool_exhaustion_deaths: int
    overhead_bits_per_block: float


@dataclass(frozen=True)
class PaygTask:
    """Everything a worker needs to simulate any page of one PAYG study."""

    form: Formation
    blocks_per_page: int
    pool_entries: int
    lec_pointers: int
    seed: int
    lifetime_model: LifetimeModel | None
    write_probability: float


def _simulate_payg_page(
    form: Formation,
    blocks_per_page: int,
    pool_entries: int,
    lec_pointers: int,
    rng: np.random.Generator,
    lifetime_model: LifetimeModel,
    write_probability: float,
) -> tuple[float, int, int, bool]:
    """One page: returns (lifetime, faults recovered, GEC allocations,
    died-of-pool-exhaustion)."""
    n_bits = form.n_bits
    n_cells = blocks_per_page * n_bits
    death_times = lifetime_model.sample(n_cells, rng) / write_probability
    order = np.argsort(death_times)
    pool = GecPool(pool_entries)
    block_faults: list[list[int]] = [[] for _ in range(blocks_per_page)]
    gec_checkers: dict[int, AegisChecker] = {}
    deaths = 0
    for cell in order:
        cell = int(cell)
        now = float(death_times[cell])
        deaths += 1
        block, offset = divmod(cell, n_bits)
        stuck = int(rng.integers(0, 2))
        block_faults[block].append(offset)
        checker = gec_checkers.get(block)
        if checker is not None:
            if not checker.add_fault(offset, stuck):
                return now, deaths - 1, pool.allocated, False
            continue
        if len(block_faults[block]) <= lec_pointers:
            continue
        # LEC exceeded: this block needs a GEC slot now
        if not pool.try_allocate():
            return now, deaths - 1, pool.allocated, True
        checker = AegisChecker(form.rect)
        gec_checkers[block] = checker
        # replay the block's faults into its new Aegis slot (their
        # positions are known from the LEC entry and the verification
        # reads of the allocating write)
        for fault_offset in block_faults[block]:
            if not checker.add_fault(fault_offset, stuck):
                return now, deaths - 1, pool.allocated, False
    raise AssertionError("page outlived every cell")  # pragma: no cover


def simulate_payg_page(
    task: PaygTask, page_index: int
) -> tuple[float, int, int, bool]:
    """One PAYG page of a task — the picklable unit of fan-out."""
    model = (
        task.lifetime_model if task.lifetime_model is not None else NormalLifetime()
    )
    return _simulate_payg_page(
        task.form,
        task.blocks_per_page,
        task.pool_entries,
        task.lec_pointers,
        rng_for(task.seed, page_index, _PAYG_SALT),
        model,
        task.write_probability,
    )


def payg_page_study(
    form: Formation,
    *,
    pool_entries: int,
    blocks_per_page: int = 64,
    lec_pointers: int = 1,
    n_pages: int = 64,
    seed: int = 2013,
    lifetime_model: LifetimeModel | None = None,
    write_probability: float = DEFAULT_WRITE_PROBABILITY,
    ctx: ExecContext | None = None,
) -> PaygPageResult:
    """Simulate PAYG pages (LEC = ECP-``lec_pointers``, GEC = Aegis
    ``form``) and report capacity, lifetime, and pool behaviour.

    ``ctx`` supplies the execution plane (seed, workers, engine); when
    absent, a serial context built from ``seed`` is used.  Results are
    bit-identical for every worker count.
    """
    if ctx is None:
        ctx = ExecContext(seed=seed)
    task = PaygTask(
        form=form,
        blocks_per_page=blocks_per_page,
        pool_entries=pool_entries,
        lec_pointers=lec_pointers,
        seed=ctx.seed,
        lifetime_model=lifetime_model,
        write_probability=write_probability,
    )

    def reduce(results: list[tuple[float, int, int, bool]]) -> PaygPageResult:
        estimates = mean_columns(
            [row[:3] for row in results], ("lifetime", "faults", "allocations")
        )
        return PaygPageResult(
            formation_name=form.name,
            pool_entries=pool_entries,
            blocks_per_page=blocks_per_page,
            faults=estimates["faults"],
            lifetime=estimates["lifetime"],
            gec_allocations=estimates["allocations"],
            pool_exhaustion_deaths=sum(int(row[3]) for row in results),
            overhead_bits_per_block=payg_overhead_bits(
                blocks_per_page,
                form.n_bits,
                pool_entries,
                form.aegis_overhead_bits,
                lec_pointers=lec_pointers,
            ),
        )

    return run_study(
        "payg",
        ctx,
        simulate_payg_page,
        task,
        range(n_pages),
        reduce=reduce,
        formation=form.name,
        n_pages=n_pages,
    )
