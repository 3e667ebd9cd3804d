"""Monte Carlo evaluation of PAYG pages (extension experiment).

A PAYG page is a page of the page Monte Carlo
(:func:`repro.sim.page_sim.simulate_page`) whose blocks share a finite GEC
pool: each block's checker is a :class:`PaygChecker` bound to the page's
:class:`~repro.payg.payg.GecPool`.  A block's first fault is absorbed by
its LEC (ECP-1); the second fault triggers a GEC allocation (an Aegis
metadata slot); the page dies when an allocation finds the pool empty or
an allocated Aegis slot runs out of slopes.

Inversion-wear amplification is not modelled here (it only shifts absolute
lifetimes; the PAYG story is about fault capacity per overhead bit), so
the page runs an Aegis spec without inversion wear, and death times come
straight from the endurance order statistics, reshaped by the context's
fault model.

Execution rides the unified plane (:mod:`repro.sim.context`): page ``p``
draws every random number from ``rng_for(seed, p, 7)``, so the
:func:`~repro.sim.parallel.run_study` fan-out produces bit-identical
studies for every worker count.  The spec has no batch kernel, so any
requested ``engine`` resolves to the scalar scheduler transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.formations import Formation
from repro.core.geometry import Rectangle
from repro.pcm.lifetime import LifetimeModel
from repro.payg.payg import GecPool, payg_overhead_bits
from repro.sim.checkers import AegisChecker
from repro.sim.context import ExecContext
from repro.sim.page_sim import DEFAULT_WRITE_PROBABILITY, simulate_page
from repro.sim.parallel import mean_columns, run_study
from repro.sim.rng import BitSource, rng_for
from repro.sim.roster import aegis_spec
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
    fault_model: str


class PaygChecker:
    """One PAYG block: an ECP-``lec_pointers`` LEC, then an Aegis GEC slot
    claimed from the ``pool`` its page shares.

    The first ``lec_pointers`` faults are absorbed by the LEC.  The next
    claims a GEC slot, or kills the block and sets ``pool_ran_dry`` when
    the pool is empty; once claimed, the slot's :class:`AegisChecker`
    replays the block's faults so far (their positions are known from the
    LEC entry and the verification reads of the allocating write) and
    takes every later fault.
    """

    def __init__(self, rect: Rectangle, pool: GecPool, lec_pointers: int) -> None:
        self.rect = rect
        self.pool = pool
        self.lec_pointers = lec_pointers
        self.faults: list[tuple[int, int]] = []  # (offset, stuck value)
        self.gec: AegisChecker | None = None
        self.pool_ran_dry = False

    def add_fault(self, offset: int, stuck_value: int) -> bool:
        if self.gec is not None:
            return self.gec.add_fault(offset, stuck_value)
        self.faults.append((offset, stuck_value))
        if len(self.faults) <= self.lec_pointers:
            return True
        if not self.pool.try_allocate():
            self.pool_ran_dry = True
            return False
        self.gec = AegisChecker(self.rect)
        return all(self.gec.add_fault(*fault) for fault in self.faults)

    def group_members(self, offset: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


def simulate_payg_page(
    task: PaygTask, page_index: int
) -> tuple[float, int, int, bool]:
    """One PAYG page of a task — the picklable unit of fan-out: returns
    (lifetime, faults recovered, GEC allocations, died-of-pool-exhaustion)."""
    form = task.form
    pool = GecPool(task.pool_entries)
    blocks: list[PaygChecker] = []

    def make_checker(bits: BitSource) -> PaygChecker:
        blocks.append(PaygChecker(form.rect, pool, task.lec_pointers))
        return blocks[-1]

    spec = replace(
        aegis_spec(form.a_size, form.b_size, form.n_bits),
        make_checker=make_checker,
        inversion_wear=False,
        make_batch=None,
    )
    page = simulate_page(
        spec,
        task.blocks_per_page,
        rng_for(task.seed, page_index, _PAYG_SALT),
        lifetime_model=task.lifetime_model,
        write_probability=task.write_probability,
        fault_model=task.fault_model,
    )
    return (
        page.lifetime_writes,
        page.faults_recovered,
        pool.allocated,
        any(block.pool_ran_dry for block in blocks),
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
        fault_model=ctx.fault_model,
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
