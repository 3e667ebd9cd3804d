"""Event-driven page-lifetime Monte Carlo (Figures 5, 6, 7, 11, 12, 13).

Simulates one 4 KB page (a set of protected data blocks) from first write
to first unrecoverable fault without iterating over individual writes:

* every cell draws an endurance limit from the lifetime model (§3.1);
* with differential writes a cell is programmed on a fraction
  ``write_probability`` (0.5) of page writes, so its *base* death time in
  page-write units is ``endurance / write_probability``;
* cell deaths are processed in time order; each death adds a fault to its
  block's incremental checker (:mod:`repro.sim.checkers`), and the first
  checker death ends the page;
* for cache-less partition schemes, cells sharing a group with a fault
  accrue extra inversion-write wear: their remaining endurance burns at
  ``write_probability + inversion_wear_rate`` instead, which pulls their
  death time forward (handled with a small heap of re-scheduled deaths).

The page's no-protection baseline lifetime (needed for the Figure 6/12
improvement ratios) is the first cell death of the *same* endurance sample,
a paired comparison that removes sampling noise from the ratio.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.pcm.faults import FaultModel, fault_model_for
from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.sim import kernels
from repro.sim.context import ExecContext
from repro.sim.parallel import PageTask, SimExecutor
from repro.sim.rng import BitSource, rng_for
from repro.sim.roster import SchemeSpec
from repro.util.stats import MeanEstimate, mean_ci

#: the paper's differential-write programming probability
DEFAULT_WRITE_PROBABILITY = 0.5

#: extra per-page-write programming rate for cells in fault-containing
#: groups of cache-less schemes (one expected group re-write every other
#: page write, half of whose cells actually flip)
DEFAULT_INVERSION_WEAR = 0.25

_NORMAL, _ACCELERATED, _DEAD = 0, 1, 2


@dataclass(frozen=True)
class FaultEvent:
    """One cell death during a page simulation (for tracing/inspection)."""

    time: float            # page-write age at which the cell died
    block: int             # data-block index within the page
    offset: int            # in-block bit offset
    stuck_value: int
    block_fault_count: int  # faults in that block after this one
    fatal: bool            # True when this fault killed the page


#: observer invoked on every fault arrival
FaultObserver = Callable[[FaultEvent], None]


@dataclass(frozen=True)
class PageResult:
    """Outcome of one simulated page."""

    lifetime_writes: float
    faults_recovered: int
    baseline_lifetime: float

    @property
    def improvement(self) -> float:
        """Lifetime multiple over the unprotected page."""
        return self.lifetime_writes / self.baseline_lifetime


@dataclass(frozen=True)
class PageStudy:
    """Aggregate over many simulated pages of one scheme."""

    spec_key: str
    label: str
    overhead_bits: int
    faults: MeanEstimate
    lifetime: MeanEstimate
    baseline_lifetime: MeanEstimate
    results: tuple[PageResult, ...]

    @property
    def improvement(self) -> float:
        """Ratio of mean lifetimes (the Figure 6 bar heights)."""
        return self.lifetime.mean / self.baseline_lifetime.mean

    @property
    def improvement_per_bit(self) -> float:
        """Lifetime-improvement contribution of each overhead bit
        (Figure 7; improvement is measured over the 1x baseline)."""
        if self.overhead_bits == 0:
            return 0.0
        return (self.improvement - 1.0) / self.overhead_bits

    def lifetimes(self) -> np.ndarray:
        return np.array([r.lifetime_writes for r in self.results])


#: cells per batched dynamics call; bounds the kernel's working set
MAX_BATCH_CELLS = 4_000_000


def simulate_page(
    spec: SchemeSpec,
    blocks_per_page: int,
    rng: np.random.Generator,
    *,
    lifetime_model: LifetimeModel | None = None,
    write_probability: float = DEFAULT_WRITE_PROBABILITY,
    inversion_wear_rate: float = DEFAULT_INVERSION_WEAR,
    observer: FaultObserver | None = None,
    engine: str = "auto",
    fault_model: "FaultModel | str | None" = None,
) -> PageResult:
    """Simulate one page under ``spec`` until its first unrecoverable fault.

    ``observer``, when given, receives a :class:`FaultEvent` for every cell
    death in arrival order — a tracing hook for debugging and for studies
    that need the fault timeline rather than just the endpoints.  An
    observer forces the scalar ``engine`` (the vector kernels advance all
    blocks in lock step and have no per-event callback point); otherwise
    both engines draw the page's endurance sample from ``rng`` first and
    return bit-identical results.

    ``fault_model`` selects the failure statistics
    (:mod:`repro.pcm.faults`): the model reshapes the sampled death times
    (and any masking) *before* engine dispatch, from the same ``rng``
    position on both engines, so every model stays bit-identical across
    ``engine`` and ``workers``.  The hard default's transform is the
    identity and draws nothing.
    """
    return _simulate_rngs(
        spec,
        blocks_per_page,
        [rng],
        lifetime_model=lifetime_model,
        write_probability=write_probability,
        inversion_wear_rate=inversion_wear_rate,
        observer=observer,
        engine=engine,
        fault_model=fault_model,
    )[0]


#: one drawn page: ``(shaped, baseline, masked_originals)`` (see
#: :func:`_death_times`)
_PageSample = tuple[np.ndarray, float, np.ndarray | None]


def _death_times(
    spec: SchemeSpec,
    n_cells: int,
    rng: np.random.Generator,
    model: LifetimeModel,
    write_probability: float,
    fault_model: FaultModel,
    out: np.ndarray | None = None,
) -> _PageSample:
    """Draw one page's cell death times from ``rng``: ``(shaped, baseline,
    masked_originals)``.

    ``shaped`` is the fault model's rewrite of the intrinsic base death
    times (endurance over the write probability), written into ``out``
    when given.  ``baseline`` is the paired no-protection lifetime, the
    first *intrinsic* cell death (masked cells still die physically), and
    ``masked_originals`` the intrinsic death times of the cells the model
    masks for free (``None`` = nothing masked).  Every engine draws here
    first, so the generator sits at the same position when the scheduler
    starts.
    """
    original = np.divide(model.sample(n_cells, rng), write_probability, out=out)
    shaped, masked = fault_model.transform_base_death(original, spec.n_bits, rng)
    baseline = float(original.min())
    masked_originals = None if masked is None else original[masked]
    if out is not None and shaped is not out:
        out[...] = shaped
        shaped = out
    return shaped, baseline, masked_originals


#: cells in the scalar scheduler's first sorted prefix of the death order;
#: a page that walks past it doubles the width (aegis-rw-9x61 pages take
#: ~1000-1200 deaths, most sampled pages a few hundred)
SCALAR_PREFIX = 1024


def _death_order(base_death: np.ndarray):
    """Yield the page's cells in ``(base death time, cell index)`` order
    as growing ``(cells, times)`` list chunks, then a ``([-1], [inf])``
    end marker.

    Each chunk is the exact part of a :func:`repro.sim.kernels.sorted_prefix`
    of the flat page (:data:`SCALAR_PREFIX` wide first, each later prefix
    twice as wide): the cells strictly earlier than every cell the prefix
    leaves out, which no tie at its edge can reorder.
    """
    page = base_death[None, :]
    n_cells = base_death.shape[0]
    done, width = 0, SCALAR_PREFIX
    while done < n_cells:
        cells, times, exact = kernels.sorted_prefix(page, min(width, n_cells))
        end = int(exact[0])
        if end > done:
            yield cells[0, done:end].tolist(), times[0, done:end].tolist()
            done = end
        width *= 2
    yield [-1], [np.inf]


def _draw_stuck_run(
    bits: BitSource,
    cells: list[int],
    start: int,
    faults: list[int],
    n_bits: int,
    draws_from: int,
) -> list[int]:
    """Stuck values for the arrivals ``cells[start:]`` up to and including
    the first that brings its block to ``draws_from`` faults (or to the end
    of ``cells``), in one :meth:`~repro.sim.rng.BitSource.bits` draw.

    ``faults`` counts each block's arrivals already given a stuck value and
    is advanced over the run.  No arrival before the run's last draws
    patterns or kills its block, so the page reaches every value drawn, and
    a run of ``k`` values is the same stream as ``k`` one-value draws (each
    is the top bit of one ``next_uint32``, as ``rng.integers(0, 2)``).
    """
    end = start
    while end < len(cells):
        block = cells[end] // n_bits
        faults[block] += 1
        end += 1
        if faults[block] >= draws_from:
            break
    return bits.bits(end - start)


def _simulate_page_scalar(
    spec: SchemeSpec,
    blocks_per_page: int,
    rng: np.random.Generator,
    times: _PageSample,
    write_probability: float,
    inversion_wear_rate: float,
    observer: FaultObserver | None = None,
) -> PageResult:
    """The cell-death scheduler: walk the page's deaths (``times`` from
    :func:`_death_times`) in time order until a block's checker dies.

    Deaths come in the order ``(time, class, cell index)``: the base
    cursor walks the cells at their base death times in ``(time, cell
    index)`` order, from the sorted prefixes of :func:`_death_order` (a
    page walks a few hundred of its tens of thousands of cells, so a full
    sort is mostly wasted).  Under inversion wear a ``status`` array and
    a heap of re-scheduled ``(time, cell)`` deaths merge the accelerated
    cells in, after any base cell of equal time; a wear-free page walks
    the base order alone.

    The walk draws its stuck values and its checkers' patterns from one
    :class:`~repro.sim.rng.BitSource` on ``rng``, closed when the walk
    ends, so ``rng`` is left where ``Generator.integers`` calls would
    leave it.  A block's checker is built on the block's first fault
    (building one draws nothing).
    """
    n_bits = spec.n_bits
    base_death, baseline, masked_originals = times
    block_checkers: list = [None] * blocks_per_page
    accel_rate = write_probability + inversion_wear_rate
    # per-cell state, only kept when the page applies inversion wear
    status = (
        bytearray(base_death.shape[0])
        if spec.inversion_wear and inversion_wear_rate > 0
        else None
    )
    # a wear-free page knows its arrival order ahead, so it draws stuck
    # values in runs (:func:`_draw_stuck_run`) once the first checker
    # gives the threshold; a checker without a ``draws_from`` gets runs of one
    draws_from = 0
    faults_ahead = [0] * blocks_per_page
    stuck_ahead: list[int] = []  # pre-drawn stuck values, by base-order position
    heap: list[tuple[float, int]] = []
    chunks = _death_order(base_death)
    cells, deaths_at = next(chunks)
    cursor = 0
    deaths = 0

    with BitSource(rng) as bits:
        while True:
            if cursor == len(cells):
                more_cells, more_times = next(chunks)
                cells += more_cells
                deaths_at += more_times
            if heap and heap[0][0] < deaths_at[cursor]:
                now, cell = heapq.heappop(heap)
                if status[cell] == _DEAD:
                    continue
            else:
                now, cell = deaths_at[cursor], cells[cursor]
                cursor += 1
                if cell < 0:
                    raise AssertionError(
                        "page outlived every cell"
                    )  # pragma: no cover - checkers always fail eventually
                if status is not None and status[cell] != _NORMAL:
                    continue  # accelerated (its death is on the heap) or dead
            deaths += 1
            block, offset = divmod(cell, n_bits)
            checker = block_checkers[block]
            if checker is None:
                checker = block_checkers[block] = spec.make_checker(bits)
                draws_from = draws_from or getattr(checker, "draws_from", 1)
            if status is not None:  # wear reorders deaths: one value at a time
                stuck_value = bits.bit()
            else:
                if cursor > len(stuck_ahead):
                    stuck_ahead += _draw_stuck_run(
                        bits, cells, len(stuck_ahead), faults_ahead, n_bits, draws_from
                    )
                stuck_value = stuck_ahead[cursor - 1]
            alive = checker.add_fault(offset, stuck_value)
            if observer is not None:
                observer(
                    FaultEvent(
                        time=now,
                        block=block,
                        offset=offset,
                        stuck_value=stuck_value,
                        block_fault_count=len(checker.fault_offsets),
                        fatal=not alive,
                    )
                )
            if not alive:
                recovered = deaths - 1
                if masked_originals is not None:
                    # masked partial faults never reached a checker but did
                    # arrive (and were survived) before the fatal fault
                    recovered += int((masked_originals <= now).sum())
                return PageResult(
                    lifetime_writes=now,
                    faults_recovered=recovered,
                    baseline_lifetime=baseline,
                )
            if status is not None:
                status[cell] = _DEAD
                for member in checker.group_members(offset).tolist():
                    mate = block * n_bits + member
                    if status[mate] != _NORMAL:
                        continue
                    status[mate] = _ACCELERATED
                    remaining = max(float(base_death[mate]) - now, 0.0)
                    rescheduled = now + remaining * write_probability / accel_rate
                    heapq.heappush(heap, (rescheduled, mate))


def _pages_from_death_times(
    spec: SchemeSpec,
    blocks_per_page: int,
    base_death: np.ndarray,
    pages: "list[tuple[float, np.ndarray | None]]",
    write_probability: float,
    inversion_wear_rate: float,
) -> list[PageResult]:
    """Batched page outcomes for prepared death-time samples.

    ``base_death`` is the ``(pages * blocks, n_bits)`` population of the
    pages' fault-model-transformed death times, page-major, and each entry
    of ``pages`` that page's ``(baseline, masked_originals)`` from
    :func:`_death_times` (the paired baseline lifetime and the intrinsic
    death times of its masked cells).

    The population is advanced by a single
    :func:`repro.sim.kernels.block_dynamics` call.  A page's fatal death
    is the earliest of its blocks' deaths in the order ``(time, class,
    flat cell index)``, and its recovered-fault count the number of
    logged deaths before the fatal one in that order (plus any masked
    faults whose intrinsic death preceded it), which is the scalar
    scheduler's count: wear and checkers act only within a block, so each
    block's deaths come in the same order on both engines; retirement
    keeps every death at or below the page's lifetime in the log; and the
    order is total, so ties need no replay.  (This needs each block's
    deaths in ascending order: a rescheduled death must not round onto
    the time of a worn death that caused it, which holds while
    ``inversion_wear_rate`` stays below ``write_probability``, as it does
    by default.)
    """
    result = kernels.block_dynamics(
        spec,
        base_death,
        blocks_per_page=blocks_per_page,
        write_probability=write_probability,
        inversion_wear_rate=inversion_wear_rate,
    )
    n_pages = len(pages)
    death_time = result.death_time.reshape(n_pages, blocks_per_page)
    lifetime = death_time.min(axis=1, keepdims=True)
    fatal_tie = np.where(
        death_time == lifetime, result.death_tie.reshape(n_pages, -1), np.inf
    ).min(axis=1, keepdims=True)
    times = result.event_times.reshape(n_pages, -1)
    before = (times < lifetime) | (
        (times == lifetime) & (result.event_ties.reshape(n_pages, -1) < fatal_tie)
    )
    recovered = np.count_nonzero(before, axis=1)
    outcomes = []
    for page, (baseline, masked_originals) in enumerate(pages):
        faults = int(recovered[page])
        if masked_originals is not None:
            faults += int((masked_originals <= lifetime[page, 0]).sum())
        outcomes.append(
            PageResult(
                lifetime_writes=float(lifetime[page, 0]),
                faults_recovered=faults,
                baseline_lifetime=baseline,
            )
        )
    return outcomes


def simulate_pages(
    spec: SchemeSpec,
    blocks_per_page: int,
    page_indices: Sequence[int],
    seed: int,
    *,
    lifetime_model: LifetimeModel | None = None,
    write_probability: float = DEFAULT_WRITE_PROBABILITY,
    inversion_wear_rate: float = DEFAULT_INVERSION_WEAR,
    engine: str = "auto",
    fault_model: "FaultModel | str | None" = None,
) -> list[PageResult]:
    """Simulate a run of pages, each drawing from ``rng_for(seed, index)``.

    The batched counterpart of calling :func:`simulate_page` per index,
    and bit-identical to it: both run :func:`_simulate_rngs`, which draws
    each page from its own substream (the parallel layer's
    reproducibility contract) and simulates a vector-capable scheme's
    pages together.
    """
    return _simulate_rngs(
        spec,
        blocks_per_page,
        [rng_for(seed, index) for index in page_indices],
        lifetime_model=lifetime_model,
        write_probability=write_probability,
        inversion_wear_rate=inversion_wear_rate,
        engine=engine,
        fault_model=fault_model,
    )


def _simulate_rngs(
    spec: SchemeSpec,
    blocks_per_page: int,
    rngs: Sequence[np.random.Generator],
    *,
    lifetime_model: LifetimeModel | None,
    write_probability: float,
    inversion_wear_rate: float,
    engine: str,
    fault_model: "FaultModel | str | None",
    observer: FaultObserver | None = None,
) -> list[PageResult]:
    """Simulate one page per generator in ``rngs``, results in order.

    The one page-batch path behind :func:`simulate_page` and
    :func:`simulate_pages`.  With a vector-capable scheme (and no
    ``observer``), each page's endurance sample is drawn from its own
    generator, fault-model transforms are applied from the same
    generator position, and the pages are simulated together in batches
    of at most :data:`MAX_BATCH_CELLS` cells.  Both engines take deaths in
    the one order ``(time, class, flat cell index)``, so every page,
    however tied its sample, resolves on the batch, bit-identical to the
    scalar scheduler.
    """
    if not 0 < write_probability <= 1:
        raise ConfigurationError("write probability must be in (0, 1]")
    model = lifetime_model if lifetime_model is not None else NormalLifetime()
    fmodel = fault_model_for(fault_model)
    n_cells = blocks_per_page * spec.n_bits

    def draw(rng: np.random.Generator, out: np.ndarray | None = None) -> _PageSample:
        return _death_times(spec, n_cells, rng, model, write_probability, fmodel, out)

    if observer is not None or kernels.resolve_engine(engine, spec) != "vector":
        return [
            _simulate_page_scalar(
                spec,
                blocks_per_page,
                rng,
                draw(rng),
                write_probability,
                inversion_wear_rate,
                observer,
            )
            for rng in rngs
        ]
    results: list[PageResult] = []
    batch_pages = max(1, MAX_BATCH_CELLS // max(n_cells, 1))
    # each page draws straight into its rows of the batch population, so
    # a pending page keeps only its baseline and masked originals
    population = np.empty((min(batch_pages, len(rngs)) * blocks_per_page, spec.n_bits))
    pending: list[tuple[float, np.ndarray | None]] = []

    def flush() -> None:
        if pending:
            results.extend(
                _pages_from_death_times(
                    spec,
                    blocks_per_page,
                    population[: len(pending) * blocks_per_page],
                    pending,
                    write_probability,
                    inversion_wear_rate,
                )
            )
            pending.clear()

    for rng in rngs:
        first = len(pending) * blocks_per_page
        _, baseline, masked = draw(rng, population[first : first + blocks_per_page].reshape(-1))
        pending.append((baseline, masked))
        if len(pending) >= batch_pages:
            flush()
    flush()
    return results


def run_page_study(
    spec: SchemeSpec,
    *,
    n_pages: int = 128,
    blocks_per_page: int | None = None,
    seed: int = 2013,
    lifetime_model: LifetimeModel | None = None,
    write_probability: float = DEFAULT_WRITE_PROBABILITY,
    inversion_wear_rate: float = DEFAULT_INVERSION_WEAR,
    workers: int | None = 1,
    engine: str = "auto",
    fault_model: "FaultModel | str | None" = None,
    ctx: ExecContext | None = None,
) -> PageStudy:
    """Simulate ``n_pages`` independent 4 KB pages under one scheme.

    ``blocks_per_page`` defaults to a 4 KB page of the spec's block size
    (64 x 512-bit or 128 x 256-bit).  Page ``i`` uses a stream keyed by the
    page index only, so different schemes see the same endurance draws.

    ``workers`` fans page simulations out over a process pool
    (:mod:`repro.sim.parallel`); ``None``/``0`` mean all CPU cores.  The
    substream contract — page ``i`` always draws from ``rng_for(seed, i)``
    — makes the result bit-identical for every worker count.  ``engine``
    composes with ``workers``: each worker advances its chunk of pages
    through the batch kernels (:mod:`repro.sim.kernels`) when the scheme
    has one, so process fan-out and intra-process vectorization multiply.
    The fault timeline of a single page is :func:`simulate_page`'s
    ``observer``.

    ``ctx`` is the execution plane's preferred spelling: when given, its
    ``seed``/``workers``/``engine``/``fault_model`` fields override the
    corresponding keyword arguments, so callers thread one
    :class:`ExecContext` instead of four knobs.
    """
    if ctx is not None:
        seed, workers, engine = ctx.seed, ctx.workers, ctx.engine
        fault_model = ctx.fault_model
    if n_pages < 1:
        raise ConfigurationError(f"a page study needs at least one page, got {n_pages}")
    if blocks_per_page is None:
        if (4096 * 8) % spec.n_bits:
            raise ConfigurationError(f"4 KB page is not a multiple of {spec.n_bits} bits")
        blocks_per_page = (4096 * 8) // spec.n_bits

    task = PageTask(
        spec=spec,
        blocks_per_page=blocks_per_page,
        seed=seed,
        lifetime_model=lifetime_model,
        write_probability=write_probability,
        inversion_wear_rate=inversion_wear_rate,
        engine=engine,
        fault_model=fault_model_for(fault_model),
    )
    # study-phase spans go to the process-wide tracer (``repro run
    # --trace``); they are recorded parent-side only, so the exported
    # trace stays worker-count invariant like the study itself
    tracer = get_tracer()
    with SimExecutor(workers) as executor, tracer.span(
        "page_study", spec=spec.key, n_pages=n_pages
    ) as study_span:
        with tracer.span("page_sim"):
            results = executor.run_pages(task, range(n_pages))
        study_span.cost(pages=len(results))
        registry = get_metrics()
        if registry is not None:
            registry.inc("pages_simulated_total", len(results), spec=spec.key)
        with tracer.span("reduce", spec=spec.key):
            return PageStudy(
                spec_key=spec.key,
                label=spec.label,
                overhead_bits=spec.overhead_bits,
                faults=mean_ci([r.faults_recovered for r in results]),
                lifetime=mean_ci([r.lifetime_writes for r in results]),
                baseline_lifetime=mean_ci([r.baseline_lifetime for r in results]),
                results=tuple(results),
            )
