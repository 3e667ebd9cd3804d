"""Vectorized batch-trial Monte Carlo kernels.

The scalar cell-death scheduler of :mod:`repro.sim.page_sim` (behind
every page, block-lifetime and failure-curve study) walks one trial and
one cell death at a time through Python-level
:meth:`~repro.sim.checkers.BlockChecker.add_fault` calls.  For the
*static* schemes plain Aegis, SAFER and ECP, whose survival is a pure
set property of the fault locations, the per-arrival state update is a
handful of integer operations, so an entire ``(trials, n_bits)`` block
population can be advanced in lock step with numpy: one fancy-indexed collision-ROM lookup,
one poisoned-slope bitset OR, one partition-vector extension per step,
for *all* trials at once.

Bit-identity contract
---------------------
Every kernel reproduces the scalar path exactly, not just statistically:

* Trial ``t`` consumes the same substream ``rng_for(seed, t)`` draws in
  the same order.  Static checkers never draw from the generator, and
  their survival verdict ignores the stuck-at *values*, so the scalar
  path's per-arrival stuck-value draws cannot influence any
  returned quantity — the kernels elide them.
* Deaths come in one defined order, ascending ``(time, class, flat
  cell index)``: class 0 is a cell still at its base death time (the
  scalar scheduler's cursor), class 1 a cell that inversion wear
  rescheduled (its heap).  Within a row that is ``(time, column + n_bits
  * accelerated)``, the key the batched selection breaks ties by; only
  the rows that meet a tie pay for it.
* The wear formula mirrors the scalar expression's IEEE operation order
  (``now + remaining * write_probability / accel_rate``) so the floats
  agree to the last bit.

Once wear can no longer move a cell — no live row holds a normal cell,
or wear is off — the death order is frozen, and the lock-step loop
becomes a walk over a sorted prefix of each row (:func:`_frozen_walk`).

Every sample goes through the batch, however many of its death times
tie (e.g. :class:`~repro.pcm.lifetime.FixedLifetime`): the log keeps
each death's class and cell next to its time, so the page simulator
counts the deaths before a page's fatal one under the same order.

Coverage is declared on each :class:`~repro.sim.roster.SchemeSpec`: its
constructor binds ``make_batch`` to one of the batch classes below, or
leaves it ``None``; :func:`resolve_engine` maps the public
``engine="auto"|"scalar"`` switch to the path actually taken.
Sampled (data-dependent) schemes — Aegis-rw variants, SAFER-cache,
RDIS — bind none and always take the scalar path.  So do Hamming, the
unprotected baseline and Aegis wider than :data:`MAX_SLOPE_BITS` slopes.
ECP's kernel is one fault counter per row; ECP has no inversion wear, so
its page studies run the frozen-order walk from the first fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.collision import collision_rom_for
from repro.core.formations import formation
from repro.core.partition import partition_for
from repro.errors import ConfigurationError
from repro.schemes.safer import partition_vectors
from repro.sim.context import ENGINE_CHOICES
from repro.util.bitops import ceil_log2

#: the Aegis kernel tracks poisoned slopes in a per-trial uint64 bitset
MAX_SLOPE_BITS = 63

_ONE = np.uint64(1)


def kernel_supported(spec) -> bool:
    """Whether a batch kernel covers ``spec``: its constructor bound a
    ``make_batch`` (static schemes only, Aegis within the slope bitset)."""
    return spec.make_batch is not None


def validate_engine(engine: str) -> str:
    """Check an engine name against the public switch values.

    Shared by the surfaces that take a bare ``engine=`` argument; studies
    driven by an :class:`~repro.sim.context.ExecContext` are checked when
    the context is built.
    """
    if engine not in ENGINE_CHOICES:
        raise ConfigurationError(
            f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
        )
    return engine


def resolve_engine(engine: str, target, covers=kernel_supported) -> str:
    """Map the public engine switch to the path actually taken.

    Returns ``"vector"`` for ``"auto"`` when ``covers(target)`` is truthy
    and ``"scalar"`` otherwise; ``"scalar"`` never consults ``covers``.
    The simulators pass a spec and the default :func:`kernel_supported`
    (the spec bound a ``make_batch``);
    the service layer passes an array and
    :func:`repro.service.kernels.kernel_for`.
    """
    if validate_engine(engine) == "auto" and covers(target):
        return "vector"
    return "scalar"


# ---------------------------------------------------------------------------
# Row-bitset primitives shared with the service-layer kernels
# ---------------------------------------------------------------------------


def pack_rows_u64(rows: np.ndarray) -> np.ndarray:
    """Pack ``(R, n)`` rows of 0/1 (or bool) cells into ``(R, ceil(n/64))``
    uint64 fault bitsets, little-endian within each word.

    The service-layer batch kernels (:mod:`repro.service.kernels`) carry
    per-block fault state in these bitsets so whole-drain predicates are
    word-wide operations instead of per-cell loops.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ConfigurationError("pack_rows_u64 expects a (rows, bits) matrix")
    packed = np.packbits(rows.astype(bool), axis=1, bitorder="little")
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view(np.uint64)


def popcount_rows_u64(words: np.ndarray) -> np.ndarray:
    """Per-row population count of ``(R, words)`` uint64 bitsets."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def count_rows(mask: np.ndarray) -> np.ndarray:
    """Per-row ``True`` counts of a ``(R, n)`` bool matrix.

    When ``n`` is a multiple of 8 the bool bytes are popcounted in place
    as ``uint64`` words (each byte is 0 or 1), skipping the bit packing.
    """
    mask = np.ascontiguousarray(mask, dtype=bool)
    if mask.shape[1] % 8:
        return popcount_rows_u64(pack_rows_u64(mask))
    return popcount_rows_u64(mask.view(np.uint64))


# ---------------------------------------------------------------------------
# Batch checkers: the vectorized counterparts of repro.sim.checkers
# ---------------------------------------------------------------------------


class _BatchChecker:
    """Lock-step survival state for ``n_trials`` independent blocks.

    ``add_faults`` consumes one fault arrival per trial per call (the
    ``f``-th call carries every trial's ``f``-th fault); ``active`` masks
    trials whose row still matters — rows outside it may carry garbage
    offsets and must not change state.
    """

    #: extra per-trial state arrays sliced on row compaction
    _row_state: tuple[str, ...] = ()

    def __init__(self, n_bits: int, n_trials: int) -> None:
        self.n_bits = n_bits
        self.n_trials = n_trials
        self.alive = np.ones(n_trials, dtype=bool)
        #: every arrival so far, one column per arrival (grown by doubling)
        self._hist = np.empty((n_trials, 16), dtype=np.int64)
        self._count = 0

    def compact(self, keep: np.ndarray) -> None:
        """Drop the rows outside the boolean ``keep`` mask.

        The driver compacts its working set to the still-active trials as
        the population dies off; every per-trial state array shrinks in
        step so later calls only pay for live rows.
        """
        self.n_trials = int(keep.sum())
        self.alive = self.alive[keep]
        self._hist = np.ascontiguousarray(self._hist[keep])
        for name in self._row_state:
            setattr(self, name, getattr(self, name)[keep])

    def _push(self, offsets: np.ndarray) -> int:
        """Record the new arrival column; returns the count of *prior* faults."""
        prior = self._count
        if prior == self._hist.shape[1]:
            grown = np.empty((self.n_trials, 2 * prior), dtype=np.int64)
            grown[:, :prior] = self._hist
            self._hist = grown
        self._hist[:, prior] = offsets
        self._count = prior + 1
        return prior

    def add_faults(self, offsets: np.ndarray, active: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def member_masks(self, offsets: np.ndarray) -> np.ndarray:
        """Per-trial boolean masks over block bits: the recovery group of
        each trial's newest fault (the cells that suffer inversion wear)."""
        raise NotImplementedError

    def member_cols(self, offsets: np.ndarray) -> np.ndarray | None:
        """Sparse form of :meth:`member_masks`: a ``(trials, k)`` array of
        member cell indices padded with ``-1``; ``None`` (SAFER) when the
        groups are too large for the sparse path to pay off."""
        return None


class AegisBatch(_BatchChecker):
    """Vectorized :class:`~repro.sim.checkers.AegisChecker`.

    Theorem 2: each fault pair poisons exactly one slope, read off the
    shared collision ROM by fancy indexing; a trial's poisoned set is a
    uint64 bitset and the block dies when all ``B`` bits are set.
    """

    _row_state = ("poisoned",)

    def __init__(self, a_size: int, b_size: int, n_bits: int, n_trials: int) -> None:
        super().__init__(n_bits, n_trials)
        form = formation(a_size, b_size, n_bits)
        self._rom = collision_rom_for(form.rect)._table
        partition = partition_for(form.rect)
        self._part = partition._table
        self.b_size = b_size
        self.poisoned = np.zeros(n_trials, dtype=np.uint64)
        self._full = np.uint64((1 << b_size) - 1)
        # inverse partition: (slope, group) -> member cells, -1-padded;
        # groups are tiny (~a_size cells), which is what makes the sparse
        # wear path worthwhile
        self._members = partition.member_table()

    def add_faults(self, offsets: np.ndarray, active: np.ndarray) -> np.ndarray:
        prior = self._push(offsets)
        if prior:
            slopes = self._rom[offsets[:, None], self._hist[:, :prior]]
            valid = slopes >= 0
            shifts = np.where(valid, slopes, 0).astype(np.uint64)
            bits = np.bitwise_or.reduce(
                np.where(valid, _ONE << shifts, np.uint64(0)), axis=1
            )
            self.poisoned = np.where(active, self.poisoned | bits, self.poisoned)
        self.alive &= ~(active & (self.poisoned == self._full))
        return self.alive

    def _current_slope(self) -> np.ndarray:
        """Each trial's recovery slope: the lowest unpoisoned one."""
        unpoisoned = ~self.poisoned & self._full
        lowest = unpoisoned & (np.uint64(0) - unpoisoned)
        return np.where(
            unpoisoned > 0,
            np.bitwise_count(lowest - _ONE),
            0,
        ).astype(np.int64)

    def member_cols(self, offsets: np.ndarray) -> np.ndarray:
        slope = self._current_slope()
        return self._members[slope, self._part[slope, offsets]]


class SaferIncrementalBatch(_BatchChecker):
    """Vectorized :class:`~repro.sim.checkers.SaferIncrementalChecker`.

    Two structural facts collapse the scalar re-partition loop into one
    vector step per arrival (validated against the scalar checker in
    ``tests/test_kernels.py``):

    * Partition equality is transitive, so between arrivals no two stored
      faults share a value — only the *new* fault can collide, and with
      exactly one earlier fault (the first scan match).
    * Every candidate extension position separates that unique pair, so
      :func:`~repro.schemes.safer.grow_vector`'s collision score is 0 for
      all candidates and its lowest-index tie-break always picks the
      lowest differing address bit; one extension resolves the collision.
    """

    _row_state = ("sel_mask", "n_sel")

    def __init__(self, group_count: int, n_bits: int, n_trials: int) -> None:
        super().__init__(n_bits, n_trials)
        self.max_positions = ceil_log2(group_count)
        self.sel_mask = np.zeros(n_trials, dtype=np.int64)
        self.n_sel = np.zeros(n_trials, dtype=np.int64)

    def add_faults(self, offsets: np.ndarray, active: np.ndarray) -> np.ndarray:
        prior = self._push(offsets)
        if prior:
            prev = self._hist[:, :prior]
            match = ((prev ^ offsets[:, None]) & self.sel_mask[:, None]) == 0
            collided = match.any(axis=1) & active & self.alive
            if collided.any():
                partner = prev[np.arange(self.n_trials), match.argmax(axis=1)]
                dying = collided & (self.n_sel >= self.max_positions)
                self.alive &= ~dying
                extend = collided & ~dying
                differing = partner ^ offsets
                lowest = differing & -differing
                self.sel_mask = np.where(extend, self.sel_mask | lowest, self.sel_mask)
                self.n_sel = np.where(extend, self.n_sel + 1, self.n_sel)
        return self.alive

    def member_masks(self, offsets: np.ndarray) -> np.ndarray:
        cells = np.arange(self.n_bits, dtype=np.int64)
        return ((cells[None, :] ^ offsets[:, None]) & self.sel_mask[:, None]) == 0


class SaferExhaustiveBatch(_BatchChecker):
    """Vectorized :class:`~repro.sim.checkers.SaferChecker` (exhaustive
    policy): a per-trial boolean row over every candidate partition
    vector; a vector dies when the new fault equals an earlier fault
    under it, the trial dies when its row empties."""

    _row_state = ("alive_vectors",)

    def __init__(self, group_count: int, n_bits: int, n_trials: int) -> None:
        super().__init__(n_bits, n_trials)
        vectors = partition_vectors(n_bits, ceil_log2(group_count))
        self.vector_masks = np.asarray(
            [sum(1 << position for position in vector) for vector in vectors], dtype=np.int64
        )
        self.alive_vectors = np.ones((n_trials, len(vectors)), dtype=bool)

    def add_faults(self, offsets: np.ndarray, active: np.ndarray) -> np.ndarray:
        prior = self._push(offsets)
        if prior:
            diff = self._hist[:, :prior] ^ offsets[:, None]  # (trials, prior)
            doomed = np.zeros_like(self.alive_vectors)
            for start in range(0, prior, 16):  # bound the (T, f, V) temporary
                chunk = diff[:, start : start + 16, None] & self.vector_masks
                doomed |= (chunk == 0).any(axis=1)
            update = active & self.alive
            self.alive_vectors[update] &= ~doomed[update]
            self.alive &= ~(update & ~self.alive_vectors.any(axis=1))
        return self.alive

    def member_masks(self, offsets: np.ndarray) -> np.ndarray:
        first = self.vector_masks[self.alive_vectors.argmax(axis=1)]
        cells = np.arange(self.n_bits, dtype=np.int64)
        return ((cells[None, :] ^ offsets[:, None]) & first[:, None]) == 0


class EcpBatch(_BatchChecker):
    """Vectorized :class:`~repro.sim.checkers.EcpChecker`: one fault
    counter per trial; the block dies with fault ``p + 1``."""

    _row_state = ("faults",)

    def __init__(self, pointers: int, n_bits: int, n_trials: int) -> None:
        super().__init__(n_bits, n_trials)
        self.pointers = pointers
        self.faults = np.zeros(n_trials, dtype=np.int64)

    def add_faults(self, offsets: np.ndarray, active: np.ndarray) -> np.ndarray:
        self.faults += active
        self.alive &= ~(active & (self.faults > self.pointers))
        return self.alive


def batch_checker_for(spec, n_trials: int) -> _BatchChecker:
    """Construct the batch checker covering ``spec`` for ``n_trials`` rows."""
    if not kernel_supported(spec):
        raise ConfigurationError(f"no batch kernel covers scheme {spec.key!r}")
    return spec.make_batch(n_trials)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicsResult:
    """Outcome of a batched event-driven wear simulation.

    A death's *tie* is its place among deaths of equal time on its page:
    its flat cell index within the page, plus the page's cell count if
    wear had rescheduled the cell (the ``(class, flat index)`` of the
    death order)."""

    death_time: np.ndarray   # (trials,) page-write age at block death
    death_tie: np.ndarray    # (trials,) tie of the fatal death
    event_times: np.ndarray  # (trials, steps) +inf-padded death log
    event_ties: np.ndarray   # (trials, steps) tie of each logged death (any at +inf)


class _Lockstep:
    """Row bookkeeping of a lock-step run.  Consecutive runs of
    ``blocks_per_page`` rows form a page; the working set compacts to the
    surviving rows, and ``row_ids`` maps them back to caller rows."""

    def __init__(self, spec, trials: int, blocks_per_page: int) -> None:
        self.row_ids = np.arange(trials)
        self.groups = self.row_ids // blocks_per_page
        #: flat index of each row's first cell within its page
        self.first_cell = (self.row_ids % blocks_per_page) * spec.n_bits
        self.page_cells = blocks_per_page * spec.n_bits
        self.active = np.ones(trials, dtype=bool)
        self.death_time = np.full(trials, np.inf)
        self.death_tie = np.zeros(trials, dtype=np.int64)
        self.group_min = np.full(int(self.groups[-1]) + 1, np.inf)
        self.columns: list[np.ndarray] = []
        self.tie_columns: list[np.ndarray] = []
        self.checker = batch_checker_for(spec, trials)

    def step(self, now: np.ndarray, cells: np.ndarray, accelerated) -> bool:
        """Feed every active row's next death (time ``now``, in-block
        offset ``cells``, ``accelerated`` if wear rescheduled it) to the
        checker and log it; returns whether any row is still active.

        Rows whose next event falls strictly after their page's earliest
        known death retire first (events *at* the page minimum must still
        be recorded for the tie audit).
        """
        active = self.active
        active &= ~(now > self.group_min[self.groups])
        if not active.any():
            return False
        column = np.full(self.death_time.size, np.inf)
        column[self.row_ids[active]] = now[active]
        self.columns.append(column)
        ties = cells + self.first_cell + self.page_cells * accelerated
        if ties.size == self.death_time.size:
            self.tie_columns.append(ties)
        else:  # compacted rows: back to caller rows
            column = np.zeros(self.death_time.size, dtype=np.int64)
            column[self.row_ids] = ties
            self.tie_columns.append(column)
        alive = self.checker.add_faults(cells, active)
        newly_dead = active & ~alive
        if newly_dead.any():
            self.death_time[self.row_ids[newly_dead]] = now[newly_dead]
            self.death_tie[self.row_ids[newly_dead]] = ties[newly_dead]
            np.minimum.at(self.group_min, self.groups[newly_dead], now[newly_dead])
        active &= alive
        return bool(active.any())

    def compact(self) -> np.ndarray | None:
        """Drop the inactive rows once fewer than half are active; returns
        the keep mask for the caller's own row arrays, or ``None``."""
        keep = self.active
        n_active = int(keep.sum())
        if n_active * 2 >= keep.size:
            return None
        self.row_ids = self.row_ids[keep]
        self.groups = self.groups[keep]
        self.first_cell = self.first_cell[keep]
        self.checker.compact(keep)
        self.active = np.ones(n_active, dtype=bool)
        return keep

    def result(self) -> DynamicsResult:
        # step 0 runs for every row, so the log is never empty
        return DynamicsResult(
            death_time=self.death_time,
            death_tie=self.death_tie,
            event_times=np.stack(self.columns, axis=1),
            event_ties=np.stack(self.tie_columns, axis=1),
        )


# ---------------------------------------------------------------------------
# Fault-model input transforms
#
# The pluggable fault models (:mod:`repro.pcm.faults`) reshape a trial's
# *inputs* — death times and mask flags — and then run the unchanged
# engines above.  Because the reshaping happens before engine
# dispatch and draws its randomness in a fixed order, scalar and vector
# runs of the new models stay bit-identical for free; these are the
# vectorized forms of those transforms.
# ---------------------------------------------------------------------------


def burst_collapse(values: np.ndarray, span: int, bursty: np.ndarray) -> np.ndarray:
    """Collapse each bursty aligned span of a flat array onto its minimum.

    ``values`` is any per-cell quantity (death times, endurances);
    ``bursty`` flags each of the ``ceil(n / span)`` spans.  Cells of a
    bursty span all take the span minimum — the drift-burst avalanche —
    while other cells are untouched.  Returns a new array.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    n_spans = -(-n // span)
    pad = n_spans * span - n
    padded = np.concatenate([values, np.full(pad, np.inf)]) if pad else values
    mins = padded.reshape(n_spans, span).min(axis=1)
    span_of = np.repeat(np.arange(n_spans), span)[:n]
    out = values.copy()
    collapse = np.asarray(bursty, dtype=bool)[span_of]
    out[collapse] = mins[span_of[collapse]]
    return out


def mask_partial_deaths(
    base_death: np.ndarray, flags: np.ndarray, n_bits: int, budget: int
) -> np.ndarray:
    """Select the free-masked cells of a flat block-major population.

    ``flags`` marks partial-prone *cells*; each block masks its first
    ``budget`` partial cells in base-death order (stable tie-break by
    cell index, matching the scalar walk).  Returns a boolean mask over
    the flat population.
    """
    masked = np.zeros(base_death.shape[0], dtype=bool)
    flags = np.asarray(flags, dtype=bool)
    if budget <= 0 or not flags.any():
        return masked
    grid = np.asarray(base_death, dtype=np.float64).reshape(-1, n_bits)
    fgrid = flags.reshape(-1, n_bits)
    order = np.argsort(grid, axis=1, kind="stable")
    sorted_flags = np.take_along_axis(fgrid, order, axis=1)
    pick = sorted_flags & (np.cumsum(sorted_flags, axis=1) <= budget)
    rows, cols = np.nonzero(pick)
    masked[rows * n_bits + order[rows, cols]] = True
    return masked


def _worn(base_death, now, write_probability: float, accel_rate: float):
    """Accelerated death times, in the scalar wear expression's IEEE
    operation order: ``now + remaining * write_probability / accel_rate``."""
    wear = base_death - now
    np.maximum(wear, 0.0, out=wear)
    wear *= write_probability
    wear /= accel_rate
    wear += now
    return wear


#: first width of the frozen-order walk's sorted prefix; it doubles
#: whenever a live row walks past the exact part of its prefix
FROZEN_PREFIX = 32

#: rows per ``argpartition`` call of a prefix: bounds its full-width
#: int64 index temporary (an ECP page-study call has ~1500 rows)
_PARTITION_ROWS = 256


def sorted_prefix(deaths: np.ndarray, width: int) -> tuple:
    """The first ``width`` deaths of every row of ``deaths`` in ``(time,
    column)`` order, as ``(cells, times, exact)``.

    The prefix comes from an ``argpartition``, so cells tied with its edge
    may be missing from it: only a row's first ``exact[row]`` entries —
    those strictly earlier than every cell left out — are its true
    schedule.  A prefix as wide as the row is exact throughout.  The
    frozen walk calls this on its rows, the scalar scheduler on a page
    flattened into one row.
    """
    n_rows, n_cols = deaths.shape
    # a stable sort of columns in ascending order breaks ties by column
    if width >= n_cols:  # the whole row: no cell is left out
        cells = np.argsort(deaths, axis=1, kind="stable")
        return cells, np.take_along_axis(deaths, cells, axis=1), np.full(n_rows, n_cols)
    if n_rows == 1:  # the scalar scheduler's page: 1-D indexing is cheaper
        row = deaths[0]
        part = np.argpartition(row, width)
        cells = np.sort(part[:width])
        cells = cells[np.argsort(row[cells], kind="stable")]
        times = row[cells]
        return cells[None], times[None], np.array([np.count_nonzero(times < row[part[width]])])
    edge = np.empty((n_rows, 1))
    cells = np.empty((n_rows, width), dtype=np.int64)
    for start in range(0, n_rows, _PARTITION_ROWS):
        chunk = slice(start, start + _PARTITION_ROWS)
        part = np.argpartition(deaths[chunk], width, axis=1)
        edge[chunk] = np.take_along_axis(deaths[chunk], part[:, width : width + 1], axis=1)
        cells[chunk] = np.sort(part[:, :width], axis=1)
    times = np.take_along_axis(deaths, cells, axis=1)
    order = np.argsort(times, axis=1, kind="stable")
    cells = np.take_along_axis(cells, order, axis=1)
    times = np.take_along_axis(times, order, axis=1)
    return cells, times, np.count_nonzero(times < edge, axis=1)


def _frozen_walk(
    spec, lock: _Lockstep, frozen: np.ndarray, first_step: int, accelerated: bool
) -> DynamicsResult:
    """Finish a lock-step run whose death order can no longer change.

    Once no live cell can be moved by wear, each row's remaining deaths
    are its ``frozen`` times, all of one class (``accelerated`` or not),
    in ``(time, column)`` order, so the loop reduces to walking a sorted
    prefix through the checker, widening the prefix whenever a live row
    runs past its exact part.
    """
    n_bits = frozen.shape[1]
    width = FROZEN_PREFIX
    cells, times, exact = sorted_prefix(frozen, width)
    for step in range(n_bits - first_step):
        while width < n_bits and (exact[lock.active] <= step).any():
            width = min(2 * width, n_bits)
            cells, times, exact = sorted_prefix(frozen, width)
        if not lock.step(times[:, step], cells[:, step], accelerated):
            return lock.result()
        keep = lock.compact()
        if keep is not None:
            frozen = frozen[keep]
            cells, times, exact = cells[keep], times[keep], exact[keep]
    raise AssertionError(
        f"{spec.label}: block outlived every cell"
    )  # pragma: no cover - every covered scheme dies before saturation


def block_dynamics(
    spec,
    base_death: np.ndarray,
    *,
    blocks_per_page: int,
    write_probability: float,
    inversion_wear_rate: float,
) -> DynamicsResult:
    """Run the event-driven death/wear loop for a ``(trials, n_bits)``
    population in lock step: step ``f`` processes the ``f``-th cell death
    of every still-active trial at once, and logs every row's event time.

    Each row takes its deaths in the page's order ``(time, class, flat
    cell index)``; within a row that is ``(time, column + n_bits *
    accelerated)``: a base cell beats a worn one of equal time (the scalar
    cursor beats its heap), and equal classes go by column.

    Once no live row holds a normal cell (from step 0 without wear, after
    one step for SAFER) the run finishes as a :func:`_frozen_walk`.

    Once some row of a page has died, rows of that page whose next event
    can no longer precede the page's earliest death are retired early —
    their ``death_time`` stays ``+inf``.  Retirement never changes any
    recorded event at or below the page minimum, which is all a page study
    reads.
    """
    base_death = np.ascontiguousarray(base_death, dtype=np.float64)
    trials, n_bits = base_death.shape
    lock = _Lockstep(spec, trials, blocks_per_page)
    if not (spec.inversion_wear and inversion_wear_rate > 0):
        return _frozen_walk(spec, lock, base_death, 0, False)

    accel_rate = write_probability + inversion_wear_rate
    current = base_death.copy()
    normal = np.ones((trials, n_bits), dtype=bool)
    columns = np.arange(n_bits)
    rows = np.arange(trials)
    flat_current = current.reshape(-1)
    for step in range(n_bits):
        # argmin alone picks the right cell except on exact duplicate
        # times (it breaks ties by column alone, the order by class
        # first).  A row ties iff its runner-up equals its minimum: hide
        # each row's chosen cell, take the minimum again, then restore
        # it; only the live rows that tie pick again
        chosen = current.argmin(axis=1)
        at = rows * n_bits + chosen
        now = flat_current[at]
        flat_current[at] = np.inf
        tied = np.flatnonzero((current.min(axis=1) == now) & lock.active)
        flat_current[at] = now
        if tied.size:
            candidate = current[tied] == now[tied, None]
            ties = np.where(normal[tied], columns, columns + n_bits)
            chosen[tied] = np.where(candidate, ties, 2 * n_bits).argmin(axis=1)
            at[tied] = tied * n_bits + chosen[tied]
        if not lock.step(now, chosen, ~normal.reshape(-1)[at]):
            return lock.result()
        live = rows[lock.active]
        dying = chosen[live]
        current[live, dying] = np.inf
        normal[live, dying] = False
        cols = lock.checker.member_cols(chosen)
        if cols is None:  # SAFER's large groups come as dense masks
            # inactive rows stay inactive, so wearing them is harmless
            target = lock.checker.member_masks(chosen)
            target &= normal
            wear = _worn(base_death, now[:, None], write_probability, accel_rate)
            np.copyto(current, wear, where=target)
            normal &= ~target
        else:
            # flat indices into the C-contiguous matrices: 1-D takes and
            # puts are several times cheaper than 2-D fancy indexing; a -1
            # pad reads a neighbouring cell, which the mask then drops
            members = cols[live]
            flat = members + (live * n_bits)[:, None]
            flat = flat[(members >= 0) & normal.reshape(-1)[flat]]
            current.reshape(-1)[flat] = _worn(
                base_death.reshape(-1)[flat],
                now[flat // n_bits],
                write_probability,
                accel_rate,
            )
            normal.reshape(-1)[flat] = False
        keep = lock.compact()
        if keep is not None:
            base_death = np.ascontiguousarray(base_death[keep])
            current = np.ascontiguousarray(current[keep])
            flat_current = current.reshape(-1)
            normal = np.ascontiguousarray(normal[keep])
            rows = np.arange(lock.row_ids.size)
        if cols is None and not normal[lock.active].any():
            # wear only ever moves normal cells: the order is frozen now
            # (Aegis groups are a few cells, so its rows never get here)
            return _frozen_walk(spec, lock, current, step + 1, True)
    raise AssertionError(
        f"{spec.label}: block outlived every cell"
    )  # pragma: no cover - every covered scheme dies before saturation
