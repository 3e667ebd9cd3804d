"""Vectorized batch-trial Monte Carlo kernels.

The scalar engines in :mod:`repro.sim.block_sim` and
:mod:`repro.sim.page_sim` walk one trial and one fault arrival at a time
through Python-level :meth:`~repro.sim.checkers.BlockChecker.add_fault`
calls.  For the *static* schemes — plain Aegis, SAFER, Hamming and the
unprotected baseline, whose survival is a pure set property of the fault
locations — the per-arrival state update is a handful of integer
operations, so an entire ``(trials, n_bits)`` block population can be
advanced in lock step with numpy: one fancy-indexed collision-ROM lookup,
one poisoned-slope bitset OR, one partition-vector extension per step,
for *all* trials at once.

Bit-identity contract
---------------------
Every kernel reproduces the scalar path exactly, not just statistically:

* Trial ``t`` consumes the same substream ``rng_for(seed, t)`` draws in
  the same order.  Static checkers never draw from the generator, and
  their survival verdict ignores the stuck-at *values*, so the scalar
  path's per-arrival ``rng.integers(0, 2)`` draws cannot influence any
  returned quantity — the kernels elide them.
* The event-driven wear dynamics replicate the scalar scheduler's
  selection order, including its tie-breaks: at equal event times the
  base-endurance cursor beats the acceleration heap, and the heap orders
  equal times by cell index.  The batched selection key ``(time,
  accelerated?, cell index)`` encodes exactly that.
* The wear formula mirrors the scalar expression's IEEE operation order
  (``now + remaining * write_probability / accel_rate``) so the floats
  agree to the last bit.

Trials whose sampled endurances contain duplicate death times (possible
under :class:`~repro.pcm.lifetime.FixedLifetime`) are reported for
transparent scalar fallback: the scalar scheduler's order among exact
ties depends on its unstable ``argsort``, which a batched kernel cannot
cheaply replicate.  Under the continuous default models ties have
probability zero.

Coverage is declared on each :class:`~repro.sim.roster.SchemeSpec` via
its ``kernel`` tag; :func:`resolve_engine` maps the public
``engine="auto"|"scalar"`` switch to the path actually taken.
Sampled (data-dependent) schemes — Aegis-rw variants, SAFER-cache,
RDIS — carry no tag and always take the scalar path.  So does ECP: its
checker is one counter compare per arrival, and the scalar page loop
beats a lock-step kernel on every page-study call shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.core.collision import collision_rom_for
from repro.core.formations import formation
from repro.core.partition import partition_for
from repro.errors import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.sim.context import ENGINE_CHOICES
from repro.util.bitops import ceil_log2

#: the Aegis kernel tracks poisoned slopes in a per-trial uint64 bitset
MAX_SLOPE_BITS = 63

_NORMAL, _ACCELERATED, _DEAD = 0, 1, 2

_ONE = np.uint64(1)


def kernel_supported(spec) -> bool:
    """Whether a batch kernel covers ``spec`` (static scheme, in-range)."""
    tag = getattr(spec, "kernel", None)
    if not tag:
        return False
    if tag[0] == "aegis":
        return tag[2] <= MAX_SLOPE_BITS  # uint64 poisoned-slope bitset
    return tag[0] in _BUILDERS


def validate_engine(engine: str) -> str:
    """Check an engine name against the public switch values.

    Shared by every surface that accepts ``engine=`` — including
    simulators whose dynamics have no batch kernel yet (pairing, PAYG,
    FREE-p remap), which validate the request here and then fall back to
    their scalar path transparently, exactly like :func:`resolve_engine`
    does for kernel-less schemes.
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
    The simulators pass a spec and the default :func:`kernel_supported`;
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


def xor_popcount_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Hamming distance between two ``(R, n)`` 0/1 matrices.

    For a differential write this *is* the cell-write cost: the number of
    cells whose stored value differs from the target form.
    """
    return count_rows(np.asarray(a) != np.asarray(b))


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

    #: subclasses that never look back at earlier arrivals skip the buffer
    needs_history = False

    #: extra per-trial state arrays sliced on row compaction
    _row_state: tuple[str, ...] = ()

    def __init__(self, n_bits: int, n_trials: int) -> None:
        self.n_bits = n_bits
        self.n_trials = n_trials
        self.alive = np.ones(n_trials, dtype=bool)
        self._hist = (
            np.empty((n_trials, 16), dtype=np.int64) if self.needs_history else None
        )
        self._count = 0

    def compact(self, keep: np.ndarray) -> None:
        """Drop the rows outside the boolean ``keep`` mask.

        The driver compacts its working set to the still-active trials as
        the population dies off; every per-trial state array shrinks in
        step so later calls only pay for live rows.
        """
        self.n_trials = int(keep.sum())
        self.alive = self.alive[keep]
        if self._hist is not None:
            self._hist = np.ascontiguousarray(self._hist[keep])
        for name in self._row_state:
            setattr(self, name, getattr(self, name)[keep])

    def _push(self, offsets: np.ndarray) -> int:
        """Record the new arrival column; returns the count of *prior* faults."""
        prior = self._count
        if self._hist is not None:
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
        member cell indices padded with ``-1``, or ``None`` when the
        scheme's groups are too large for the sparse path to pay off."""
        return None


class _AegisBatch(_BatchChecker):
    """Vectorized :class:`~repro.sim.checkers.AegisChecker`.

    Theorem 2: each fault pair poisons exactly one slope, read off the
    shared collision ROM by fancy indexing; a trial's poisoned set is a
    uint64 bitset and the block dies when all ``B`` bits are set.
    """

    needs_history = True
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

    def member_masks(self, offsets: np.ndarray) -> np.ndarray:
        slope = self._current_slope()
        rows = self._part[slope]  # (trials, n_bits) group ids at each slope
        group = rows[np.arange(self.n_trials), offsets]
        return rows == group[:, None]

    def member_cols(self, offsets: np.ndarray) -> np.ndarray:
        slope = self._current_slope()
        return self._members[slope, self._part[slope, offsets]]


class _NoneBatch(_BatchChecker):
    """The unprotected baseline: the first fault is fatal."""

    def add_faults(self, offsets: np.ndarray, active: np.ndarray) -> np.ndarray:
        self.alive &= ~active
        return self.alive


class _HammingBatch(_BatchChecker):
    """Vectorized :class:`~repro.sim.checkers.HammingChecker`: a trial
    dies when two faults land in one SEC-DED word.  (The scalar checker
    is filed with the sampled family but never draws — word collocation
    alone decides death.)"""

    needs_history = True

    def __init__(self, word_bits: int, n_bits: int, n_trials: int) -> None:
        super().__init__(n_bits, n_trials)
        self.word_bits = word_bits

    def add_faults(self, offsets: np.ndarray, active: np.ndarray) -> np.ndarray:
        prior = self._push(offsets)
        if prior:
            words = self._hist[:, :prior] // self.word_bits
            collide = (words == (offsets // self.word_bits)[:, None]).any(axis=1)
            self.alive &= ~(active & collide)
        return self.alive


class _SaferIncrementalBatch(_BatchChecker):
    """Vectorized :class:`~repro.sim.checkers.SaferIncrementalChecker`.

    Two structural facts collapse the scalar re-partition loop into one
    vector step per arrival (validated against the scalar checker in
    ``tests/test_kernels.py``):

    * Partition equality is transitive, so between arrivals no two stored
      faults share a value — only the *new* fault can collide, and with
      exactly one earlier fault (the first scan match).
    * Every candidate extension position separates that unique pair, so
      ``best_extension``'s collision score is 0 for all candidates and
      its lowest-index tie-break always picks the lowest differing
      address bit; one extension resolves the collision.
    """

    needs_history = True
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


class _SaferExhaustiveBatch(_BatchChecker):
    """Vectorized :class:`~repro.sim.checkers.SaferChecker` (exhaustive
    policy): a per-trial boolean row over every candidate partition
    vector; a vector dies when the new fault equals an earlier fault
    under it, the trial dies when its row empties."""

    needs_history = True
    _row_state = ("alive_vectors",)

    def __init__(self, group_count: int, n_bits: int, n_trials: int) -> None:
        super().__init__(n_bits, n_trials)
        addr_bits = ceil_log2(n_bits)
        max_positions = ceil_log2(group_count)
        masks = []
        for vector in combinations(range(addr_bits), max_positions):
            mask = 0
            for position in vector:
                mask |= 1 << position
            masks.append(mask)
        self.vector_masks = np.asarray(masks, dtype=np.int64)
        self.alive_vectors = np.ones((n_trials, len(masks)), dtype=bool)

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


_BUILDERS = {
    "aegis": lambda tag, n_bits, n_trials: _AegisBatch(tag[1], tag[2], n_bits, n_trials),
    "safer-incremental": lambda tag, n_bits, n_trials: _SaferIncrementalBatch(
        tag[1], n_bits, n_trials
    ),
    "safer-exhaustive": lambda tag, n_bits, n_trials: _SaferExhaustiveBatch(
        tag[1], n_bits, n_trials
    ),
    "hamming": lambda tag, n_bits, n_trials: _HammingBatch(tag[1], n_bits, n_trials),
    "none": lambda tag, n_bits, n_trials: _NoneBatch(n_bits, n_trials),
}


def batch_checker_for(spec, n_trials: int) -> _BatchChecker:
    """Construct the batch checker covering ``spec`` for ``n_trials`` rows."""
    if not kernel_supported(spec):
        raise ConfigurationError(f"no batch kernel covers scheme {spec.key!r}")
    tag = spec.kernel
    return _BUILDERS[tag[0]](tag, spec.n_bits, n_trials)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _observe_kernel(spec, op: str, trials: int, steps: int) -> None:
    registry = get_metrics()
    if registry is not None:
        registry.observe(
            "stage_cost",
            float(trials * steps),
            stage="kernel",
            op=op,
            scheme=spec.key,
        )


def death_indices(spec, positions: np.ndarray) -> np.ndarray:
    """Fault count at death for every trial of a failure-curve study.

    ``positions`` holds each trial's fault-arrival permutation, row ``t``
    being ``rng_for(seed, t).permutation(n_bits)`` — the exact draw the
    scalar path makes, so the returned counts are bit-identical to
    looping :func:`repro.sim.block_sim.faults_at_death`.
    """
    trials, n_bits = positions.shape
    deaths = np.zeros(trials, dtype=np.int64)
    active = np.ones(trials, dtype=bool)
    tracer = get_tracer()
    with tracer.span("kernel", op="death_indices", spec=spec.key, trials=trials) as span:
        checker = batch_checker_for(spec, trials)
        for step in range(n_bits):
            alive = checker.add_faults(
                np.ascontiguousarray(positions[:, step], dtype=np.int64), active
            )
            newly_dead = active & ~alive
            deaths[newly_dead] = step + 1
            active &= alive
            if not active.any():
                span.cost(steps=step + 1)
                _observe_kernel(spec, "death_indices", trials, step + 1)
                return deaths
    raise AssertionError(
        f"{spec.label}: block survived all {n_bits} faults"
    )  # pragma: no cover - every covered scheme dies before saturation


#: duplicate-death-time fraction above which a sample is considered
#: pathologically tied (e.g. ``FixedLifetime``) and the lock-step batch
#: would grind through near-simultaneous events; callers route such
#: samples straight to the scalar scheduler instead
HEAVY_TIE_FRACTION = 0.01


def tie_fraction(base_death: np.ndarray) -> float:
    """Fraction of adjacent sorted death times that are exact duplicates.

    ``+inf`` entries (free-masked cells under the partial fault model,
    which never produce events) are excluded from the duplicate count —
    they would otherwise read as pathological ties and defeat the batch
    path for every masked sample.
    """
    ordered = np.sort(base_death, axis=-1)
    dup = (ordered[..., 1:] == ordered[..., :-1]) & np.isfinite(ordered[..., 1:])
    return float(dup.mean())


# ---------------------------------------------------------------------------
# Fault-model input transforms
#
# The pluggable fault models (:mod:`repro.pcm.faults`) reshape a trial's
# *inputs* — death times, arrival order, mask flags — and then run the
# unchanged engines above.  Because the reshaping happens before engine
# dispatch and draws its randomness in a fixed order, scalar and vector
# runs of the new models stay bit-identical for free; these are the
# vectorized forms of those transforms.
# ---------------------------------------------------------------------------


def burst_collapse(values: np.ndarray, span: int, bursty: np.ndarray) -> np.ndarray:
    """Collapse each bursty aligned span of a flat array onto its minimum.

    ``values`` is any per-cell quantity (death times, arrival ranks);
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


def masked_arrival_order(
    positions: np.ndarray, flags: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Rewrite one trial's arrival permutation for free partial masks.

    ``positions`` is the cell-id arrival order, ``flags`` marks which
    *arrivals* are partial; the first ``budget`` partial arrivals are
    masked — they never reach the checker, so they move to the end of the
    stream.  Returns ``(stream, arrival_numbers)`` where
    ``arrival_numbers[j]`` is the 1-based *original* arrival count to
    report when stream entry ``j`` is fatal (the masked tail saturates at
    ``n``; a checker always dies long before reaching it).  ``None``
    means the identity mapping — nothing was masked.
    """
    if budget <= 0:
        return positions, None
    flags = np.asarray(flags, dtype=bool)
    masked = flags & (np.cumsum(flags) <= budget)
    if not masked.any():
        return positions, None
    keep = ~masked
    stream = np.concatenate([positions[keep], positions[masked]])
    numbers = np.concatenate(
        [
            np.flatnonzero(keep) + 1,
            np.full(int(masked.sum()), positions.shape[0], dtype=np.int64),
        ]
    )
    return stream, numbers


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


@dataclass(frozen=True)
class DynamicsResult:
    """Outcome of a batched event-driven wear simulation."""

    death_time: np.ndarray        # (trials,) page-write age at block death
    death_faults: np.ndarray      # (trials,) faults at death, fatal included
    event_times: np.ndarray | None  # (trials, steps) +inf-padded death log


def _wear_sparse(
    cols: np.ndarray,
    active: np.ndarray,
    normal: np.ndarray,
    base_death: np.ndarray,
    current: np.ndarray,
    tie_order: np.ndarray,
    now: np.ndarray,
    n_bits: int,
    write_probability: float,
    accel_rate: float,
) -> None:
    """Apply inversion wear to the gathered member cells only.

    ``cols`` is the ``(trials, k)`` -1-padded member-index form; touching
    just those cells replaces several full-matrix passes per step with
    ``O(trials * k)`` gather/scatter work.
    """
    act = np.flatnonzero(active)
    safe = cols[act]
    valid = safe >= 0
    np.maximum(safe, 0, out=safe)
    valid &= normal[act[:, None], safe]
    rr = np.broadcast_to(act[:, None], safe.shape)[valid]
    cc = safe[valid]
    if not rr.size:
        return
    # the scalar wear expression, same IEEE operation order:
    # now + remaining * write_probability / accel_rate
    vals = base_death[rr, cc] - now[rr]
    np.maximum(vals, 0.0, out=vals)
    vals *= write_probability
    vals /= accel_rate
    vals += now[rr]
    current[rr, cc] = vals
    tie_order[rr, cc] = cc + n_bits
    normal[rr, cc] = False


def _static_dynamics(
    spec,
    base_death: np.ndarray,
    *,
    record_events: bool,
    stop_groups: np.ndarray | None,
) -> DynamicsResult:
    """The no-wear degenerate of :func:`block_dynamics`: death times never
    move, so each row's fault order is frozen as the argsort of its base
    death times (ties resolve in the same introsort order the scalar
    scheduler uses) and the event loop reduces to walking sorted columns
    through the batch checker."""
    trials, n_bits = base_death.shape
    order = np.argsort(base_death, axis=1)
    times = np.take_along_axis(base_death, order, axis=1)
    death_time = np.full(trials, np.inf)
    death_faults = np.zeros(trials, dtype=np.int64)
    group_min = None
    groups = stop_groups
    if stop_groups is not None:
        group_min = np.full(int(stop_groups.max()) + 1, np.inf)
    event_columns: list[np.ndarray] | None = [] if record_events else None
    row_ids = np.arange(trials)
    n_rows = trials
    active = np.ones(n_rows, dtype=bool)

    tracer = get_tracer()
    with tracer.span("kernel", op="block_dynamics", spec=spec.key, trials=trials) as span:
        checker = batch_checker_for(spec, trials)
        steps = 0
        for step in range(n_bits):
            if not active.any():
                break
            now = times[:, step]
            if group_min is not None:
                active &= ~(now > group_min[groups])
                if not active.any():
                    break
            if record_events:
                column = np.full(trials, np.inf)
                column[row_ids[active]] = now[active]
                event_columns.append(column)
            alive = checker.add_faults(np.ascontiguousarray(order[:, step]), active)
            newly_dead = active & ~alive
            if newly_dead.any():
                dead_rows = row_ids[newly_dead]
                death_time[dead_rows] = now[newly_dead]
                death_faults[dead_rows] = step + 1
                if group_min is not None:
                    np.minimum.at(group_min, groups[newly_dead], now[newly_dead])
            active &= alive
            steps = step + 1
            n_active = int(active.sum())
            if n_active and n_active * 2 < n_rows:
                keep = active
                row_ids = row_ids[keep]
                times = np.ascontiguousarray(times[keep])
                order = np.ascontiguousarray(order[keep])
                if groups is not None:
                    groups = groups[keep]
                checker.compact(keep)
                n_rows = n_active
                active = np.ones(n_rows, dtype=bool)
        else:  # pragma: no cover - every covered scheme dies before saturation
            if active.any():
                raise AssertionError(f"{spec.label}: block outlived every cell")
        span.cost(steps=steps)
    _observe_kernel(spec, "block_dynamics", trials, steps)
    events = None
    if record_events:
        events = (
            np.stack(event_columns, axis=1)
            if event_columns
            else np.empty((trials, 0))
        )
    return DynamicsResult(
        death_time=death_time, death_faults=death_faults, event_times=events
    )


def block_dynamics(
    spec,
    base_death: np.ndarray,
    *,
    write_probability: float,
    inversion_wear_rate: float,
    record_events: bool = False,
    stop_groups: np.ndarray | None = None,
) -> DynamicsResult:
    """Run the event-driven death/wear loop for a ``(trials, n_bits)``
    population in lock step: step ``f`` processes the ``f``-th cell death
    of every still-active trial at once.

    The per-trial selection key ``(event time, accelerated?, tie rank)``
    replicates the scalar scheduler exactly, duplicates included: among
    base deaths the tie rank is the cell's position in the *same*
    ``np.argsort`` the scalar path runs (so equal times resolve in the
    identical, if arbitrary, introsort order), accelerated cells rank
    after every base cell of equal time (the cursor beats the heap) and
    among themselves by cell index (the heap's secondary key).

    ``stop_groups`` labels each trial row with a group id (a page); once
    some row of a group has died, rows of that group whose next event
    can no longer precede the group's earliest death are retired early —
    their ``death_time`` stays ``+inf``.  Retirement never changes any
    recorded event at or below the group minimum, which is all a page
    study reads.
    """
    base_death = np.ascontiguousarray(base_death, dtype=np.float64)
    trials, n_bits = base_death.shape
    accel_rate = write_probability + inversion_wear_rate
    apply_wear = spec.inversion_wear and inversion_wear_rate > 0
    if not apply_wear:
        # without wear the death order is frozen at t=0: it is exactly the
        # argsort of the base death times, so the event loop degenerates
        # to walking sorted columns through the checker
        return _static_dynamics(
            spec, base_death, record_events=record_events, stop_groups=stop_groups
        )

    current = base_death.copy()
    order = np.argsort(base_death, axis=1)  # the scalar path's own sort
    tie_order = np.empty((trials, n_bits), dtype=np.int64)
    np.put_along_axis(
        tie_order,
        order,
        np.broadcast_to(np.arange(n_bits, dtype=np.int64), (trials, n_bits)),
        axis=1,
    )
    # tie rank once accelerated: after all base ranks, ordered by cell index
    base_rank = np.arange(n_bits, dtype=np.int64)
    accel_rank = base_rank + n_bits
    normal = np.ones((trials, n_bits), dtype=bool)
    death_time = np.full(trials, np.inf)
    death_faults = np.zeros(trials, dtype=np.int64)
    group_min = None
    groups = stop_groups
    if stop_groups is not None:
        group_min = np.full(int(stop_groups.max()) + 1, np.inf)
    event_columns: list[np.ndarray] = [] if record_events else None

    # the working set compacts to the surviving rows as the population
    # dies off; ``row_ids`` maps compacted rows back to caller rows
    row_ids = np.arange(trials)
    n_rows = trials
    active = np.ones(n_rows, dtype=bool)
    rows = np.arange(n_rows)
    candidate = np.empty((n_rows, n_bits), dtype=bool)
    accel_order = np.broadcast_to(accel_rank, (n_rows, n_bits))
    max_rank = np.iinfo(np.int64).max

    tracer = get_tracer()
    with tracer.span("kernel", op="block_dynamics", spec=spec.key, trials=trials) as span:
        checker = batch_checker_for(spec, trials)
        steps = 0
        for step in range(n_bits):
            if not active.any():
                break
            # argmin alone picks the right cell except on exact duplicate
            # times (it breaks ties by column, the scalar path by tie
            # rank); detect tied rows and redo just those with the rank key
            chosen = current.argmin(axis=1)
            now = current[rows, chosen]
            np.equal(current, now[:, None], out=candidate)
            tied = np.flatnonzero(np.count_nonzero(candidate, axis=1) > 1)
            if tied.size:
                sub = np.where(candidate[tied], tie_order[tied], max_rank)
                chosen[tied] = sub.argmin(axis=1)
            if group_min is not None:
                # retire rows whose next event falls strictly after their
                # group's earliest known death (events *at* the group
                # minimum must still be recorded for the tie audit)
                active &= ~(now > group_min[groups])
                if not active.any():
                    break
            if record_events:
                column = np.full(trials, np.inf)
                column[row_ids[active]] = now[active]
                event_columns.append(column)
            live = rows[active]
            current[live, chosen[live]] = np.inf
            normal[live, chosen[live]] = False
            alive = checker.add_faults(chosen, active)
            newly_dead = active & ~alive
            if newly_dead.any():
                dead_rows = row_ids[newly_dead]
                death_time[dead_rows] = now[newly_dead]
                death_faults[dead_rows] = step + 1
                if group_min is not None:
                    np.minimum.at(group_min, groups[newly_dead], now[newly_dead])
            active &= alive
            steps = step + 1
            if active.any():
                cols = checker.member_cols(chosen)
                if cols is not None:
                    _wear_sparse(
                        cols,
                        active,
                        normal,
                        base_death,
                        current,
                        tie_order,
                        now,
                        n_bits,
                        write_probability,
                        accel_rate,
                    )
                else:
                    target = checker.member_masks(chosen)
                    np.logical_and(target, normal, out=target)
                    np.logical_and(target, active[:, None], out=target)
                    if target.any():
                        # the scalar wear expression, same IEEE operation
                        # order: now + remaining * wp / accel_rate
                        wear = np.subtract(base_death, now[:, None])
                        np.maximum(wear, 0.0, out=wear)
                        wear *= write_probability
                        wear /= accel_rate
                        wear += now[:, None]
                        np.copyto(current, wear, where=target)
                        np.copyto(tie_order, accel_order, where=target)
                        normal &= ~target
            n_active = int(active.sum())
            if n_active and n_active * 2 < n_rows:
                keep = active
                row_ids = row_ids[keep]
                base_death = np.ascontiguousarray(base_death[keep])
                current = np.ascontiguousarray(current[keep])
                tie_order = np.ascontiguousarray(tie_order[keep])
                normal = np.ascontiguousarray(normal[keep])
                if groups is not None:
                    groups = groups[keep]
                checker.compact(keep)
                n_rows = n_active
                active = np.ones(n_rows, dtype=bool)
                rows = np.arange(n_rows)
                candidate = np.empty((n_rows, n_bits), dtype=bool)
                accel_order = np.broadcast_to(accel_rank, (n_rows, n_bits))
        else:  # pragma: no cover - every covered scheme dies before saturation
            if active.any():
                raise AssertionError(f"{spec.label}: block outlived every cell")
        span.cost(steps=steps)
    _observe_kernel(spec, "block_dynamics", trials, steps)
    events = None
    if record_events:
        events = (
            np.stack(event_columns, axis=1)
            if event_columns
            else np.empty((trials, 0))
        )
    return DynamicsResult(
        death_time=death_time, death_faults=death_faults, event_times=events
    )
