"""Vectorized service data plane: batch kernels for the write pipeline.

The batch-kernel technique of the Monte Carlo side
(:mod:`repro.sim.kernels`) applied one layer up, to the production-shaped
service pipeline.  A drained write-buffer batch — addresses, payloads,
per-block fault state — is classified and committed as whole-batch numpy
operations, with three pieces:

* :class:`BlockStore` — ``(blocks, bits)`` matrices of every block's
  cell state (stored values, stuck masks, stuck values, partial masks,
  write counts, endurance).  Each block is built on its rows, so the
  matrices are the only copy of that state and scalar code and batch
  kernels mutate the same arrays.
* Per-scheme kernels (:class:`_XorMaskKernel` for Aegis and SAFER,
  :class:`_EcpKernel`) that sort a drain's rows into three classes and
  commit the scheme-side state of the batchable ones (the plan carries
  a two-pass row's inversion flips and learned faults):

  - *fast* rows finish in one differential write pass with a clean
    verification read;
  - *two-pass* rows (plain Aegis only) finish after exactly one
    inversion flip — the pass-1 stuck-at-wrong cells lie in pairwise
    distinct groups under the block's current slope, and no group they
    hit holds any other stuck cell;
  - *escalation* rows run the scalar per-row pipeline: dead addresses,
    policy-switched blocks, degraded blocks under proactive migration,
    invalid payloads, first touches the drain could not map ahead of
    time, and every write a kernel cannot prove to be fast or two-pass
    (repartition walks, spare remaps).
* :func:`drain_vector` — the whole-drain driver: map the drain's first
  touches, classify, commit the cell state of every batchable row in one
  gather → differential write (two passes where planned) → wear →
  scatter, then walk the drain in row order for the order-sensitive
  effects (op clock, health, fail cache, cost attribution), servicing
  escalation rows in place.

Every other scheme (Hamming, no protection, Aegis-rw, SAFER-cache, RDIS)
has no kernel, so ``engine="auto"`` drains it on the scalar path.

Bit-identity contract
---------------------
The vector engine reproduces the scalar engine exactly: telemetry
snapshots, trace JSONL and final array state are byte-identical
(asserted across schemes/seeds/workers in ``tests/test_service_kernels.py``).
The argument has five legs:

* **Rows are independent.**  Each kernel's predicate is evaluated
  against pre-drain state, which equals pre-write state because a
  drain's rows target distinct logical addresses and the
  logical→physical map is injective — distinct rows touch distinct
  blocks.  Escalation rows only ever add blocks from the free pool,
  which no other row of the drain maps to.
* **First touches allocate in row order.**  Only first touches and
  remaps take blocks from the pool, and a successful allocation emits
  nothing.  The drain maps each first touch (valid payload, live
  address) that precedes its first *blocker* — a row neither batched
  nor such a first touch — in row order, stopping where the pool runs
  dry; before a blocker every other row is batched and allocates
  nothing, so the pool, its placement cursor and the RNG see the
  scalar order.  A fresh block holds no stuck cell and no inversion
  bit, so these rows plan as fast rows.  Every later first touch, and
  the one the pool could not serve, runs the scalar pipeline.
* **Fast rows are single-pass.**  A fast row's scalar execution
  performs one differential write and one clean verification read,
  touches no RNG, emits no events or spans, and yields receipt
  ``(cell_writes, 1, 0, 0)``.
* **Two-pass rows are exact.**  Let ``M1`` be the stuck cells that
  disagree with the pass-1 form ``data XOR mask``.  When ``M1`` hits
  ``|M1|`` distinct groups, the scalar loop flips exactly those
  groups' inversion bits and rewrites with form ``form1 XOR F`` (``F``
  = the flipped groups' members).  Every ``M1`` cell then agrees (its
  form bit flipped), stuck cells outside ``F`` agree as before, and the
  only stuck cells inside ``F`` are the ``M1`` cells, so the second
  verification read is clean.  Pass 2 therefore programs exactly the
  healthy cells of ``F``; the receipt is
  ``(cell_writes, 2, 0, |M1|)``, ``known_fault_offsets`` grows by
  ``M1``, and wear is applied once, after pass 2 — all reproduced in
  batch.  Any other stuck cell in a flipped group would surface on
  the second read and collide, so such rows escalate.
* **Order-sensitive effects keep row order.**  The op clock, health
  transitions, fail-cache inserts and ``cost_hook`` calls of batched
  rows are applied in the row-order walk, interleaved with the
  escalation rows exactly where the scalar drain would run them.
  A drain is cut right after each row that can raise (an invalid
  payload; any escalation row when ``strict=True``), so no later row's
  cells are committed before it has run and a mid-drain exception
  leaves the scalar state.  Telemetry counters add and histograms batch
  via ``searchsorted``/exact integer float sums
  (:meth:`repro.obs.metrics.Histogram.observe_many`), so their order
  does not matter.

Misclassifying a row as an escalation only costs speed (the scalar path
is always correct); only the batch-direction predicates must be exact.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.aegis import AegisScheme
from repro.pcm.block import BlockRows
from repro.pcm.cell import CellRows
from repro.schemes.base import WriteReceipt
from repro.schemes.ecp import EcpScheme
from repro.schemes.safer import SaferScheme, group_ids
from repro.service.health import BlockHealth
from repro.sim.kernels import count_rows

__all__ = [
    "BlockStore",
    "drain_vector",
    "kernel_for",
]

#: attribute under which the per-array kernel (or ``None``) is memoised
_KERNEL_ATTR = "_service_kernel_cache"

#: shared empty consult result (never mutated by consumers)
EMPTY_FAULTS: dict[int, int] = {}


class BlockStore:
    """Columnar ``(blocks, bits)`` matrices holding every block's cell state.

    Stored values, stuck masks, stuck values, partial masks, write counts
    and endurance live here and nowhere else: each
    :class:`~repro.pcm.block.ProtectedBlock` of the array is built on its
    matrix rows (:meth:`rows`), so every scalar mutation (differential
    writes, fault injection, wear) lands in the matrices and every batch
    mutation is immediately visible to scalar code.  This holds because
    ``CellArray`` and ``ProtectedBlock`` mutate their arrays strictly in
    place (masked assignment, ``+=`` and element injection — never
    rebinding).  Endurance rows are filled as the blocks sample them, in
    block order, from the array's RNG.
    """

    def __init__(self, count: int, bits: int) -> None:
        shape = (count, bits)
        self.stored = np.zeros(shape, dtype=np.uint8)
        self.stuck = np.zeros(shape, dtype=bool)
        self.stuck_value = np.zeros(shape, dtype=np.uint8)
        self.partial = np.zeros(shape, dtype=bool)
        self.write_counts = np.zeros(shape, dtype=np.int64)
        self.endurance = np.empty(shape, dtype=np.float64)

    def rows(self, index: int) -> BlockRows:
        """Views of block ``index``'s rows, to build the block on."""
        return BlockRows(
            CellRows(
                self.stored[index],
                self.stuck[index],
                self.stuck_value[index],
                self.partial[index],
                self.write_counts[index],
            ),
            self.endurance[index],
        )


# ---------------------------------------------------------------------------
# Per-scheme kernels: row classification + scheme-side batch commit
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """A kernel's classification of one drain.

    ``batch`` marks the rows committed in batch and ``forms`` holds their
    pass-1 stored forms.  ``two_pass`` lists (ascending) the batched rows
    that need one inversion flip; indexed alike, ``flips`` holds their
    pass-2 flip masks over the bits, ``groups`` the same flips over the
    inversion bits, ``flipped`` the flipped-group counts and ``learned``
    the stuck-at-wrong offsets ``M1`` each row's scheme learns.
    """

    batch: np.ndarray
    forms: np.ndarray
    two_pass: np.ndarray = np.empty(0, dtype=np.int64)
    flips: np.ndarray = np.empty((0, 0), dtype=bool)
    groups: np.ndarray = np.empty((0, 0), dtype=np.uint8)
    flipped: np.ndarray = np.empty(0, dtype=np.int64)
    learned: tuple[list[int], ...] = ()


class _XorMaskKernel:
    """Aegis / SAFER: stored form = data XOR inversion mask.

    A row is fast iff no stuck cell disagrees with its target form — then
    the scalar ``_encode_write`` returns after one pass with a clean
    verification read, flipping no inversion bits and learning no faults.
    Under plain Aegis a row is two-pass iff its stuck-at-wrong cells lie
    in distinct groups that hold no other stuck cell (see the module
    docstring).  The per-block inversion vectors are adopted into a
    ``(blocks, groups)`` matrix (both schemes mutate them strictly in
    place), so "is any inversion bit set" is one batch reduction, and the
    few inverted rows of a drain gather their masks through the group id
    of every bit: the partition ROM row ``partition._table[slope]`` for
    Aegis, the position-vector group ids for SAFER.
    """

    def __init__(self, array, kind: str) -> None:
        self.array = array
        self.store: BlockStore = array.store
        self.kind = kind
        blocks = array.blocks
        scheme = blocks[0].scheme
        inversion = np.zeros((len(blocks), len(scheme.inversion)), dtype=np.uint8)
        for index, block in enumerate(blocks):
            inversion[index] = block.scheme.inversion
            block.scheme.inversion = inversion[index]
        self.inversion = inversion
        if kind == "aegis":
            self._table = scheme.partition._table

    def _group_ids(self, physical: np.ndarray) -> np.ndarray:
        """``(rows, bits)`` group id of every bit of the given blocks."""
        blocks = self.array.blocks
        schemes = [blocks[index].scheme for index in physical.tolist()]
        if self.kind == "aegis":
            return self._table[[scheme.slope for scheme in schemes]]
        return np.stack(
            [group_ids(scheme.cells.n_bits, scheme.positions) for scheme in schemes]
        )

    def plan(
        self, phys: np.ndarray, payloads: np.ndarray, candidates: np.ndarray
    ) -> _Plan:
        batch = candidates.copy()
        forms = payloads
        rows = candidates.nonzero()[0]
        if rows.size == 0:
            return _Plan(batch, forms)
        p = phys[rows]
        inverted = self.inversion[p].any(axis=1)
        if inverted.any():
            q = p[inverted]
            forms = payloads.copy()
            forms[rows[inverted]] ^= self.inversion[q[:, None], self._group_ids(q)]
        stuck = self.store.stuck[p]
        wrong = stuck & (self.store.stuck_value[p] != forms[rows])
        conflict = wrong.any(axis=1)
        if not conflict.any():
            return _Plan(batch, forms)
        batch[rows[conflict]] = False
        if self.kind != "aegis":
            return _Plan(batch, forms)
        # two-pass candidates: the scalar loop flips the groups of the
        # pass-1 stuck-at-wrong cells M1 and rewrites; that second pass is
        # clean iff each M1 cell's group holds exactly one stuck cell
        blocks = self.array.blocks
        groups = self.inversion.shape[1]
        two_pass, flips, flagged_groups, flipped, learned = [], [], [], [], []
        for row, physical, stuck_row, wrong_row in zip(
            rows[conflict].tolist(), p[conflict].tolist(), stuck[conflict], wrong[conflict]
        ):
            group_of = self._table[blocks[physical].scheme.slope]
            hit = group_of[wrong_row]
            if (np.bincount(group_of[stuck_row], minlength=groups)[hit] != 1).any():
                continue
            flagged = np.zeros(groups, dtype=np.uint8)
            flagged[hit] = 1
            two_pass.append(row)
            flips.append(flagged[group_of])
            flagged_groups.append(flagged)
            flipped.append(hit.size)
            learned.append(np.flatnonzero(wrong_row).tolist())
        if not two_pass:
            return _Plan(batch, forms)
        batch[two_pass] = True
        return _Plan(
            batch,
            forms,
            np.array(two_pass, dtype=np.int64),
            np.stack(flips).view(bool),
            np.stack(flagged_groups),
            np.array(flipped, dtype=np.int64),
            tuple(learned),
        )

    def commit(self, rows: np.ndarray, p: np.ndarray, data_rows: np.ndarray) -> None:
        """No scheme state beyond the inversion flips ``_commit_rows`` applies."""


class _EcpKernel:
    """ECP with ideal replacement cells (the roster configuration).

    A row is fast iff the entries already allocated plus the stuck-at-wrong
    offsets of the new data fit the pointer budget — then the scalar path
    refreshes every entry, allocates the uncovered offsets in verify order
    and returns ``(cell_writes, 1, 0, 0)``.  The commit replays exactly
    those dict updates (entry dicts hold at most ``pointers`` keys).
    """

    def __init__(self, array) -> None:
        self.array = array
        self.store: BlockStore = array.store
        self.pointers = array.blocks[0].scheme.pointers
        self._pending: dict[int, list[int]] = {}

    def plan(
        self, phys: np.ndarray, payloads: np.ndarray, candidates: np.ndarray
    ) -> _Plan:
        fast = candidates.copy()
        self._pending = {}
        rows = np.flatnonzero(candidates)
        if rows.size == 0:
            return _Plan(fast, payloads)
        p = phys[rows]
        mismatches = self.store.stuck[p] & (
            self.store.stuck_value[p] != payloads[rows]
        )
        any_mismatch = mismatches.any(axis=1)
        blocks = self.array.blocks
        for position, row in enumerate(rows):
            entries = blocks[int(phys[row])].scheme.entries
            if not entries and not any_mismatch[position]:
                continue
            fresh = (
                [
                    int(offset)
                    for offset in np.flatnonzero(mismatches[position])
                    if int(offset) not in entries
                ]
                if any_mismatch[position]
                else []
            )
            if len(entries) + len(fresh) > self.pointers:
                fast[row] = False
                continue
            self._pending[int(row)] = fresh
        return _Plan(fast, payloads)

    def commit(self, rows: np.ndarray, p: np.ndarray, data_rows: np.ndarray) -> None:
        blocks = self.array.blocks
        pending = self._pending
        for index, row in enumerate(rows.tolist()):
            todo = pending.get(row)
            if todo is None:
                continue
            entries = blocks[int(p[index])].scheme.entries
            data = data_rows[index]
            for offset in entries:
                entries[offset] = int(data[offset])
            for offset in todo:
                entries[offset] = int(data[offset])


# ---------------------------------------------------------------------------
# Kernel selection / engine resolution
# ---------------------------------------------------------------------------


def _build_kernel(array):
    block = array.blocks[0]
    if not getattr(block.cells, "differential_writes", True):
        return None
    scheme = block.scheme
    scheme_type = type(scheme)  # exact: subclasses override the write walk
    if scheme_type is AegisScheme:
        return _XorMaskKernel(array, "aegis")
    if scheme_type is SaferScheme:
        return _XorMaskKernel(array, "safer")
    if scheme_type is EcpScheme and scheme._replacements is None:
        return _EcpKernel(array)
    return None


def kernel_for(array):
    """The array's batch kernel, or ``None`` when no kernel covers its
    scheme (Hamming, no protection, the sampled/data-dependent schemes
    Aegis-rw, SAFER-cache and RDIS, fragile-replacement ECP) — memoised
    per array."""
    cached = array.__dict__.get(_KERNEL_ATTR, _KERNEL_ATTR)
    if cached is not _KERNEL_ATTR:
        return cached
    kernel = _build_kernel(array)
    array.__dict__[_KERNEL_ATTR] = kernel
    return kernel


# ---------------------------------------------------------------------------
# The batched drain driver
# ---------------------------------------------------------------------------


def drain_vector(
    controller,
    addresses: np.ndarray,
    payloads: np.ndarray,
    known: list[dict[int, int]],
) -> tuple[WriteReceipt, int, int]:
    """Service one drained batch with the vector engine.

    Returns ``(merged receipt, writes serviced, writes lost)`` — the same
    aggregate the scalar drain produces.  The drain is cut right after
    each row that can raise; each piece commits its batched rows' cells
    at once and then walks its rows in first-enqueue order, so both
    engines leave identical state even when an escalation raises.
    """
    array = controller.array
    kernel = kernel_for(array)
    batch = int(addresses.shape[0])
    phys = array._map[addresses]
    invalid = (payloads > 1).any(axis=1)
    plan = kernel.plan(phys, payloads, _candidates(controller, phys, invalid, known))
    if _map_first_touches(array, addresses, phys, invalid, plan.batch):
        plan = kernel.plan(phys, payloads, _candidates(controller, phys, invalid, known))
    # rows that can raise: invalid payloads always, every escalation row
    # when a lost write re-raises
    can_raise = ~plan.batch if controller.strict else invalid
    total = WriteReceipt()
    serviced = lost = 0
    start = 0
    for stop in [*(can_raise.nonzero()[0] + 1).tolist(), batch]:
        if stop > start:
            done, dropped = _drain_rows(
                controller, kernel, plan, addresses, phys, payloads, known,
                start, stop, total,
            )
            serviced += done
            lost += dropped
            start = stop
    return total, serviced, lost


def _candidates(
    controller, phys: np.ndarray, invalid: np.ndarray, known: list[dict[int, int]]
) -> np.ndarray:
    """Rows the kernel may plan: mapped, valid, on the base scheme and,
    under proactive migration, not bound for a migration."""
    array = controller.array
    candidates = (phys >= 0) & ~invalid  # unmapped covers dead addresses
    if array._switched:
        # policy-switched blocks no longer run the base scheme the batch
        # kernel was built for; their rows take the scalar pipeline
        switched = np.fromiter(
            array._switched, count=len(array._switched), dtype=np.int64
        )
        candidates &= ~np.isin(phys, switched)
    if controller.proactive_migration:
        health = array.health
        for row in np.flatnonzero(candidates).tolist():
            if known[row] and health.state_of(int(phys[row])) is BlockHealth.DEGRADED:
                candidates[row] = False
    return candidates


def _map_first_touches(
    array,
    addresses: np.ndarray,
    phys: np.ndarray,
    invalid: np.ndarray,
    batched: np.ndarray,
) -> bool:
    """Allocate, in row order, a block for every first touch (unmapped,
    live address, valid payload) ahead of the drain's first blocker — a
    row the plan does not batch that is no such first touch — stopping
    where the pool runs dry.  Updates ``phys`` and the array's map;
    returns whether any row was mapped."""
    fresh = (phys < 0) & ~invalid
    if not fresh.any():
        return False
    if array._dead:
        dead = np.fromiter(array._dead, count=len(array._dead), dtype=np.int64)
        fresh &= ~np.isin(addresses, dead)
    blockers = np.flatnonzero(~(batched | fresh))
    stop = int(blockers[0]) if blockers.size else int(phys.size)
    pool, placement, rng = array.pool, array.wear_leveling, array.rng
    mapped = False
    for row in np.flatnonzero(fresh[:stop]).tolist():
        address = int(addresses[row])
        physical = pool.allocate(address, placement, rng)
        if physical is None:
            break
        array._map[address] = physical
        phys[row] = physical
        mapped = True
    return mapped


def _drain_rows(
    controller,
    kernel,
    plan: _Plan,
    addresses: np.ndarray,
    phys: np.ndarray,
    payloads: np.ndarray,
    known: list[dict[int, int]],
    start: int,
    stop: int,
    total: WriteReceipt,
) -> tuple[int, int]:
    """Service rows ``[start, stop)``: commit the batched rows, then walk
    every row in order.  Folds the rows into ``total``; returns
    ``(writes serviced, writes lost)``."""
    array = controller.array
    in_batch = plan.batch[start:stop]
    rows = start + in_batch.nonzero()[0]
    cell_writes: list[int] = []
    fault_counts: list[int] = []
    if rows.size:
        cells, faults = _commit_rows(
            controller, kernel, plan, phys, payloads, rows, total
        )
        cell_writes = cells.tolist()
        fault_counts = faults.tolist()

    # -- row-order walk: op clock, health, fail cache, cost attribution and
    #    the escalation rows, exactly where the scalar drain runs them -----
    health = array.health
    cost_hook = controller.cost_hook
    position = 0
    lost = 0
    for row, batched in enumerate(in_batch.tolist(), start):
        if batched:
            array.op_clock += 1
            faults = fault_counts[position]
            if faults:
                physical = int(phys[row])
                health.observe_faults(physical, faults, op=array.op_clock)
                array._record_faults(physical)
            if cost_hook is not None:
                cost_hook(int(addresses[row]), cell_writes[position])
            position += 1
            continue
        receipt = controller._service_row(int(addresses[row]), payloads[row], known[row])
        if receipt is None:
            lost += 1
        else:
            total.merge(receipt)
    return stop - start - lost, lost


def _commit_rows(
    controller,
    kernel,
    plan: _Plan,
    phys: np.ndarray,
    payloads: np.ndarray,
    rows: np.ndarray,
    total: WriteReceipt,
) -> tuple[np.ndarray, np.ndarray]:
    """Commit the cell, scheme, stats and telemetry state of the batched
    ``rows`` (ascending) in one gather/scatter and fold their receipts
    into ``total``; returns their per-row cell writes and post-wear fault
    counts."""
    array = controller.array
    store: BlockStore = array.store
    count = int(rows.size)
    # a gap-free run of rows (the common drain) gathers through views
    first, last = int(rows[0]), int(rows[-1])
    picked = slice(first, last + 1) if last - first + 1 == count else rows
    p = phys[picked]
    form_rows = plan.forms[picked]

    # -- pass 1: differential write (gather → update) -----------------------
    stored = store.stored[p]
    stuck = store.stuck[p]
    programmed = stored != form_rows
    # branchless masked merge: stored <- form where healthy (boolean-mask
    # assignment is an order of magnitude slower for these shapes)
    stored ^= (stored ^ form_rows) * (programmed & ~stuck).view(np.uint8)
    write_counts = store.write_counts[p]
    write_counts += programmed
    cell_writes = count_rows(programmed)

    # -- pass 2 of the two-pass rows: after pass 1 every healthy cell holds
    #    form1, so rewriting form1 ^ flips programs exactly the healthy
    #    cells of the flipped groups (no stuck cell among them disagrees) --
    two_pass = 0
    if plan.two_pass.size:
        lo, hi = plan.two_pass.searchsorted((first, last + 1)).tolist()
        two_pass = hi - lo
    if two_pass:
        at = rows.searchsorted(plan.two_pass[lo:hi])
        flipped = plan.flipped[lo:hi]
        second = plan.flips[lo:hi] & ~stuck[at]
        stored[at] ^= second.view(np.uint8)
        write_counts[at] += second
        cell_writes[at] += count_rows(second)
    store.stored[p] = stored
    store.write_counts[p] = write_counts

    # -- wear (matches ProtectedBlock._apply_wear: after the last pass,
    #    freeze at the just-stored value, int counts vs float endurance) ---
    worn_out = (write_counts >= store.endurance[p]) & ~stuck
    if worn_out.any():
        stuck |= worn_out
        store.stuck[p] = stuck
        store.stuck_value[p] = np.where(worn_out, stored, store.stuck_value[p])
    fault_counts = count_rows(stuck)

    # -- scheme side (inversion flips, ECP entries) --------------------------
    blocks = array.blocks
    if two_pass:
        # the two-pass rows flip their hit groups' inversion bits and learn
        # M1, as the scalar loop does between its two passes
        flipped_blocks = p[at]
        kernel.inversion[flipped_blocks] ^= plan.groups[lo:hi]
        for physical, learned in zip(flipped_blocks.tolist(), plan.learned[lo:hi]):
            blocks[physical].scheme.known_fault_offsets.update(learned)
    kernel.commit(rows, p, payloads[picked])
    cell_writes_total = int(cell_writes.sum())
    inversion_writes = int(flipped.sum()) if two_pass else 0
    reads = count + two_pass

    # -- per-block stats (order-free: each row owns its block) --------------
    p_list = p.tolist()
    for physical, writes in zip(p_list, cell_writes.tolist()):
        block = blocks[physical]
        stats = block.stats
        stats.writes += 1
        stats.cell_writes += writes
        stats.verification_reads += 1
        block.writes_serviced += 1
    if two_pass:
        for index, groups in zip(at.tolist(), flipped.tolist()):
            stats = blocks[p_list[index]].stats
            stats.verification_reads += 1
            stats.inversion_writes += groups

    # -- batch telemetry (same series, same values as the per-row path) -----
    telemetry = controller.telemetry
    metrics = telemetry.metrics
    metrics.inc_key(array._k_writes_serviced, count)
    metrics.inc_key(array._k_writes_ok, count)
    metrics.observe_many(
        "stage_cost",
        cell_writes,
        edges=telemetry.service_cost.edges,
        stage="differential_write",
        scheme=array.scheme_name,
    )
    telemetry.service_cost.observe_many(cell_writes)
    # latency = 1 + verification reads + inversion writes: 2 for a single
    # pass, 3 + |M1| for a two-pass row
    telemetry.latency.observe_repeat(2, count - two_pass)
    if two_pass:
        telemetry.latency.observe_many(3 + flipped)
    metrics.inc("cell_writes_total", cell_writes_total)
    metrics.inc("verification_reads_total", reads)
    metrics.inc("repartitions_total", 0)
    metrics.inc("inversion_writes_total", inversion_writes)
    total.cell_writes += cell_writes_total
    total.verification_reads += reads
    total.inversion_writes += inversion_writes
    return cell_writes, fault_counts
