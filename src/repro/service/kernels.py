"""Vectorized service data plane: batch kernels for the write pipeline.

PR 4 proved the batch-kernel technique on the Monte Carlo side
(:mod:`repro.sim.kernels`); this module applies it one layer up, to the
production-shaped service pipeline.  A drained write-buffer batch —
addresses, payloads, per-block fault state — is advanced through
fail-cache consult, health check, differential write + verification and
escalation detection as whole-batch numpy operations, with three pieces:

* :class:`BlockStore` — columnar adoption of every block's cell arrays
  (stored values, stuck masks, stuck values, write counts, endurance)
  into ``(blocks, bits)`` matrices whose *rows are the blocks' own
  arrays* (views, not copies), so scalar code and batch kernels mutate
  the same state.
* Per-scheme kernels (:class:`_XorMaskKernel` for Aegis/SAFER/the
  unprotected baseline, :class:`_EcpKernel`, :class:`_HammingKernel`)
  that classify which rows of a drain are *fast* — serviceable in one
  differential write pass with a clean verification read — and commit
  the scheme-side state for those rows in batch.
* :func:`drain_vector` — the whole-drain driver: classify, then walk the
  batch in row order as alternating [fast run][escalation row] segments.
  Fast runs commit as one fancy-indexed batch write (gather → XOR
  popcount cell-write costs via the uint64 bitset helpers in
  :mod:`repro.sim.kernels` → wear → scatter); escalation rows (unmapped
  or dead addresses, proactive migrations, repartition walks, spare
  remaps, invalid payloads) fall back to the scalar per-row pipeline.

Bit-identity contract
---------------------
The vector engine reproduces the scalar engine exactly: telemetry
snapshots, trace JSONL and final array state are byte-identical
(asserted across schemes/seeds/workers in ``tests/test_service_kernels.py``).
The argument has three legs:

* **Fast rows are provably single-pass.**  Each kernel's predicate is
  evaluated against pre-drain state, which equals pre-write state
  because a drain's rows target distinct logical addresses and the
  logical→physical map is injective — distinct rows touch distinct
  blocks.  A fast row's scalar execution performs exactly one
  differential write and one clean verification read, touches no RNG,
  emits no events or spans, and yields receipt
  ``(cell_writes, 1, 0, 0)`` — all reproduced in batch.
* **Escalation rows run the scalar code itself**, in row order, between
  fast segments, so mid-drain exceptions (strict retirement, invalid
  payloads) leave the array in the same state under both engines.
* **Telemetry is commutative.**  Histograms batch via
  ``searchsorted``/exact integer float sums
  (:meth:`repro.obs.metrics.Histogram.observe_many`), counters add, and
  span sequences are identical because per-drain spans replaced the
  per-write spans in both engines.

Misclassifying a row as slow only costs speed (the scalar path is always
correct); only the fast-direction predicates must be exact, and they are
conservative everywhere cheapness demands it.
"""

from __future__ import annotations

import numpy as np

from repro.core.aegis import AegisScheme
from repro.errors import ConfigurationError
from repro.schemes.base import WriteReceipt
from repro.schemes.ecp import EcpScheme
from repro.schemes.hamming import CHECK_BITS, DATA_BITS, HammingScheme, _H
from repro.schemes.ideal import NoProtectionScheme
from repro.schemes.safer import SaferScheme
from repro.service.health import BlockHealth
from repro.sim.kernels import (
    pack_rows_u64,
    popcount_rows_u64,
    validate_engine,
)

__all__ = [
    "BlockStore",
    "drain_vector",
    "kernel_for",
    "validate_engine",
]

#: attribute under which the per-array kernel (or ``None``) is memoised
_KERNEL_ATTR = "_service_kernel_cache"

#: shared empty consult result (never mutated by consumers)
EMPTY_FAULTS: dict[int, int] = {}


class BlockStore:
    """Columnar matrices over every block's cell state, adopted by view.

    Construction stacks each :class:`~repro.pcm.cell.CellArray`'s private
    arrays into ``(blocks, bits)`` matrices and rebinds the cell arrays'
    fields to the matrix *rows*, so every scalar mutation (differential
    writes, fault injection, wear) lands in the matrices and every batch
    mutation is immediately visible to scalar code.  This is safe because
    ``CellArray`` and ``ProtectedBlock`` mutate their arrays strictly in
    place (verified against masked assignment, ``+=`` and element
    injection — never rebinding).

    Adoption happens *after* normal block construction, so the per-block
    endurance sampling consumes the shared RNG in exactly the seed order
    the scalar-only array used.
    """

    def __init__(self, blocks: list) -> None:
        if not blocks:
            raise ConfigurationError("a block store needs at least one block")
        count = len(blocks)
        bits = blocks[0].cells.n_bits
        self.n_bits = bits
        self.stored = np.empty((count, bits), dtype=np.uint8)
        self.stuck = np.zeros((count, bits), dtype=bool)
        self.stuck_value = np.empty((count, bits), dtype=np.uint8)
        self.write_counts = np.empty((count, bits), dtype=np.int64)
        self.endurance = np.empty((count, bits), dtype=np.float64)
        for index, block in enumerate(blocks):
            cells = block.cells
            if cells.n_bits != bits:
                raise ConfigurationError("block store needs uniform block widths")
            self.stored[index] = cells._stored
            self.stuck[index] = cells._stuck
            self.stuck_value[index] = cells._stuck_value
            self.write_counts[index] = cells._write_counts
            self.endurance[index] = block.endurance
            cells._stored = self.stored[index]
            cells._stuck = self.stuck[index]
            cells._stuck_value = self.stuck_value[index]
            cells._write_counts = self.write_counts[index]
            block.endurance = self.endurance[index]

    def fault_counts(self, physical: np.ndarray) -> np.ndarray:
        """Stuck-cell counts for the given physical rows."""
        return np.count_nonzero(self.stuck[physical], axis=1)


# ---------------------------------------------------------------------------
# Per-scheme kernels: fast-row classification + scheme-side batch commit
# ---------------------------------------------------------------------------


class _XorMaskKernel:
    """Aegis / SAFER / unprotected: stored form = data XOR inversion mask.

    A row is fast iff no stuck cell disagrees with its target form — then
    the scalar ``_encode_write`` returns after one pass with a clean
    verification read, flipping no inversion bits and learning no faults.
    The per-block inversion vectors are adopted into a ``(blocks, groups)``
    matrix (both schemes mutate them strictly in place) so "is any
    inversion bit set" is one batch reduction; the expensive per-block
    mask expansion is cached keyed on the scheme's partition state, which
    only changes when the scalar fallback handles a new fault.
    """

    def __init__(self, array, kind: str) -> None:
        self.array = array
        self.store: BlockStore = array.store
        self.kind = kind
        if kind == "none":
            self.inversion = None
        else:
            blocks = array.blocks
            groups = len(blocks[0].scheme.inversion)
            inversion = np.zeros((len(blocks), groups), dtype=np.uint8)
            for index, block in enumerate(blocks):
                inversion[index] = block.scheme.inversion
                block.scheme.inversion = inversion[index]
            self.inversion = inversion
        self._mask_cache: dict[int, tuple[object, np.ndarray]] = {}

    def _mask_for(self, physical: int) -> np.ndarray:
        scheme = self.array.blocks[physical].scheme
        if self.kind == "aegis":
            key: object = (scheme.slope, scheme.inversion.tobytes())
        else:
            key = (scheme.positions, scheme.inversion.tobytes())
        cached = self._mask_cache.get(physical)
        if cached is not None and cached[0] == key:
            return cached[1]
        mask = scheme._inversion_mask().astype(np.uint8)
        self._mask_cache[physical] = (key, mask)
        return mask

    def plan(
        self, phys: np.ndarray, payloads: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        fast = candidates.copy()
        forms = payloads
        rows = np.flatnonzero(candidates)
        if rows.size == 0:
            return fast, forms
        if self.inversion is not None:
            inverted = rows[self.inversion[phys[rows]].any(axis=1)]
            if inverted.size:
                forms = payloads.copy()
                for row in inverted:
                    forms[row] = payloads[row] ^ self._mask_for(int(phys[row]))
        p = phys[rows]
        conflict = (
            self.store.stuck[p] & (self.store.stuck_value[p] != forms[rows])
        ).any(axis=1)
        fast[rows[conflict]] = False
        return fast, forms

    def commit(
        self,
        row_ids: range,
        p: np.ndarray,
        data_rows: np.ndarray,
        form_rows: np.ndarray,
    ) -> np.ndarray | None:
        return None


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
    ) -> tuple[np.ndarray, np.ndarray]:
        fast = candidates.copy()
        self._pending = {}
        rows = np.flatnonzero(candidates)
        if rows.size == 0:
            return fast, payloads
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
        return fast, payloads

    def commit(
        self,
        row_ids: range,
        p: np.ndarray,
        data_rows: np.ndarray,
        form_rows: np.ndarray,
    ) -> np.ndarray | None:
        blocks = self.array.blocks
        pending = self._pending
        for index, row in enumerate(row_ids):
            todo = pending.get(row)
            if todo is None:
                continue
            entries = blocks[int(p[index])].scheme.entries
            data = data_rows[index]
            for offset in entries:
                entries[offset] = int(data[offset])
            for offset in todo:
                entries[offset] = int(data[offset])
        return None


class _HammingKernel:
    """(72, 64) SEC-DED: batch-encode check words for fault-free rows.

    A row is fast iff its main cells *and* its check cells hold zero
    stuck faults — the stored codewords then equal the encoded data, so
    every word decodes clean.  The check-bit images for a whole segment
    come from one parity-matrix matmul; the side check arrays are adopted
    columnar here (the main arrays live in the shared block store) and
    take the same differential-write/count bookkeeping, minus wear: block
    endurance covers main cells only, exactly like the scalar path.
    """

    def __init__(self, array) -> None:
        self.array = array
        self.store: BlockStore = array.store
        scheme = array.blocks[0].scheme
        self.words = scheme.words
        check_bits = self.words * CHECK_BITS
        count = len(array.blocks)
        self.c_stored = np.empty((count, check_bits), dtype=np.uint8)
        self.c_stuck = np.zeros((count, check_bits), dtype=bool)
        self.c_stuck_value = np.empty((count, check_bits), dtype=np.uint8)
        self.c_write_counts = np.empty((count, check_bits), dtype=np.int64)
        for index, block in enumerate(array.blocks):
            checks = block.scheme._checks
            self.c_stored[index] = checks._stored
            self.c_stuck[index] = checks._stuck
            self.c_stuck_value[index] = checks._stuck_value
            self.c_write_counts[index] = checks._write_counts
            checks._stored = self.c_stored[index]
            checks._stuck = self.c_stuck[index]
            checks._stuck_value = self.c_stuck_value[index]
            checks._write_counts = self.c_write_counts[index]
        self._h7t = _H[:7, :DATA_BITS].T.astype(np.int64)

    def plan(
        self, phys: np.ndarray, payloads: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        fast = candidates.copy()
        rows = np.flatnonzero(candidates)
        if rows.size:
            p = phys[rows]
            conflict = self.store.stuck[p].any(axis=1) | self.c_stuck[p].any(axis=1)
            fast[rows[conflict]] = False
        return fast, payloads

    def commit(
        self,
        row_ids: range,
        p: np.ndarray,
        data_rows: np.ndarray,
        form_rows: np.ndarray,
    ) -> np.ndarray | None:
        count = p.shape[0]
        data = data_rows.reshape(count, self.words, DATA_BITS).astype(np.int64)
        checks7 = (data @ self._h7t) % 2
        parity = (data.sum(axis=2) + checks7.sum(axis=2)) % 2
        image = np.concatenate([checks7, parity[:, :, None]], axis=2)
        image = image.reshape(count, self.words * CHECK_BITS).astype(np.uint8)
        stored = self.c_stored[p]
        programmed = stored != image
        # no stuck check cells on the fast path, so every differing cell takes
        self.c_stored[p] = image
        counts = self.c_write_counts[p]
        counts += programmed
        self.c_write_counts[p] = counts
        return popcount_rows_u64(pack_rows_u64(programmed))


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
    if scheme_type is NoProtectionScheme:
        return _XorMaskKernel(array, "none")
    if scheme_type is EcpScheme and scheme._replacements is None:
        return _EcpKernel(array)
    if scheme_type is HammingScheme:
        return _HammingKernel(array)
    return None


def kernel_for(array):
    """The array's batch kernel, or ``None`` when no kernel covers its
    scheme (sampled/data-dependent schemes: Aegis-rw, SAFER-cache, RDIS,
    fragile-replacement ECP) — memoised per array."""
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
    aggregate the scalar drain produces.  Rows are processed strictly in
    first-enqueue order as alternating fast segments (batch commit) and
    escalation rows (``controller._service_row``), so both engines leave
    identical state even when an escalation raises mid-drain.
    """
    array = controller.array
    kernel = kernel_for(array)
    batch = int(addresses.shape[0])
    phys = array._map[addresses]
    escalate = phys < 0  # unmapped (first touch) and dead addresses
    np.bitwise_or(escalate, (payloads > 1).any(axis=1), out=escalate)
    if array._switched:
        # policy-switched blocks no longer run the base scheme the batch
        # kernel was built for; their rows take the scalar pipeline
        switched = np.fromiter(
            array._switched, count=len(array._switched), dtype=np.int64
        )
        np.bitwise_or(escalate, np.isin(phys, switched), out=escalate)
    if controller.proactive_migration:
        health = array.health
        for row in range(batch):
            if (
                known[row]
                and not escalate[row]
                and health.state_of(int(phys[row])) is BlockHealth.DEGRADED
            ):
                escalate[row] = True
    fast, forms = kernel.plan(phys, payloads, ~escalate)
    total = WriteReceipt()
    serviced = 0
    lost = 0
    row = 0
    while row < batch:
        if fast[row]:
            stop = row + 1
            while stop < batch and fast[stop]:
                stop += 1
            cell_writes = _commit_segment(
                controller, kernel, addresses, phys, payloads, forms, row, stop
            )
            total.cell_writes += cell_writes
            total.verification_reads += stop - row
            serviced += stop - row
            row = stop
        else:
            receipt = controller._service_row(
                int(addresses[row]), payloads[row], known[row]
            )
            if receipt is None:
                lost += 1
            else:
                total.merge(receipt)
                serviced += 1
            row += 1
    return total, serviced, lost


def _commit_segment(
    controller,
    kernel,
    addresses: np.ndarray,
    phys: np.ndarray,
    payloads: np.ndarray,
    forms: np.ndarray,
    start: int,
    stop: int,
) -> int:
    """Commit one contiguous run of fast rows as a batch; returns the
    segment's total cell writes."""
    array = controller.array
    store: BlockStore = array.store
    p = phys[start:stop]
    form_rows = forms[start:stop]
    data_rows = payloads[start:stop]
    count = stop - start

    # -- differential write (gather → update → scatter) ---------------------
    stored = store.stored[p]
    stuck = store.stuck[p]
    programmed = stored != form_rows
    healthy = programmed & ~stuck
    # branchless masked merge: stored <- form where healthy (boolean-mask
    # assignment is an order of magnitude slower for these shapes)
    stored ^= (stored ^ form_rows) * healthy.view(np.uint8)
    store.stored[p] = stored
    write_counts = store.write_counts[p]
    write_counts += programmed
    store.write_counts[p] = write_counts
    cell_writes = popcount_rows_u64(pack_rows_u64(programmed))

    # -- wear (matches ProtectedBlock._apply_wear: post-write, freeze at the
    #    just-stored value, int counts compared against float endurance) ----
    worn_out = (write_counts >= store.endurance[p]) & ~stuck
    if worn_out.any():
        stuck |= worn_out
        store.stuck[p] = stuck
        stuck_value = store.stuck_value[p]
        store.stuck_value[p] = np.where(worn_out, stored, stuck_value)
    fault_counts = np.count_nonzero(stuck, axis=1)

    # -- scheme-side commit (ECP entry refresh/alloc, Hamming check words) --
    extra = kernel.commit(range(start, stop), p, data_rows, form_rows)
    if extra is not None:
        cell_writes = cell_writes + extra
    cell_writes_total = int(cell_writes.sum())

    # -- per-row bookkeeping (ops, health, fail cache, stats) ---------------
    # faulty rows get their exact per-row op clock (the degrade event's op
    # field must match the scalar path); healthy rows advance it in bulk
    blocks = array.blocks
    base = array.op_clock
    if fault_counts.any():
        health = array.health
        for index in np.flatnonzero(fault_counts):
            physical = int(p[index])
            array.op_clock = base + int(index) + 1
            health.observe_faults(
                physical, int(fault_counts[index]), op=array.op_clock
            )
            array._record_faults(physical)
    array.op_clock = base + count
    cw_list = cell_writes.tolist()
    for index, physical in enumerate(p.tolist()):
        block = blocks[physical]
        stats = block.stats
        stats.writes += 1
        stats.cell_writes += cw_list[index]
        stats.verification_reads += 1
        block.writes_serviced += 1
    # per-row cost attribution: fast rows report the exact cell-write count
    # the scalar receipt would, keeping tenant-bucketed histograms
    # engine-invariant
    cost_hook = controller.cost_hook
    if cost_hook is not None:
        address_list = addresses[start:stop].tolist()
        for index, address in enumerate(address_list):
            cost_hook(int(address), cw_list[index])

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
    telemetry.latency.observe_repeat(2, count)  # 1 pass + 1 verification read
    telemetry.metrics.inc("cell_writes_total", cell_writes_total)
    telemetry.metrics.inc("verification_reads_total", count)
    telemetry.metrics.inc("repartitions_total", 0)
    telemetry.metrics.inc("inversion_writes_total", 0)
    return cell_writes_total
