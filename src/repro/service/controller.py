"""The service request pipeline in front of :class:`MemoryArray`.

Write path (the production-shaped pipeline of DESIGN.md §2, assembled from
the pieces the reproduction already models bit-accurately):

1. **Coalescing write buffer** (:class:`~repro.pcm.writebuffer.WriteBuffer`)
   — repeated writes to one address collapse to the last payload; the
   buffer drains in first-enqueue order when full or on :meth:`flush`,
   handing back the whole batch as columnar arrays.
2. **Fail-cache consultation** — one batched consult per drain: the
   controller asks the array's
   :class:`~repro.pcm.failcache.DirectMappedFailCache` for each target
   block's known faults (§2.4's pre-write classification); blocks the
   columnar fault state proves clean skip the cache probes entirely.
   When a target block is already ``DEGRADED`` it is proactively
   migrated to a spare before spending more wear on it.
3. **Differential write + verification read** — the whole batch at once
   under the vector engine (:func:`repro.service.kernels.drain_vector`),
   or row by row under the scalar engine; either way exactly the device
   model's semantics (only differing cells are programmed; every write
   verifies).
4. **Retry-with-repartition escalation** — rows the batch cannot prove
   finish in one clean pass or, under Aegis, after one inversion flip
   (repartition walks, spare remaps, proactive migrations, first touches
   past the drain's first such row) fall out of the batch to the scalar
   per-row pipeline, in row order, so the rare path stays bit-identical
   whatever the engine.
5. **Typed failure** — only a write that finds the pool exhausted raises
   :class:`~repro.errors.RetiredBlockError`.  During a buffered flush the
   controller absorbs it into telemetry (``writes_lost``) so one dead
   address never stalls the rest of the drain; pass ``strict=True`` to
   re-raise instead.

Read path: store-to-load forwarding from the write buffer (a read-only
view of the pending payload — no copy), then the array (scheme-decoded,
stuck-at faults masked).

Observability is aggregated per drain: one ``buffer_drain`` root span
wraps a ``fail_cache_consult`` child (batch consult statistics) and a
``differential_write`` stage child carrying the batch's receipt costs,
with the rare escalation spans (``proactive_migration``, ``spare_remap``,
``repartition``) nested inside in row order.  Both engines emit exactly
this sequence, which is what keeps trace JSONL and telemetry snapshots
byte-identical across ``engine="auto"``/``"scalar"`` and any worker
count.  Every serviced write still lands in the cost/latency histograms —
the quantitative version of the paper's §2.4/§3.2 service-cost narrative.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RetiredBlockError
from repro.pcm.writebuffer import WriteBuffer
from repro.schemes.base import WriteReceipt
from repro.service import kernels as service_kernels
from repro.service.array import MemoryArray
from repro.service.health import BlockHealth
from repro.service.policy import (
    POLICY_COOLDOWN,
    POLICY_INTERVAL,
    BlockConditions,
    SchemePolicyEngine,
    validate_policy,
)
from repro.service.telemetry import ServiceTelemetry
from repro.sim.kernels import resolve_engine


class ServiceController:
    """Buffered, telemetered request pipeline over one :class:`MemoryArray`.

    Parameters
    ----------
    array:
        The array to serve; the controller shares its telemetry sink and
        takes its drain engine from ``array.engine``.
    buffer_capacity:
        Write-buffer entries before an automatic drain.
    proactive_migration:
        Migrate ``DEGRADED`` blocks to spares before writing them again
        (step 2 above); costs spares earlier, saves inversion-write wear.
    strict:
        Re-raise :class:`RetiredBlockError` from buffered flushes instead
        of recording the loss and continuing.
    policy:
        ``"fixed"`` (default) keeps every block on the array's base
        scheme — the historical behavior, byte-identical.  ``"adaptive"``
        evaluates a :class:`~repro.service.policy.SchemePolicyEngine`
        every :data:`~repro.service.policy.POLICY_INTERVAL` drains over
        the addresses written since the last evaluation and re-encodes
        blocks whose observed conditions (faults, maskable faults, write
        share, fault bursts) favor a different scheme, counting each move
        in ``policy_switches_total{from,to}``; a switched address sits out
        :data:`~repro.service.policy.POLICY_COOLDOWN` evaluations.
        Decisions read only post-drain state, so adaptive runs stay
        bit-identical across workers and engines.
    """

    def __init__(
        self,
        array: MemoryArray,
        *,
        buffer_capacity: int = 32,
        proactive_migration: bool = False,
        strict: bool = False,
        policy: str = "fixed",
    ) -> None:
        self.array = array
        self.buffer = WriteBuffer(buffer_capacity, n_bits=array.block_bits)
        self.proactive_migration = proactive_migration
        self.strict = strict
        #: drain path resolved from the array's ``engine`` switch:
        #: ``"vector"`` batches each drain through the numpy kernels,
        #: ``"scalar"`` services row by row; results are identical
        self.engine = resolve_engine(array.engine, array, service_kernels.kernel_for)
        self._vector = self.engine == "vector"
        self.policy = validate_policy(policy)
        self._adaptive = self.policy == "adaptive"
        self.policy_engine = (
            SchemePolicyEngine(block_bits=array.block_bits) if self._adaptive else None
        )
        self._drains = 0
        self._policy_rounds = 0
        #: address -> writes drained since the last policy evaluation
        self._policy_writes: dict[int, int] = {}
        #: physical block -> fault count at the last evaluation
        self._policy_faults: dict[int, int] = {}
        #: address -> evaluation round of its last switch
        self._policy_switched_at: dict[int, int] = {}
        #: total scheme switches performed by this controller's policy
        self.policy_switches = 0
        #: optional per-row cost attribution callback ``(address, cell_writes)``
        #: invoked once per serviced row under *both* engines (fast vector
        #: rows report the same per-row cell-write count the scalar receipt
        #: would), so multi-tenant owners can bucket service cost per tenant
        #: without losing engine invariance
        self.cost_hook = None
        metrics = self.telemetry.metrics
        self._k_write_requests = metrics.series_key("write_requests")
        self._k_read_requests = metrics.series_key("read_requests")
        self._k_buffer_read_hits = metrics.series_key("buffer_read_hits")
        self._k_enqueued = metrics.series_key("buffer_requests_total", kind="enqueued")
        self._k_coalesced = metrics.series_key(
            "buffer_requests_total", kind="coalesced"
        )

    @property
    def telemetry(self) -> ServiceTelemetry:
        return self.array.telemetry

    # -- request path -------------------------------------------------------

    def write(self, address: int, payload: np.ndarray) -> None:
        """Accept a write request (serviced at the next drain)."""
        telemetry = self.telemetry
        telemetry.metrics.inc_key(self._k_write_requests)
        with telemetry.tracer.span("buffer_enqueue", address=address) as span:
            coalesced = self.buffer.put(address, payload)
            span.set(coalesced=coalesced)
        telemetry.metrics.inc_key(
            self._k_coalesced if coalesced else self._k_enqueued
        )
        if self.buffer.full:
            self.flush()

    def read(self, address: int) -> np.ndarray:
        """Serve a read: write-buffer forwarding first, then the array."""
        telemetry = self.telemetry
        telemetry.metrics.inc_key(self._k_read_requests)
        forwarded = self.buffer.lookup(address)
        if forwarded is not None:
            telemetry.metrics.inc_key(self._k_buffer_read_hits)
            return forwarded
        return self.array.read(address)

    def flush(self) -> int:
        """Drain the write buffer in enqueue order; returns writes drained
        (coalesced duplicates were already folded by the buffer)."""
        telemetry = self.telemetry
        tracer = telemetry.tracer
        array = self.array
        with tracer.span("buffer_drain", scheme=array.scheme_name) as root:
            addresses, payloads = self.buffer.drain()
            count = int(addresses.shape[0])
            root.set(entries=count)
            if count == 0:
                return 0
            known = self._consult_batch(addresses)
            with tracer.span("differential_write") as stage:
                if self._vector:
                    total, serviced, lost = service_kernels.drain_vector(
                        self, addresses, payloads, known
                    )
                else:
                    total, serviced, lost = self._drain_scalar(
                        addresses, payloads, known
                    )
                stage.cost(
                    cell_writes=total.cell_writes,
                    verification_reads=total.verification_reads,
                    repartitions=total.repartitions,
                    inversion_writes=total.inversion_writes,
                )
            root.cost(
                cell_writes=total.cell_writes,
                passes=serviced
                + total.verification_reads
                + total.repartitions
                + total.inversion_writes,
            )
            if lost:
                root.fail()
        if self._adaptive:
            for address in addresses.tolist():
                address = int(address)
                self._policy_writes[address] = self._policy_writes.get(address, 0) + 1
            self._drains += 1
            if self._drains % POLICY_INTERVAL == 0:
                self._evaluate_policy()
        recorder = telemetry.timeseries
        if recorder is not None and recorder.auto:
            # time-series sampling point: one per drain, on the op clock
            recorder.sample(array.op_clock)
        return count

    def close(self) -> None:
        """Drain any pending writes (call before reading final state)."""
        self.flush()

    # -- adaptive scheme policy ---------------------------------------------

    def _evaluate_policy(self) -> None:
        """One adaptive-policy pass over the addresses written since the
        last evaluation (sorted, so the decision order — and therefore
        every switch and its telemetry — is deterministic).

        Conditions are read from post-drain state, which the service
        kernels keep bit-identical across engines, so ``adaptive`` runs
        are exactly as worker/engine invariant as ``fixed`` ones.
        """
        array = self.array
        engine = self.policy_engine
        self._policy_rounds += 1
        round_index = self._policy_rounds
        window = self._policy_writes
        self._policy_writes = {}
        total_writes = sum(window.values())
        if total_writes == 0:
            return
        tracer = self.telemetry.tracer
        for address in sorted(window):
            physical = array.physical_of(address)
            if physical is None or array.is_dead(address):
                continue
            current_key = array.scheme_key_of(physical)
            if current_key is None:
                continue
            block = array.blocks[physical]
            fault_count = block.fault_count
            burst = fault_count - self._policy_faults.get(physical, 0)
            self._policy_faults[physical] = fault_count
            if fault_count == 0:
                # nothing observed to act on — re-encoding a pristine block
                # spends wear for a purely speculative overhead trade
                continue
            switched_at = self._policy_switched_at.get(address)
            if (
                switched_at is not None
                and round_index - switched_at < POLICY_COOLDOWN
            ):
                continue
            conditions = BlockConditions(
                fault_count=fault_count,
                maskable_faults=len(block.cells.maskable_offsets),
                write_share=window[address] / total_writes,
                fault_burst=max(0, burst),
            )
            target = engine.choose(conditions, current_key)
            if target is None:
                continue
            with tracer.span(
                "policy_switch", address=address, to_scheme=target.key
            ):
                switched = array.switch_scheme(
                    address, target.spec.make_controller, target.key
                )
            if not switched:
                continue
            self.policy_switches += 1
            self._policy_switched_at[address] = round_index
            self.telemetry.metrics.inc(
                "policy_switches_total",
                **{"from": current_key, "to": target.key},
            )
            self.telemetry.emit(
                "policy_switch",
                op=array.op_clock,
                address=address,
                from_scheme=current_key,
                to_scheme=target.key,
                faults=fault_count,
            )

    # -- pipeline internals -------------------------------------------------

    def _consult_batch(self, addresses: np.ndarray) -> list[dict[int, int]]:
        """Fail-cache consultation for the whole drain (step 2).

        Raises for out-of-range addresses exactly where the per-row
        consult would (in row order), before any row is serviced.
        """
        array = self.array
        telemetry = self.telemetry
        with telemetry.tracer.span("fail_cache_consult") as consult:
            known = self._known_for(addresses)
            hits = sum(1 for entry in known if entry)
            consult.set(
                consults=len(known),
                hits=hits,
                known_faults=sum(len(entry) for entry in known),
            )
        misses = len(known) - hits
        metrics = telemetry.metrics
        if hits:
            metrics.inc(
                "fail_cache_consults_total",
                hits,
                scheme=array.scheme_name,
                result="hit",
            )
        if misses:
            metrics.inc(
                "fail_cache_consults_total",
                misses,
                scheme=array.scheme_name,
                result="miss",
            )
        return known

    def _known_for(self, addresses: np.ndarray) -> list[dict[int, int]]:
        array = self.array
        count = int(addresses.shape[0])
        valid = (addresses >= 0) & (addresses < array.n_addresses)
        if array.fail_cache is None or not valid.all():
            # row-order fallback: validates (and raises) per address like
            # the per-row consult; without a cache every result is empty
            return [array.known_faults(int(address)) for address in addresses]
        # columnar shortcut: a mapped block with zero stuck cells yields no
        # cache probes and no statistics, so only faulty blocks consult
        phys = array._map[addresses]
        known: list[dict[int, int]] = [service_kernels.EMPTY_FAULTS] * count
        mapped = np.flatnonzero(phys >= 0)
        if mapped.size:
            faulty = mapped[array.store.stuck[phys[mapped]].any(axis=1)]
            for row in faulty:
                known[int(row)] = array.known_faults(int(addresses[row]))
        return known

    def _drain_scalar(
        self,
        addresses: np.ndarray,
        payloads: np.ndarray,
        known: list[dict[int, int]],
    ) -> tuple[WriteReceipt, int, int]:
        """Service one drained batch row by row (the scalar engine)."""
        total = WriteReceipt()
        serviced = 0
        lost = 0
        for row in range(int(addresses.shape[0])):
            receipt = self._service_row(
                int(addresses[row]), payloads[row], known[row]
            )
            if receipt is None:
                lost += 1
            else:
                total.merge(receipt)
                serviced += 1
        return total, serviced, lost

    def _service_row(
        self, address: int, payload: np.ndarray, known: dict[int, int]
    ) -> WriteReceipt | None:
        """Service one row through the full pipeline (steps 2b-5).

        The scalar engine runs every row through here; the vector engine
        only the rows that escalate out of the batch.  Returns ``None``
        when the write was lost to spare-pool exhaustion (absorbed unless
        ``strict``).
        """
        array = self.array
        tracer = self.telemetry.tracer
        if (
            self.proactive_migration
            and known
            and array.health_of(address) is BlockHealth.DEGRADED
        ):
            with tracer.span("proactive_migration", address=address):
                array.migrate(address)
        try:
            receipt = array.write(address, payload)
        except RetiredBlockError as error:
            self.telemetry.metrics.inc("writes_lost")
            # the typed context (array/block/scheme) is what a cluster
            # router keys migration decisions on — surface it as a
            # structured event rather than a string
            self.telemetry.emit(
                "write_lost",
                op=array.op_clock,
                address=error.address,
                array=error.array,
                block=error.block,
                scheme=error.scheme,
            )
            if self.strict:
                raise
            return None
        if receipt.repartitions:
            with tracer.span("repartition", op=array.op_clock) as span:
                span.cost(repartitions=receipt.repartitions)
        self.telemetry.record_receipt(receipt)
        if self.cost_hook is not None:
            self.cost_hook(address, receipt.cell_writes)
        return receipt
