"""An addressable memory array over the bit-accurate PCM model.

:class:`MemoryArray` turns the reproduction's device substrate into
something that can *serve*: a logical block address space with
``write(addr, payload)`` / ``read(addr)``, backed by per-block recovery
controllers (Aegis/ECP/SAFER via any
:class:`~repro.pcm.block.SchemeFactory`), placed by perfect (round-robin)
wear leveling, and protected by a FREE-p-style spare pool
(:class:`~repro.remap.pool.SparePool`).

The contract the rest of the service layer builds on:

* A write that the block's scheme cannot complete does **not** surface
  :class:`~repro.errors.UncorrectableError` to the caller.  The array
  retires the block (health machine → ``RETIRED``), allocates a fresh
  physical block from the pool, replays the payload there, and rewires the
  logical address — the caller sees a slower write, not data loss.
* Only when the pool is exhausted does the array raise the typed
  :class:`~repro.errors.RetiredBlockError`; the affected address is then
  dead, every other address keeps serving, and capacity statistics record
  the loss — graceful degradation rather than array death.
* Reads of a never-written address return zeros (fresh PCM cells), so the
  array behaves like real memory rather than a key-value store.

Placement: a logical address claims a physical block on its first write
(and on every remap) through :class:`~repro.pcm.wear.PerfectWearLeveling`
restricted to free blocks, then writes in place — the write-in-place +
allocation-time leveling model of PCM, with differential writes and
verification reads happening inside :class:`~repro.pcm.block.ProtectedBlock`
exactly as in the device model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, RetiredBlockError, UncorrectableError
from repro.pcm.block import ProtectedBlock, SchemeFactory
from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys
from repro.pcm.faults import fault_model_for
from repro.pcm.lifetime import LifetimeModel, NormalLifetime
from repro.pcm.wear import PerfectWearLeveling
from repro.remap.pool import SparePool
from repro.schemes.base import WriteReceipt
from repro.service.health import BlockHealth, HealthTracker
from repro.service.kernels import BlockStore
from repro.service.telemetry import ServiceTelemetry
from repro.sim.kernels import validate_engine

#: degrade threshold when the scheme does not expose a hard FTC
DEFAULT_DEGRADE_FAULTS = 4

#: fail-cache entries per array of the load generator and the cluster
FAIL_CACHE_ENTRIES = 1024


def service_fail_cache() -> DirectMappedFailCache:
    """The fail cache every load-generator shard and cluster array keeps:
    :data:`FAIL_CACHE_ENTRIES` entries keyed by block construction order,
    so hit/eviction statistics reproduce across processes."""
    return DirectMappedFailCache(FAIL_CACHE_ENTRIES, key_of=SequentialBlockKeys())


class MemoryArray:
    """A logical block address space over ``n_addresses + spares`` blocks.

    Parameters
    ----------
    n_addresses:
        Size of the logical block address space.
    block_bits:
        Data bits per block (the recovery schemes' block size).
    scheme_factory:
        Builds the per-block recovery controller (any
        :class:`~repro.sim.roster.SchemeSpec`'s ``make_controller`` works).
    spares:
        Extra physical blocks beyond the address space — the FREE-p pool.
    lifetime_model, rng:
        As in :class:`~repro.pcm.device.PCMDevice`; placement is always
        :class:`~repro.pcm.wear.PerfectWearLeveling` over the free blocks.
    fail_cache:
        Optional :class:`~repro.pcm.failcache.DirectMappedFailCache`; when
        present, the array records faults discovered by verification reads
        and serves the controller's pre-write consultation.
    degrade_fault_threshold:
        Fault count flagging a block ``DEGRADED``; defaults to one below
        the scheme's hard FTC when it exposes one.
    telemetry:
        Optional :class:`ServiceTelemetry` sink for counters and events.
    engine:
        Drain engine (``"auto"``/``"scalar"``) for controllers built over
        this array; ``"auto"`` batches drains whenever
        :func:`repro.service.kernels.kernel_for` covers the scheme.
    name:
        Identity of this array in a multi-array deployment; carried on
        every :class:`~repro.errors.RetiredBlockError` so cluster routers
        can attribute failures without string-parsing.
    fault_model:
        Cell fault statistics (:mod:`repro.pcm.faults`): a model instance
        or registry name.  Shapes every block's sampled endurance
        (``shape_lifetime``) and governs injection/masking semantics on
        the cells.  The hard default reproduces the historical arrays
        byte-for-byte.
    scheme_key:
        Roster key of the base scheme (e.g. ``"aegis-9x61"``); the label
        :meth:`scheme_key_of` reports for blocks the adaptive policy has
        not switched.  Optional — arrays built without one simply cannot
        be switched by a policy engine.
    """

    def __init__(
        self,
        n_addresses: int,
        block_bits: int,
        scheme_factory: SchemeFactory,
        *,
        spares: int = 0,
        lifetime_model: LifetimeModel | None = None,
        fail_cache: DirectMappedFailCache | None = None,
        degrade_fault_threshold: int | None = None,
        telemetry: ServiceTelemetry | None = None,
        rng: np.random.Generator | None = None,
        engine: str = "auto",
        name: str = "array0",
        fault_model: object | None = None,
        scheme_key: str | None = None,
    ) -> None:
        if n_addresses < 1:
            raise ConfigurationError("a memory array needs at least one address")
        if spares < 0:
            raise ConfigurationError("spare count cannot be negative")
        if block_bits < 1:
            raise ConfigurationError("a memory array needs at least one bit per block")
        self.name = name
        self.rng = rng if rng is not None else np.random.default_rng()
        self.n_addresses = n_addresses
        self.block_bits = block_bits
        self.spares = spares
        self.fault_model = fault_model_for(fault_model)
        self.scheme_key = scheme_key
        # the hard default passes the caller's model through untouched
        # (None included), keeping historical arrays byte-identical
        shaped_lifetime = (
            lifetime_model
            if self.fault_model.key == "hard"
            else self.fault_model.shape_lifetime(
                lifetime_model if lifetime_model is not None else NormalLifetime()
            )
        )
        #: columnar home of every block's cell state: each block is built
        #: on its rows, so scalar writes and batch kernels share one copy
        self.store = BlockStore(n_addresses + spares, block_bits)
        self.blocks = [
            ProtectedBlock(
                block_bits,
                scheme_factory,
                lifetime_model=shaped_lifetime,
                rng=self.rng,
                fault_model=self.fault_model,
                rows=self.store.rows(index),
            )
            for index in range(n_addresses + spares)
        ]
        self.wear_leveling = PerfectWearLeveling()
        self.fail_cache = fail_cache
        self.telemetry = telemetry if telemetry is not None else ServiceTelemetry()
        #: scheme label for labeled metrics/spans (all blocks share a scheme)
        self.scheme_name = getattr(
            self.blocks[0].scheme, "name", type(self.blocks[0].scheme).__name__
        )
        if degrade_fault_threshold is None:
            hard_ftc = getattr(self.blocks[0].scheme, "hard_ftc", None)
            degrade_fault_threshold = (
                max(1, int(hard_ftc) - 1)
                if isinstance(hard_ftc, int)
                else DEFAULT_DEGRADE_FAULTS
            )
        self.health = HealthTracker(
            len(self.blocks), degrade_fault_threshold, telemetry=self.telemetry
        )
        self.pool = SparePool(len(self.blocks))
        self._map = np.full(n_addresses, -1, dtype=np.int64)
        self._dead: set[int] = set()
        #: physical blocks whose scheme no longer matches the array's base
        #: scheme; the vector drain escalates these rows to the scalar
        #: pipeline (the batch kernels are built for the base scheme only)
        self._switched: set[int] = set()
        #: physical block -> roster key of its switched scheme
        self._scheme_keys: dict[int, str] = {}
        #: operations serviced (write or read) — the deterministic clock
        #: events are stamped with
        self.op_clock = 0
        self.engine = validate_engine(engine)
        # precomputed counter-series keys for the per-op hot path
        metrics = self.telemetry.metrics
        self._k_writes_serviced = metrics.series_key("writes_serviced")
        self._k_writes_ok = metrics.series_key(
            "writes_total", scheme=self.scheme_name, outcome="ok"
        )
        self._k_writes_remapped = metrics.series_key(
            "writes_total", scheme=self.scheme_name, outcome="remapped"
        )
        self._k_reads_serviced = metrics.series_key("reads_serviced")
        self._k_reads_total = metrics.series_key("reads_total", scheme=self.scheme_name)

    # -- address/state views ------------------------------------------------

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.n_addresses:
            raise ConfigurationError(
                f"address {address} outside logical space of {self.n_addresses}"
            )

    def is_dead(self, address: int) -> bool:
        """True when the address's data was lost to spare-pool exhaustion."""
        self._check_address(address)
        return address in self._dead

    def physical_of(self, address: int) -> int | None:
        """Physical block currently backing ``address`` (``None`` if unmapped)."""
        self._check_address(address)
        physical = int(self._map[address])
        return physical if physical >= 0 else None

    def health_of(self, address: int) -> BlockHealth:
        """Health of the block backing ``address`` (unmapped = healthy)."""
        physical = self.physical_of(address)
        if physical is None:
            return BlockHealth.HEALTHY
        return self.health.state_of(physical)

    def scheme_key_of(self, physical: int) -> str | None:
        """Roster key of the scheme currently on physical block
        ``physical`` (the base ``scheme_key`` unless a policy switched it)."""
        return self._scheme_keys.get(physical, self.scheme_key)

    def known_faults(self, address: int) -> dict[int, int]:
        """Fail-cache view of the faults under ``address`` (empty without a
        cache or mapping) — the pipeline's pre-write consultation."""
        physical = self.physical_of(address)
        if physical is None or self.fail_cache is None:
            return {}
        return self.fail_cache.known_faults(self.blocks[physical].cells)

    # -- data path ----------------------------------------------------------

    def _allocate(self, address: int, *, failed_block: int | None = None) -> int:
        physical = self.pool.allocate(address, self.wear_leveling, self.rng)
        if physical is None:
            self._dead.add(address)
            self.telemetry.metrics.inc("addresses_lost")
            self.telemetry.metrics.inc(
                "writes_total", scheme=self.scheme_name, outcome="lost"
            )
            self.telemetry.emit("address_lost", op=self.op_clock, address=address)
            raise RetiredBlockError(
                f"address {address}: spare pool exhausted",
                address=address,
                array=self.name,
                block=failed_block,
                scheme=self.scheme_name,
            )
        self._map[address] = physical
        return physical

    def _record_faults(self, physical: int) -> None:
        """Feed faults surfaced by the write's verification reads into the
        fail cache (the paper's discovery path, §2.4)."""
        if self.fail_cache is None:
            return
        cells = self.blocks[physical].cells
        offsets = np.flatnonzero(self.store.stuck[physical])
        values = self.store.stuck_value[physical, offsets]
        for offset, stuck_value in zip(offsets.tolist(), values.tolist()):
            self.fail_cache.record(cells, offset, stuck_value)

    def write(self, address: int, payload: np.ndarray) -> WriteReceipt:
        """Store ``payload`` at ``address``, surviving block failures.

        Raises :class:`RetiredBlockError` only when a block failure finds
        the spare pool empty — the address is then permanently dead.
        """
        self._check_address(address)
        if address in self._dead:
            raise RetiredBlockError(
                f"address {address} was retired (data lost)",
                address=address,
                array=self.name,
                scheme=self.scheme_name,
            )
        self.op_clock += 1
        tracer = self.telemetry.tracer
        physical = self.physical_of(address)
        if physical is None:
            physical = self._allocate(address)
        receipt = WriteReceipt()
        remapped = False
        # bounded by the pool: each failed attempt consumes one spare, and
        # a freshly allocated block (no faults yet) always accepts the write
        for _attempt in range(self.pool.remaining + 1):
            try:
                attempt_receipt = self.blocks[physical].write(payload)
            except UncorrectableError:
                with tracer.span("spare_remap", op=self.op_clock, address=address):
                    physical = self._remap(address, physical)
                remapped = True
                continue
            receipt.merge(attempt_receipt)
            self.health.observe_faults(
                physical, self.blocks[physical].fault_count, op=self.op_clock
            )
            self._record_faults(physical)
            metrics = self.telemetry.metrics
            metrics.inc_key(self._k_writes_serviced)
            metrics.inc_key(self._k_writes_remapped if remapped else self._k_writes_ok)
            metrics.observe(
                "stage_cost",
                receipt.cell_writes,
                edges=self.telemetry.service_cost.edges,
                stage="differential_write",
                scheme=self.scheme_name,
            )
            return receipt
        raise AssertionError("remap loop exceeded spare pool")  # pragma: no cover

    def _remap(self, address: int, failed_physical: int) -> int:
        """Retire a failed block and rewire ``address`` to a fresh one."""
        self.health.retire(failed_physical, op=self.op_clock)
        self._map[address] = -1
        # raises (with the failed block's identity) when the pool is dry
        physical = self._allocate(address, failed_block=failed_physical)
        self.telemetry.metrics.inc("remaps")
        self.telemetry.metrics.inc("remaps_total", scheme=self.scheme_name)
        self.telemetry.emit(
            "remap",
            op=self.op_clock,
            address=address,
            failed_block=failed_physical,
            spare=physical,
        )
        return physical

    def read(self, address: int) -> np.ndarray:
        """The payload last stored at ``address`` (zeros when never written).

        Raises :class:`RetiredBlockError` for a dead address — the service
        signal that this data is gone.
        """
        self._check_address(address)
        if address in self._dead:
            raise RetiredBlockError(
                f"address {address} was retired (data lost)",
                address=address,
                array=self.name,
                scheme=self.scheme_name,
            )
        self.op_clock += 1
        metrics = self.telemetry.metrics
        metrics.inc_key(self._k_reads_serviced)
        metrics.inc_key(self._k_reads_total)
        physical = int(self._map[address])
        if physical < 0:
            return np.zeros(self.block_bits, dtype=np.uint8)
        return self.blocks[physical].read()

    def migrate(self, address: int) -> bool:
        """Proactively move a (typically degraded) address to a fresh block.

        Returns ``False`` — leaving the data in place — when the pool has
        no block to give; never raises, because migration is an
        optimisation, not a correctness requirement.
        """
        physical = self.physical_of(address)
        if physical is None or address in self._dead:
            return False
        if self.pool.remaining == 0:
            return False
        data = self.blocks[physical].read()
        self.health.retire(physical, op=self.op_clock, reason="migrated")
        self._map[address] = -1
        fresh = self._allocate(address)
        self.blocks[fresh].write(data)
        self.telemetry.metrics.inc("migrations")
        self.telemetry.metrics.inc("migrations_total", scheme=self.scheme_name)
        self.telemetry.emit(
            "migrate", op=self.op_clock, address=address, from_block=physical, to_block=fresh
        )
        return True

    def switch_scheme(self, address: int, factory: SchemeFactory, scheme_key: str) -> bool:
        """Re-encode the block behind ``address`` under a different scheme.

        The adaptive policy's escalation primitive: the payload is decoded
        under the incumbent scheme, the block's cells are rebound to a
        fresh controller from ``factory``, and the payload is replayed
        through the normal write path — so a re-encode the new scheme
        cannot complete takes exactly the ordinary failure road (retire,
        spare remap, :class:`RetiredBlockError` on pool exhaustion)
        rather than inventing a second one.  Switched physical blocks are
        recorded so the vector drain routes them to the scalar pipeline.

        Returns ``False`` (block untouched) for unmapped, dead, or
        already-failed addresses, and when the re-encode lost the address
        to pool exhaustion.
        """
        self._check_address(address)
        physical = self.physical_of(address)
        if physical is None or address in self._dead:
            return False
        block = self.blocks[physical]
        if block.failed:
            return False
        data = block.read()
        block.scheme = factory(block.cells)
        self._switched.add(physical)
        self._scheme_keys[physical] = scheme_key
        try:
            self.write(address, data)
        except RetiredBlockError:
            return False
        self.telemetry.metrics.inc("scheme_switches")
        self.telemetry.emit(
            "scheme_switch",
            op=self.op_clock,
            address=address,
            block=physical,
            scheme=scheme_key,
        )
        return True

    # -- capacity accounting ------------------------------------------------

    @property
    def live_addresses(self) -> int:
        return self.n_addresses - len(self._dead)

    @property
    def fault_count(self) -> int:
        """Stuck cells across every physical block."""
        return sum(block.fault_count for block in self.blocks)

    def capacity_summary(self) -> dict[str, object]:
        """Deterministic capacity/health roll-up for snapshots."""
        mapped = int((self._map >= 0).sum())
        return {
            "total_addresses": self.n_addresses,
            "live_addresses": self.live_addresses,
            "dead_addresses": len(self._dead),
            "mapped_addresses": mapped,
            "free_blocks": self.pool.remaining,
            "capacity_fraction": round(self.live_addresses / self.n_addresses, 6),
            **{f"blocks_{k}": v for k, v in self.health.summary().items()},
        }
