"""Per-block health state machine: healthy → degraded → retired.

The paper's device model is binary — a block serves writes until its first
unrecoverable fault, then it is dead.  A *served* array wants an
intermediate signal: a block whose accumulated stuck-at faults approach its
scheme's tolerance is still correct but expensive (inversion writes,
repartition walks) and one fault from data loss.  :class:`HealthTracker`
watches each physical block's fault count and classifies it:

``HEALTHY``
    fault count below the degrade threshold.
``DEGRADED``
    at or above the threshold — still serving, but flagged for proactive
    migration and telemetry (the FREE-p/PAYG sizing signal).
``RETIRED``
    permanently out of service, either because its scheme failed a write
    (reactive) or because the array migrated its address away (proactive).

Transitions are monotonic (a block never heals) and every transition is
reported to telemetry, which is how capacity-over-time reaches the
operator.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ConfigurationError
from repro.service.telemetry import ServiceTelemetry


class BlockHealth(Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    RETIRED = "retired"


class HealthTracker:
    """Tracks the health state of ``n_blocks`` physical blocks.

    Parameters
    ----------
    n_blocks:
        Physical blocks under management (data + spares).
    degrade_threshold:
        Fault count at which a healthy block becomes degraded.  Callers
        typically derive it from the scheme's hard FTC (one below, so the
        flag raises before the guarantee is spent).
    telemetry:
        Optional sink for transition counters and events.
    """

    def __init__(
        self,
        n_blocks: int,
        degrade_threshold: int,
        *,
        telemetry: ServiceTelemetry | None = None,
    ) -> None:
        if n_blocks < 1:
            raise ConfigurationError("health tracker needs at least one block")
        if degrade_threshold < 1:
            raise ConfigurationError("degrade threshold must be positive")
        self.degrade_threshold = degrade_threshold
        self.telemetry = telemetry
        self._states = [BlockHealth.HEALTHY] * n_blocks

    def __len__(self) -> int:
        return len(self._states)

    def state_of(self, block_index: int) -> BlockHealth:
        return self._states[block_index]

    def observe_faults(self, block_index: int, fault_count: int, *, op: int = 0) -> BlockHealth:
        """Update a block's state from its current fault count; returns the
        (possibly new) state.  Retired blocks never change state."""
        state = self._states[block_index]
        if state is BlockHealth.HEALTHY and fault_count >= self.degrade_threshold:
            self._states[block_index] = BlockHealth.DEGRADED
            if self.telemetry is not None:
                self.telemetry.metrics.inc("blocks_degraded")
                self.telemetry.metrics.inc("health_transitions_total", to="degraded")
                self.telemetry.emit(
                    "degrade", op=op, block=block_index, faults=fault_count
                )
        return self._states[block_index]

    def degrade(self, block_index: int, *, op: int = 0, reason: str = "forced") -> None:
        """Force a healthy block into ``DEGRADED`` (idempotent; retired
        blocks stay retired).  Used by cluster control planes to drain an
        array — the forced transition is visible in
        ``health_transitions_total{to="degraded", reason=...}``."""
        if self._states[block_index] is not BlockHealth.HEALTHY:
            return
        self._states[block_index] = BlockHealth.DEGRADED
        if self.telemetry is not None:
            self.telemetry.metrics.inc("blocks_degraded")
            self.telemetry.metrics.inc(
                "health_transitions_total", to="degraded", reason=reason
            )
            self.telemetry.emit("degrade", op=op, block=block_index, reason=reason)

    def retire(self, block_index: int, *, op: int = 0, reason: str = "write_failed") -> None:
        """Take a block out of service permanently (idempotent)."""
        if self._states[block_index] is BlockHealth.RETIRED:
            return
        self._states[block_index] = BlockHealth.RETIRED
        if self.telemetry is not None:
            self.telemetry.metrics.inc("blocks_retired")
            self.telemetry.metrics.inc(
                "health_transitions_total", to="retired", reason=reason
            )
            self.telemetry.emit("retire", op=op, block=block_index, reason=reason)

    # -- aggregate views ----------------------------------------------------

    def count(self, state: BlockHealth) -> int:
        return sum(1 for s in self._states if s is state)

    def summary(self) -> dict[str, int]:
        """State population counts, for snapshots."""
        return {
            "healthy": self.count(BlockHealth.HEALTHY),
            "degraded": self.count(BlockHealth.DEGRADED),
            "retired": self.count(BlockHealth.RETIRED),
        }
