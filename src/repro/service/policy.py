"""Adaptive per-block scheme selection for the service layer.

The paper picks one recovery scheme per deployment and sticks with it;
this module lets the service pick per *block*, from observed conditions.
Different blocks see different lives — a hot block under a Zipf workload
burns endurance orders of magnitude faster than a cold one, a block under
the drift fault model collects faults in bursts, and a block whose faults
are partially stuck (maskable) needs less correction muscle than its raw
fault count suggests.  A fixed scheme pays one overhead everywhere; an
adaptive policy spends overhead only where the observed conditions say it
buys lifetime.

Three pieces:

* :class:`SchemeOption` — one candidate scheme: a roster
  :class:`~repro.sim.roster.SchemeSpec` plus its *hard FTC* (the fault
  count it guarantees to survive), the quantity the scoring trades
  against overhead bits.
* :class:`BlockConditions` — the per-block observation vector the
  controller assembles at each evaluation: stuck-cell count, maskable
  (partially-stuck) fault count, the block's share of recent write
  traffic, and the fault-arrival burst since the last look.
* :class:`SchemePolicyEngine` — the deterministic scorer.  Every option
  gets ``demand * protection - OVERHEAD_WEIGHT * overhead`` where demand
  grows with write pressure and burstiness, protection is the saturating
  FTC headroom above the block's *effective* (maskable-discounted) fault
  count, and overhead is the option's bit cost relative to the block.
  A switch is proposed only when the best option clears the incumbent by
  the :data:`HYSTERESIS` margin — flapping between near-tied schemes
  would pay re-encode wear for nothing.

Determinism contract
--------------------
Scoring is pure arithmetic over the conditions — no RNG, no wall clock —
and ties break lexicographically on the option key, so the same observed
state always yields the same decision.  The controller evaluates from
post-drain state (engine-invariant by the service-kernel bit-identity
contract) in sorted address order, which is what keeps adaptive runs
bit-identical across ``--workers`` and ``--engine`` (asserted in
``tests/test_policy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.formations import aegis_hard_ftc, safer_hard_ftc
from repro.errors import ConfigurationError
from repro.sim.roster import SchemeSpec, aegis_spec, ecp_spec, safer_spec

#: controller policy modes (``fixed`` = historical single-scheme behavior)
POLICY_CHOICES = ("fixed", "adaptive")

#: score margin the best option must clear over the incumbent before a
#: switch is proposed
HYSTERESIS = 0.05

#: weight of the overhead term against the protection term
OVERHEAD_WEIGHT = 0.6

#: FTC headroom beyond which extra protection buys nothing (the
#: saturation point of the protection term)
HEADROOM_CAP = 8

#: controller drains between adaptive-policy evaluations
POLICY_INTERVAL = 4

#: evaluations an address sits out after a switch (hysteresis against
#: re-encode flapping)
POLICY_COOLDOWN = 2


@dataclass(frozen=True)
class SchemeOption:
    """One candidate scheme the policy may place on a block.

    ``hard_ftc`` is the fault count the scheme *guarantees* to survive
    (Table 1's hard FTC); the policy never proposes a scheme whose hard
    FTC does not clear the block's effective fault count, so a switch can
    never land on a scheme that immediately fails the re-encode.
    """

    spec: SchemeSpec
    hard_ftc: int

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def overhead_bits(self) -> int:
        return self.spec.overhead_bits


@dataclass(frozen=True)
class BlockConditions:
    """Observed per-block state driving one policy evaluation.

    ``write_share`` is the block's fraction of the evaluation window's
    writes (hotness); ``fault_burst`` is how many faults arrived since
    the previous evaluation (the time-correlation signal the drift model
    produces); ``maskable_faults`` counts stuck cells the fault model can
    mask at lower cost than full correction (partially-stuck cells).
    """

    fault_count: int
    maskable_faults: int = 0
    write_share: float = 0.0
    fault_burst: int = 0

    @property
    def effective_faults(self) -> int:
        """Faults the scheme actually has to correct: maskable
        partially-stuck cells discount the raw count (they can be held at
        a readable level without spending correction resources)."""
        return max(0, self.fault_count - self.maskable_faults)


def default_policy_options(block_bits: int = 512) -> tuple[SchemeOption, ...]:
    """The standard option table: the service-layer schemes with batch
    kernels, spanning the overhead/FTC trade (36..91 bits, FTC 6..11)."""
    return (
        SchemeOption(aegis_spec(17, 31, block_bits), aegis_hard_ftc(31)),
        SchemeOption(aegis_spec(9, 61, block_bits), aegis_hard_ftc(61)),
        SchemeOption(ecp_spec(6, block_bits), 6),
        SchemeOption(safer_spec(64, block_bits), safer_hard_ftc(64)),
    )


class SchemePolicyEngine:
    """Deterministic scorer over :func:`default_policy_options`.

    ``block_bits`` (data bits per block) is the denominator of the
    overhead term; the weights are the module constants
    :data:`HYSTERESIS`, :data:`OVERHEAD_WEIGHT` and :data:`HEADROOM_CAP`.
    """

    def __init__(self, *, block_bits: int = 512) -> None:
        self.options = default_policy_options(block_bits)
        self.block_bits = block_bits
        self._by_key = {option.key: option for option in self.options}

    def score(self, option: SchemeOption, conditions: BlockConditions) -> float:
        """Utility of holding the block under ``option`` — pure arithmetic.

        Protection is the saturating FTC headroom above the effective
        fault count; demand scales it by how much the block matters
        (write share) and how fast faults are arriving (burst); overhead
        is the flat bit cost.  An option whose hard FTC cannot cover the
        effective faults scores its (negative) headroom outright, so a
        block at risk always prefers any option that still covers it.
        """
        headroom = option.hard_ftc - conditions.effective_faults
        overhead = OVERHEAD_WEIGHT * option.overhead_bits / self.block_bits
        if headroom <= 0:
            return float(headroom) - overhead
        pressure = min(1.0, 4.0 * conditions.write_share)
        burst = min(1.0, conditions.fault_burst / 4.0)
        demand = min(1.0, 0.3 + 0.45 * pressure + 0.25 * burst)
        protection = min(headroom, HEADROOM_CAP) / HEADROOM_CAP
        return demand * protection - overhead

    def choose(
        self, conditions: BlockConditions, current_key: str
    ) -> SchemeOption | None:
        """The option to switch the block to, or ``None`` to stay put.

        Returns ``None`` when the incumbent scheme is not in the option
        table (nothing to compare against — the policy never evicts a
        scheme it cannot score), when the incumbent is already the best,
        or when the best lead is within the hysteresis margin.
        """
        current = self._by_key.get(current_key)
        if current is None:
            return None
        # lexicographic tie-break on key keeps the decision deterministic
        best = max(
            self.options,
            key=lambda option: (self.score(option, conditions), option.key),
        )
        if best.key == current_key:
            return None
        if self.score(best, conditions) <= self.score(current, conditions) + HYSTERESIS:
            return None
        return best


def validate_policy(policy: str) -> str:
    """Validate a controller policy mode string (mirrors
    :func:`repro.sim.kernels.validate_engine`)."""
    if policy not in POLICY_CHOICES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; expected one of {POLICY_CHOICES}"
        )
    return policy
