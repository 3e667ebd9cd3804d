"""Pluggable stuck-at fault models for the cell, sim and service layers.

Every layer of the reproduction historically hard-coded the paper's fault
model: a worn-out cell freezes *hard* at one value, fault arrivals are
independent, and nothing about a fault is cheap.  The partially-stuck
literature (Wachter-Zeh & Yaakobi, arXiv:1505.03281; Kim et al.,
arXiv:1911.02904) and multi-level drift studies motivate two richer
regimes, so the model is now a first-class object threaded through the
stack:

``HardStuckAt`` (key ``"hard"``)
    The paper's model and the default everywhere.  Byte-identical to the
    historical behaviour: it draws no extra randomness and transforms
    nothing, so every existing digest (BENCH files, campaign checkpoints,
    telemetry snapshots) is reproduced exactly.

``PartiallyStuck`` (key ``"partial"``)
    A fraction of fault arrivals are *partial*: the cell is stuck only
    above a resistance level, so it still reads as ``1`` and can still be
    programmed to the subset of values at-or-above the level.  Such cells
    are maskable at far lower cost than a hard fault (bias the encoding so
    the cell stores its stuck side); the model grants each block a
    ``mask_budget`` of free masks — the first ``mask_budget`` partial
    arrivals never reach the recovery scheme's checker.  At the service
    layer the same fraction of cells are *weak* (selected by a stable
    positional hash, so both drain engines classify identically): they
    wear out early, and the policy engine can treat their faults as
    maskable when scoring schemes.

``DriftBurst`` (key ``"drift"``)
    Time-correlated burst arrivals: cells live in aligned spans of
    ``burst_span`` neighbours, and with probability ``burst_probability``
    a span's deaths collapse onto its earliest member — the whole span
    fails together (a resistance-drift avalanche).  Implemented as a pure
    input transform on death times, so the existing scalar and vector
    engines stay bit-identical automatically.

The sim layer has one hook, :meth:`FaultModel.transform_base_death`: it
rewrites a page's cell death times (and picks its masked cells) before
the cell-death scheduler runs, and every page, block-lifetime and
failure-curve study goes through it.  All model randomness is drawn
*before* engine dispatch from the caller's substream in a fixed order,
which is what keeps ``--engine auto`` and ``--engine scalar`` (and every
``--workers`` count) bit-identical for the new models; the vectorized
transforms themselves live in :mod:`repro.sim.kernels`.
"""

from __future__ import annotations

from abc import ABC

import numpy as np

from repro.errors import ConfigurationError, FaultInjectionError
from repro.pcm.lifetime import LifetimeModel

__all__ = [
    "FAULT_MODEL_CHOICES",
    "DriftBurst",
    "FaultModel",
    "HARD",
    "HardStuckAt",
    "PartiallyStuck",
    "fault_model_for",
]

#: the public fault-model switch values (CLI ``--fault-model`` choices)
FAULT_MODEL_CHOICES = ("hard", "partial", "drift")

#: multiplicative hash constant (Knuth) for the positional weak-cell hash
_HASH_MULT = 2654435761
_HASH_MOD = 1 << 32


def _weak_mask(n_cells: int, fraction: float, salt: int) -> np.ndarray:
    """Stable positional weak-cell selection: a pure function of the cell
    index, so scalar and vector service paths classify identically without
    storing any extra per-cell state."""
    if fraction <= 0:
        return np.zeros(n_cells, dtype=bool)
    idx = np.arange(n_cells, dtype=np.uint64)
    hashed = (idx * np.uint64(_HASH_MULT) + np.uint64(salt)) % np.uint64(_HASH_MOD)
    return (hashed.astype(np.float64) / _HASH_MOD) < fraction


class FaultModel(ABC):
    """How cells fail: injection semantics, arrival statistics, masking.

    The base class implements the paper's hard stuck-at semantics; the
    richer models override only the hooks where they differ.  Models are
    stateless (parameters only), picklable, and safe to share across
    arrays, shards and worker processes.
    """

    key: str = "abstract"

    # -- cell layer ---------------------------------------------------------

    def inject(
        self,
        cells,
        offset: int,
        stuck_value: int | None = None,
        *,
        partial: bool = False,
    ) -> None:
        """Make ``cells[offset]`` permanently stuck (the delegation target
        of :meth:`repro.pcm.cell.CellArray.inject_fault`)."""
        if not 0 <= offset < cells.n_bits:
            raise FaultInjectionError(
                f"offset {offset} outside array of {cells.n_bits} cells",
                offset=offset,
            )
        if cells._stuck[offset]:
            raise FaultInjectionError(
                f"cell {offset} is already stuck at "
                f"{int(cells._stuck_value[offset])}; a stuck cell never changes",
                offset=offset,
            )
        if partial:
            self._inject_partial(cells, offset, stuck_value)
            return
        value = int(cells._stored[offset]) if stuck_value is None else int(stuck_value)
        if value not in (0, 1):
            raise FaultInjectionError(
                f"stuck value must be 0 or 1, got {stuck_value!r}", offset=offset
            )
        cells._stuck[offset] = True
        cells._stuck_value[offset] = value
        cells._stored[offset] = value

    def _inject_partial(self, cells, offset: int, stuck_value: int | None) -> None:
        raise FaultInjectionError(
            f"the {self.key!r} fault model has no partial faults", offset=offset
        )

    def mismatch_offsets(self, cells, expected: np.ndarray) -> np.ndarray:
        """Verification-read mismatches (the delegation target of
        :meth:`repro.pcm.cell.CellArray.verify`): offsets whose stored
        value disagrees with ``expected``."""
        return np.flatnonzero(cells._stored != expected)

    def maskable_offsets(self, cells) -> list[int]:
        """Stuck offsets this model lets a scheme mask at negligible cost."""
        return []

    # -- sim layer: time domain (every page and block study) ----------------

    def transform_base_death(
        self, base_death: np.ndarray, n_bits: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Rewrite a population's intrinsic cell death times.

        ``base_death`` is flat ``(blocks * n_bits,)`` in block-major
        order.  Returns ``(transformed, masked)`` where ``masked`` flags
        cells whose faults are masked for free (their arrivals never reach
        the checker; ``None`` = nothing masked).  The transform must not
        mutate its input — callers keep the original for baselines.
        """
        return base_death, None

    # -- service layer ------------------------------------------------------

    def shape_lifetime(self, model: LifetimeModel) -> LifetimeModel:
        """Wrap a lifetime model with this fault model's arrival shaping
        (used when a served array is built under this model)."""
        return model

    def describe(self) -> dict:
        return {"model": self.key}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(
            f"{k}={v}" for k, v in self.describe().items() if k != "model"
        )
        return f"{type(self).__name__}({params})"


class HardStuckAt(FaultModel):
    """The paper's model: a dead cell freezes hard at one value.

    Deliberately identical to the historical behaviour — no extra RNG
    draws, no transforms — so the default path reproduces every existing
    digest byte for byte.
    """

    key = "hard"


class PartiallyStuck(FaultModel):
    """Cells stuck above a level: readable as ``1``, maskable cheaply.

    Parameters
    ----------
    partial_fraction:
        Probability a fault arrival (sim layer) — or a cell (service
        layer, via the positional hash) — is partial rather than hard.
    mask_budget:
        Free masks per block: the first ``mask_budget`` partial arrivals
        in a block never reach its checker.
    weak_scale:
        Service-layer endurance multiplier for weak (partial-prone)
        cells; weak cells wear out early, shifting the observed fault mix
        toward maskable faults.
    salt:
        Salt of the positional weak-cell hash.
    """

    key = "partial"

    def __init__(
        self,
        *,
        partial_fraction: float = 0.5,
        mask_budget: int = 4,
        weak_scale: float = 0.45,
        salt: int = 23,
    ) -> None:
        if not 0 <= partial_fraction <= 1:
            raise ConfigurationError("partial fraction must be in [0, 1]")
        if mask_budget < 0:
            raise ConfigurationError("mask budget cannot be negative")
        if not 0 < weak_scale <= 1:
            raise ConfigurationError("weak scale must be in (0, 1]")
        self.partial_fraction = float(partial_fraction)
        self.mask_budget = int(mask_budget)
        self.weak_scale = float(weak_scale)
        self.salt = int(salt)

    def _inject_partial(self, cells, offset: int, stuck_value: int | None) -> None:
        # stuck above the level: the cell reads as 1 and stays writable to
        # the values at-or-above it, so the frozen image is always 1
        if stuck_value not in (None, 1):
            raise FaultInjectionError(
                "a partially stuck cell freezes above its level and reads as 1",
                offset=offset,
            )
        cells._stuck[offset] = True
        cells._stuck_value[offset] = 1
        cells._stored[offset] = 1
        cells._partial[offset] = True

    def maskable_offsets(self, cells) -> list[int]:
        return [int(i) for i in np.flatnonzero(cells._stuck & cells._partial)]

    def transform_base_death(
        self, base_death: np.ndarray, n_bits: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray | None]:
        from repro.sim import kernels

        flags = rng.random(base_death.shape[0]) < self.partial_fraction
        masked = kernels.mask_partial_deaths(
            base_death, flags, n_bits, self.mask_budget
        )
        if not masked.any():
            return base_death, None
        transformed = base_death.copy()
        transformed[masked] = np.inf
        return transformed, masked

    def shape_lifetime(self, model: LifetimeModel) -> LifetimeModel:
        return _WeakCellLifetime(
            model, self.partial_fraction, self.weak_scale, self.salt
        )

    def describe(self) -> dict:
        return {
            "model": self.key,
            "partial_fraction": self.partial_fraction,
            "mask_budget": self.mask_budget,
            "weak_scale": self.weak_scale,
        }


class DriftBurst(FaultModel):
    """Time-correlated bursts: aligned spans of neighbours fail together.

    Parameters
    ----------
    burst_span:
        Cells per aligned span (spans never cross block boundaries as
        long as ``burst_span`` divides the block size, which the default
        does for every roster block width).
    burst_probability:
        Probability a span is bursty — its members' deaths collapse onto
        the span's earliest death.
    """

    key = "drift"

    def __init__(
        self, *, burst_span: int = 8, burst_probability: float = 0.25
    ) -> None:
        if burst_span < 2:
            raise ConfigurationError("burst span must cover at least two cells")
        if not 0 <= burst_probability <= 1:
            raise ConfigurationError("burst probability must be in [0, 1]")
        self.burst_span = int(burst_span)
        self.burst_probability = float(burst_probability)

    def _span_flags(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        n_spans = -(-n_cells // self.burst_span)
        return rng.random(n_spans) < self.burst_probability

    def transform_base_death(
        self, base_death: np.ndarray, n_bits: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray | None]:
        from repro.sim import kernels

        bursty = self._span_flags(base_death.shape[0], rng)
        if not bursty.any():
            return base_death, None
        return (
            kernels.burst_collapse(base_death, self.burst_span, bursty),
            None,
        )

    def shape_lifetime(self, model: LifetimeModel) -> LifetimeModel:
        return _BurstLifetime(model, self.burst_span, self.burst_probability)

    def describe(self) -> dict:
        return {
            "model": self.key,
            "burst_span": self.burst_span,
            "burst_probability": self.burst_probability,
        }


# ---------------------------------------------------------------------------
# Service-layer lifetime shaping
# ---------------------------------------------------------------------------


class _WeakCellLifetime(LifetimeModel):
    """Weak (partial-prone) cells wear out early: the hash-selected weak
    subset's endurance is scaled down, shifting the served fault mix
    toward early, maskable faults."""

    def __init__(
        self, base: LifetimeModel, fraction: float, scale: float, salt: int
    ) -> None:
        self.base = base
        self.fraction = float(fraction)
        self.scale = float(scale)
        self.salt = int(salt)

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        endurance = np.asarray(self.base.sample(n_cells, rng), dtype=np.float64)
        weak = _weak_mask(n_cells, self.fraction, self.salt)
        if weak.any():
            endurance = endurance.copy()
            endurance[weak] *= self.scale
        return endurance

    @property
    def mean(self) -> float:
        return self.base.mean * (1.0 - self.fraction + self.fraction * self.scale)


class _BurstLifetime(LifetimeModel):
    """Span-correlated endurance: bursty spans share their minimum draw,
    so neighbours wear out (and fail) together under served traffic."""

    def __init__(self, base: LifetimeModel, span: int, probability: float) -> None:
        self.base = base
        self.span = int(span)
        self.probability = float(probability)

    def sample(self, n_cells: int, rng: np.random.Generator) -> np.ndarray:
        from repro.sim import kernels

        endurance = np.asarray(self.base.sample(n_cells, rng), dtype=np.float64)
        n_spans = -(-n_cells // self.span)
        bursty = rng.random(n_spans) < self.probability
        if not bursty.any():
            return endurance
        return kernels.burst_collapse(endurance, self.span, bursty)

    @property
    def mean(self) -> float:
        # the span-minimum pull is workload-order statistics; report the
        # base mean (the shaping is a correlation, not a rescale)
        return self.base.mean


#: the shared stateless default model (the paper's behaviour)
HARD = HardStuckAt()

_BUILTIN = {
    "hard": HardStuckAt,
    "partial": PartiallyStuck,
    "drift": DriftBurst,
}


def fault_model_for(model: "str | FaultModel | None", **params) -> FaultModel:
    """Resolve a fault-model selection to a model instance.

    Accepts a ready :class:`FaultModel` (returned as-is), ``None`` (the
    hard default), or one of :data:`FAULT_MODEL_CHOICES` with optional
    constructor ``params``.
    """
    if model is None:
        return HARD
    if isinstance(model, FaultModel):
        return model
    try:
        cls = _BUILTIN[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault model {model!r}; known: "
            f"{', '.join(FAULT_MODEL_CHOICES)}"
        ) from None
    if cls is HardStuckAt and not params:
        return HARD
    return cls(**params)
