"""Scheme specifications: one object per evaluated configuration.

A :class:`SchemeSpec` bundles everything the simulators and experiment
drivers need to evaluate one scheme configuration:

* the display ``label`` used in the paper's figures,
* the per-block ``overhead_bits`` (printed above the paper's bars),
* a factory for the fast Monte Carlo :class:`~repro.sim.checkers.BlockChecker`,
* a factory for the bit-accurate controller (for cross-validation and the
  slow device model),
* whether the scheme performs extra *inversion writes* on fault-containing
  groups (true for the cache-less partition schemes; this drives the wear
  amplification model, DESIGN.md §4), and
* for the static schemes a batch kernel covers, a factory for the
  :mod:`repro.sim.kernels` batch checker.

Every factory is the implementing class itself, bound with
:func:`functools.partial` (never a lambda or closure), so that a spec —
and therefore a whole simulation task — pickles by reference across the
process boundary of :mod:`repro.sim.parallel`.  The spec constructors
below are the one place that says which class implements which
configuration.

``figure5_roster`` / ``figure8_roster`` / ``variants_roster`` reproduce the
exact scheme lists of the paper's figures.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from repro.core.aegis import AegisScheme
from repro.core.aegis_rw import AegisRwScheme
from repro.core.aegis_rw_p import AegisRwPScheme
from repro.core.formations import formation, rdis_cost, safer_cost
from repro.core.formations import ecp_cost_for_ftc, hamming_cost, rdis_dimensions
from repro.pcm.cell import CellArray
from repro.schemes.base import RecoveryScheme
from repro.schemes.ecp import EcpScheme
from repro.schemes.hamming import HammingScheme
from repro.schemes.ideal import NoProtectionScheme
from repro.schemes.rdis import RdisScheme
from repro.schemes.safer import SaferCacheScheme, SaferScheme, check_policy
from repro.sim import checkers, kernels
from repro.sim.rng import BitSource

CheckerFactory = Callable[[BitSource], object]
ControllerFactory = Callable[[CellArray], RecoveryScheme]
BatchFactory = Callable[[int], object]


@dataclass(frozen=True)
class SchemeSpec:
    """Everything needed to evaluate one scheme configuration."""

    key: str
    label: str
    n_bits: int
    overhead_bits: int
    make_checker: CheckerFactory
    make_controller: ControllerFactory
    inversion_wear: bool = False
    #: the batch-checker class bound to everything but the trial count
    #: (``None`` where no kernel covers the scheme: it runs the scalar path)
    make_batch: BatchFactory | None = None

    @property
    def overhead_fraction(self) -> float:
        """Overhead relative to the data block (the paper quotes e.g. 13%
        for Aegis 9x61)."""
        return self.overhead_bits / self.n_bits


def _static(checker_type: type, *args: object) -> object:
    """Build a static checker; the trailing argument is the walk's
    :class:`~repro.sim.rng.BitSource`, which a static checker never draws
    from."""
    return checker_type(*args[:-1])


# ---------------------------------------------------------------------------
# Spec constructors
# ---------------------------------------------------------------------------


def aegis_spec(a_size: int, b_size: int, n_bits: int) -> SchemeSpec:
    form = formation(a_size, b_size, n_bits)
    batch = partial(kernels.AegisBatch, a_size, b_size, n_bits)
    return SchemeSpec(
        key=f"aegis-{a_size}x{b_size}",
        label=f"Aegis {a_size}x{b_size}",
        n_bits=n_bits,
        overhead_bits=form.aegis_overhead_bits,
        make_checker=partial(_static, checkers.AegisChecker, form.rect),
        make_controller=partial(AegisScheme, formation=form),
        inversion_wear=True,
        # a wider rectangle overflows the kernel's uint64 poisoned-slope bitset
        make_batch=batch if b_size <= kernels.MAX_SLOPE_BITS else None,
    )


def aegis_rw_spec(
    a_size: int, b_size: int, n_bits: int, samples: int = checkers.DEFAULT_SAMPLES
) -> SchemeSpec:
    form = formation(a_size, b_size, n_bits)
    return SchemeSpec(
        key=f"aegis-rw-{a_size}x{b_size}",
        label=f"Aegis-rw {a_size}x{b_size}",
        n_bits=n_bits,
        overhead_bits=form.aegis_overhead_bits,
        make_checker=partial(checkers.AegisRwChecker, form.rect, samples=samples),
        make_controller=partial(AegisRwScheme, formation=form),
        inversion_wear=False,
    )


def aegis_rw_p_spec(
    a_size: int,
    b_size: int,
    pointers: int,
    n_bits: int,
    samples: int = checkers.DEFAULT_SAMPLES,
) -> SchemeSpec:
    form = formation(a_size, b_size, n_bits)
    return SchemeSpec(
        key=f"aegis-rw-p-{a_size}x{b_size}-p{pointers}",
        label=f"Aegis-rw-p {a_size}x{b_size} (p={pointers})",
        n_bits=n_bits,
        overhead_bits=form.aegis_rw_p_overhead_bits(pointers),
        make_checker=partial(checkers.AegisRwPChecker, form.rect, pointers, samples=samples),
        make_controller=partial(AegisRwPScheme, formation=form, pointers=pointers),
        inversion_wear=False,
    )


def ecp_spec(pointers: int, n_bits: int) -> SchemeSpec:
    return SchemeSpec(
        key=f"ecp{pointers}",
        label=f"ECP{pointers}",
        n_bits=n_bits,
        overhead_bits=ecp_cost_for_ftc(pointers, n_bits),
        make_checker=partial(_static, checkers.EcpChecker, pointers),
        make_controller=partial(EcpScheme, pointers=pointers),
        inversion_wear=False,
        make_batch=partial(kernels.EcpBatch, pointers, n_bits),
    )


def safer_spec(group_count: int, n_bits: int, policy: str = "incremental") -> SchemeSpec:
    """SAFER-N.  The default ``incremental`` policy is the paper-faithful
    grow-only partition vector; ``exhaustive`` is the generous upper bound
    (see the policy ablation benchmark)."""
    check_policy(policy)
    suffix = "" if policy == "incremental" else "-exh"
    if policy == "exhaustive":
        checker_type, batch_type = checkers.SaferChecker, kernels.SaferExhaustiveBatch
    else:
        checker_type, batch_type = checkers.SaferIncrementalChecker, kernels.SaferIncrementalBatch
    return SchemeSpec(
        key=f"safer{group_count}{suffix}",
        label=f"SAFER{group_count}{suffix}",
        n_bits=n_bits,
        overhead_bits=safer_cost(group_count, n_bits),
        make_checker=partial(_static, checker_type, n_bits, group_count),
        make_controller=partial(SaferScheme, group_count=group_count, policy=policy),
        inversion_wear=True,
        make_batch=partial(batch_type, group_count, n_bits),
    )


def safer_cache_spec(
    group_count: int, n_bits: int, samples: int = checkers.DEFAULT_SAMPLES
) -> SchemeSpec:
    return SchemeSpec(
        key=f"safer{group_count}-cache",
        label=f"SAFER{group_count}-cache",
        n_bits=n_bits,
        overhead_bits=safer_cost(group_count, n_bits),
        make_checker=partial(checkers.SaferCacheChecker, n_bits, group_count, samples=samples),
        make_controller=partial(SaferCacheScheme, group_count=group_count),
        inversion_wear=False,
    )


def rdis_spec(
    n_bits: int, depth: int = 3, samples: int = checkers.DEFAULT_SAMPLES
) -> SchemeSpec:
    rows, cols = rdis_dimensions(n_bits)
    return SchemeSpec(
        key=f"rdis-{depth}",
        label=f"RDIS-{depth}",
        n_bits=n_bits,
        overhead_bits=rdis_cost(n_bits, depth),
        make_checker=partial(checkers.RdisChecker, n_bits, rows, cols, depth, samples=samples),
        make_controller=partial(RdisScheme, depth=depth),
        inversion_wear=False,
    )


def hamming_spec(n_bits: int) -> SchemeSpec:
    return SchemeSpec(
        key="hamming",
        label="Hamming(72,64)",
        n_bits=n_bits,
        overhead_bits=hamming_cost(n_bits),
        make_checker=partial(_static, checkers.HammingChecker, n_bits),
        make_controller=HammingScheme,
        inversion_wear=False,
    )


def no_protection_spec(n_bits: int) -> SchemeSpec:
    return SchemeSpec(
        key="none",
        label="None",
        n_bits=n_bits,
        overhead_bits=0,
        make_checker=partial(_static, checkers.NoProtectionChecker),
        make_controller=NoProtectionScheme,
        inversion_wear=False,
    )


def aegis_dynamic_spec(
    a_size: int, b_size: int, n_bits: int, samples: int = 32
) -> SchemeSpec:
    """Ablation spec: plain Aegis under the sampled dynamic-closure
    criterion instead of the static all-faults-separable cut."""
    form = formation(a_size, b_size, n_bits)
    return SchemeSpec(
        key=f"aegis-dyn-{a_size}x{b_size}",
        label=f"Aegis {a_size}x{b_size} (dynamic)",
        n_bits=n_bits,
        overhead_bits=form.aegis_overhead_bits,
        make_checker=partial(checkers.AegisDynamicChecker, form.rect, samples=samples),
        make_controller=partial(AegisScheme, formation=form),
        inversion_wear=True,
    )


# ---------------------------------------------------------------------------
# The paper's figure rosters
# ---------------------------------------------------------------------------


def figure5_roster(n_bits: int) -> list[SchemeSpec]:
    """Schemes compared in Figures 5-7 for one block size."""
    specs = [
        ecp_spec(4, n_bits),
        ecp_spec(5, n_bits),
        ecp_spec(6, n_bits),
        rdis_spec(n_bits),
        safer_spec(32, n_bits),
        safer_spec(64, n_bits),
    ]
    if n_bits == 512:
        specs.append(safer_spec(128, n_bits))
        specs += [
            aegis_spec(23, 23, n_bits),
            aegis_spec(17, 31, n_bits),
            aegis_spec(9, 61, n_bits),
        ]
    elif n_bits == 256:
        specs += [
            aegis_spec(16, 17, n_bits),
            aegis_spec(12, 23, n_bits),
            aegis_spec(9, 31, n_bits),
        ]
    else:
        raise ValueError(f"no figure roster for {n_bits}-bit blocks")
    return specs


def figure8_roster(n_bits: int = 512) -> list[SchemeSpec]:
    """Schemes whose block-failure-probability curves Figure 8 plots."""
    return [
        ecp_spec(6, n_bits),
        safer_spec(64, n_bits),
        safer_spec(128, n_bits),
        safer_cache_spec(64, n_bits),
        safer_cache_spec(128, n_bits),
        rdis_spec(n_bits),
        aegis_spec(17, 31, n_bits),
        aegis_spec(9, 61, n_bits),
    ]


def figure9_roster(n_bits: int = 512) -> list[SchemeSpec]:
    """Schemes in the Figure 9 survival-curve comparison."""
    return [
        no_protection_spec(n_bits),
        ecp_spec(6, n_bits),
        safer_spec(32, n_bits),
        safer_cache_spec(32, n_bits),
        safer_spec(64, n_bits),
        safer_spec(128, n_bits),
        safer_cache_spec(128, n_bits),
        aegis_spec(17, 31, n_bits),
        aegis_spec(9, 61, n_bits),
    ]


#: the representative Aegis-rw-p configurations of §3.3
RW_P_CHOICES = ((23, 23, 4), (17, 31, 5), (9, 61, 9), (8, 71, 9))


def variants_roster(n_bits: int = 512) -> list[SchemeSpec]:
    """Aegis vs Aegis-rw vs Aegis-rw-p (Figures 11-13)."""
    specs: list[SchemeSpec] = []
    for a_size, b_size, pointers in RW_P_CHOICES:
        specs.append(aegis_spec(a_size, b_size, n_bits))
        specs.append(aegis_rw_spec(a_size, b_size, n_bits))
        specs.append(aegis_rw_p_spec(a_size, b_size, pointers, n_bits))
    return specs
