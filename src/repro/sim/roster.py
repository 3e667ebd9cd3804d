"""Scheme specifications: one object per evaluated configuration.

A :class:`SchemeSpec` bundles everything the simulators and experiment
drivers need to evaluate one scheme configuration:

* the display ``label`` used in the paper's figures,
* the per-block ``overhead_bits`` (printed above the paper's bars),
* a factory for the fast Monte Carlo :class:`~repro.sim.checkers.BlockChecker`,
* a factory for the bit-accurate controller (for cross-validation and the
  slow device model), and
* whether the scheme performs extra *inversion writes* on fault-containing
  groups (true for the cache-less partition schemes; this drives the wear
  amplification model, DESIGN.md §4).

Both factories are :func:`functools.partial` bindings of module-level
functions (never lambdas or closures) so that a spec — and therefore a
whole simulation task — can be pickled across the process boundary of
:mod:`repro.sim.parallel`.

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
from repro.core.formations import Formation, formation, rdis_cost, safer_cost
from repro.pcm.cell import CellArray
from repro.schemes.base import RecoveryScheme
from repro.schemes.ecp import EcpScheme
from repro.schemes.hamming import HammingScheme
from repro.schemes.ideal import NoProtectionScheme
from repro.schemes.rdis import RdisScheme
from repro.schemes.safer import SaferCacheScheme, SaferScheme, check_policy
from repro.sim import checkers
from repro.sim.rng import BitSource
from repro.core.formations import ecp_cost_for_ftc, hamming_cost, rdis_dimensions

CheckerFactory = Callable[[BitSource], object]
ControllerFactory = Callable[[CellArray], RecoveryScheme]


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
    #: declarative batch-kernel tag consumed by :mod:`repro.sim.kernels`
    #: (``None`` for sampled schemes, which always run the scalar path)
    kernel: tuple[object, ...] | None = None

    @property
    def overhead_fraction(self) -> float:
        """Overhead relative to the data block (the paper quotes e.g. 13%
        for Aegis 9x61)."""
        return self.overhead_bits / self.n_bits


# ---------------------------------------------------------------------------
# Picklable factory targets (bound with functools.partial by the spec
# constructors below; module-level so the bindings survive pickling)
# ---------------------------------------------------------------------------


def _aegis_checker(form: Formation, bits: BitSource) -> object:
    return checkers.AegisChecker(form.rect)


def _aegis_rw_checker(
    form: Formation, samples: int, bits: BitSource
) -> object:
    return checkers.AegisRwChecker(form.rect, bits, samples)


def _aegis_rw_p_checker(
    form: Formation, pointers: int, samples: int, bits: BitSource
) -> object:
    return checkers.AegisRwPChecker(form.rect, pointers, bits, samples)


def _aegis_dynamic_checker(
    form: Formation, samples: int, bits: BitSource
) -> object:
    return checkers.AegisDynamicChecker(form.rect, bits, samples)


def _ecp_checker(pointers: int, bits: BitSource) -> object:
    return checkers.EcpChecker(pointers)


def _safer_exhaustive_checker(
    n_bits: int, group_count: int, bits: BitSource
) -> object:
    return checkers.SaferChecker(n_bits, group_count)


def _safer_incremental_checker(
    n_bits: int, group_count: int, bits: BitSource
) -> object:
    return checkers.SaferIncrementalChecker(n_bits, group_count)


def _safer_cache_checker(
    n_bits: int, group_count: int, samples: int, bits: BitSource
) -> object:
    return checkers.SaferCacheChecker(n_bits, group_count, bits, samples)


def _rdis_checker(
    n_bits: int, rows: int, cols: int, depth: int, samples: int,
    bits: BitSource,
) -> object:
    return checkers.RdisChecker(n_bits, rows, cols, depth, bits, samples)


def _hamming_checker(n_bits: int, bits: BitSource) -> object:
    return checkers.HammingChecker(n_bits, bits)


def _no_protection_checker(bits: BitSource) -> object:
    return checkers.NoProtectionChecker()


def _aegis_controller(form: Formation, cells: CellArray) -> RecoveryScheme:
    return AegisScheme(cells, form)


def _aegis_rw_controller(form: Formation, cells: CellArray) -> RecoveryScheme:
    return AegisRwScheme(cells, form)


def _aegis_rw_p_controller(
    form: Formation, pointers: int, cells: CellArray
) -> RecoveryScheme:
    return AegisRwPScheme(cells, form, pointers)


def _ecp_controller(pointers: int, cells: CellArray) -> RecoveryScheme:
    return EcpScheme(cells, pointers)


def _safer_controller(
    group_count: int, policy: str, cells: CellArray
) -> RecoveryScheme:
    return SaferScheme(cells, group_count, policy=policy)


def _safer_cache_controller(group_count: int, cells: CellArray) -> RecoveryScheme:
    return SaferCacheScheme(cells, group_count)


def _rdis_controller(depth: int, cells: CellArray) -> RecoveryScheme:
    return RdisScheme(cells, depth)


def _hamming_controller(cells: CellArray) -> RecoveryScheme:
    return HammingScheme(cells)


def _no_protection_controller(cells: CellArray) -> RecoveryScheme:
    return NoProtectionScheme(cells)


# ---------------------------------------------------------------------------
# Spec constructors
# ---------------------------------------------------------------------------


def aegis_spec(a_size: int, b_size: int, n_bits: int) -> SchemeSpec:
    form = formation(a_size, b_size, n_bits)
    return SchemeSpec(
        key=f"aegis-{a_size}x{b_size}",
        label=f"Aegis {a_size}x{b_size}",
        n_bits=n_bits,
        overhead_bits=form.aegis_overhead_bits,
        make_checker=partial(_aegis_checker, form),
        make_controller=partial(_aegis_controller, form),
        inversion_wear=True,
        kernel=("aegis", a_size, b_size),
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
        make_checker=partial(_aegis_rw_checker, form, samples),
        make_controller=partial(_aegis_rw_controller, form),
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
        make_checker=partial(_aegis_rw_p_checker, form, pointers, samples),
        make_controller=partial(_aegis_rw_p_controller, form, pointers),
        inversion_wear=False,
    )


def ecp_spec(pointers: int, n_bits: int) -> SchemeSpec:
    return SchemeSpec(
        key=f"ecp{pointers}",
        label=f"ECP{pointers}",
        n_bits=n_bits,
        overhead_bits=ecp_cost_for_ftc(pointers, n_bits),
        make_checker=partial(_ecp_checker, pointers),
        make_controller=partial(_ecp_controller, pointers),
        inversion_wear=False,
        kernel=("ecp", pointers),
    )


def safer_spec(group_count: int, n_bits: int, policy: str = "incremental") -> SchemeSpec:
    """SAFER-N.  The default ``incremental`` policy is the paper-faithful
    grow-only partition vector; ``exhaustive`` is the generous upper bound
    (see the policy ablation benchmark)."""
    check_policy(policy)
    suffix = "" if policy == "incremental" else "-exh"
    if policy == "exhaustive":
        checker_factory = partial(_safer_exhaustive_checker, n_bits, group_count)
    else:
        checker_factory = partial(_safer_incremental_checker, n_bits, group_count)
    return SchemeSpec(
        key=f"safer{group_count}{suffix}",
        label=f"SAFER{group_count}{suffix}",
        n_bits=n_bits,
        overhead_bits=safer_cost(group_count, n_bits),
        make_checker=checker_factory,
        make_controller=partial(_safer_controller, group_count, policy),
        inversion_wear=True,
        kernel=(f"safer-{policy}", group_count),
    )


def safer_cache_spec(
    group_count: int, n_bits: int, samples: int = checkers.DEFAULT_SAMPLES
) -> SchemeSpec:
    return SchemeSpec(
        key=f"safer{group_count}-cache",
        label=f"SAFER{group_count}-cache",
        n_bits=n_bits,
        overhead_bits=safer_cost(group_count, n_bits),
        make_checker=partial(_safer_cache_checker, n_bits, group_count, samples),
        make_controller=partial(_safer_cache_controller, group_count),
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
        make_checker=partial(_rdis_checker, n_bits, rows, cols, depth, samples),
        make_controller=partial(_rdis_controller, depth),
        inversion_wear=False,
    )


def hamming_spec(n_bits: int) -> SchemeSpec:
    return SchemeSpec(
        key="hamming",
        label="Hamming(72,64)",
        n_bits=n_bits,
        overhead_bits=hamming_cost(n_bits),
        make_checker=partial(_hamming_checker, n_bits),
        make_controller=_hamming_controller,
        inversion_wear=False,
    )


def no_protection_spec(n_bits: int) -> SchemeSpec:
    return SchemeSpec(
        key="none",
        label="None",
        n_bits=n_bits,
        overhead_bits=0,
        make_checker=_no_protection_checker,
        make_controller=_no_protection_controller,
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
        make_checker=partial(_aegis_dynamic_checker, form, samples),
        make_controller=partial(_aegis_controller, form),
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
