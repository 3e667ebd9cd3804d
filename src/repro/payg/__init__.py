"""PAYG — the Pay-As-You-Go error-correction framework (extension).

The paper's related-work section (§4) observes that cell lifetime is highly
variable, so spending a full Aegis metadata budget on *every* block wastes
space on the many blocks that die with few faults, and points to Qureshi's
PAYG framework (MICRO 2011) as the remedy: a tiny Local Error Correction
(LEC) entry per block plus a shared Global Error Correction (GEC) pool,
allocated on demand.  "As PAYG is a framework that can employ any error
correction scheme in its GEC component, Aegis complements PAYG with its
strong fault tolerance capability and its space efficiency."

This package evaluates that composition with
:func:`~repro.payg.sim.payg_page_study` (Monte Carlo), with Aegis as the
GEC scheme.
"""

from repro.payg.payg import GecPool, payg_overhead_bits
from repro.payg.sim import PaygPageResult, payg_page_study

__all__ = [
    "GecPool",
    "PaygPageResult",
    "payg_overhead_bits",
    "payg_page_study",
]
