"""The OS tier above in-chip recovery: PAYG pooling, FREE-p spare blocks,
and dynamic page pairing, composed with Aegis.

The paper's §1.1/§4 argue that OS-level mechanisms are complements — not
substitutes — for strong in-chip recovery.  This example walks the three
mechanisms this library implements:

1. PAYG: pay for Aegis metadata only where faults actually appear;
2. FREE-p: remap exhausted blocks to spares;
3. Dynamic pairing: fuse dead pages with disjoint failed blocks.

Run:  python examples/os_tier.py
"""

from repro.core.formations import formation
from repro.pairing.sim import pairing_study
from repro.payg.sim import payg_page_study
from repro.remap.sim import remap_page_study
from repro.sim.roster import aegis_spec, ecp_spec


def main() -> None:
    form = formation(17, 31, 512)

    print("=== PAYG: Aegis metadata allocated on demand (16-block pages) ===")
    for fraction in (0.25, 0.5, 1.0):
        pool = max(1, round(fraction * 16))
        result = payg_page_study(
            form, pool_entries=pool, blocks_per_page=16, n_pages=16, seed=1
        )
        print(f"  pool {fraction:>4.0%}: {result.overhead_bits_per_block:5.1f} avg "
              f"bits/block -> {result.faults.mean:6.1f} faults/page "
              f"({result.pool_exhaustion_deaths} pool-exhaustion deaths)")
    print("  under run-to-death horizons most blocks eventually need the pool;"
          "\n  PAYG pays off at early-life horizons where few do.\n")

    print("=== FREE-p: spare blocks vs in-chip strength ===")
    for spec in (ecp_spec(6, 512), aegis_spec(17, 31, 512)):
        for spares in (0, 4):
            result = remap_page_study(
                spec, spares=spares, blocks_per_page=16, n_pages=16, seed=2
            )
            print(f"  {spec.label:12s} +{spares} spares: lifetime "
                  f"{result.lifetime.mean:.4g}, {result.faults.mean:.1f} faults recovered")
    print("  bare Aegis outlives spare-padded ECP6: strong in-chip recovery"
          "\n  delays redirection (the paper's §4 FREE-p remark).\n")

    print("=== Dynamic pairing: reclaiming dead pages ===")
    for spec in (ecp_spec(2, 512), aegis_spec(17, 31, 512)):
        study = pairing_study(spec, n_pages=24, blocks_per_page=16, seed=3)
        first_loss = next(
            (age for age, frac in zip(study.ages, study.usable_without) if frac < 1.0),
            study.ages[-1],
        )
        print(f"  {spec.label:12s}: first page lost at age {first_loss:.3g}, "
              f"peak pairing gain {study.peak_gain:.0%}")
    print("  pairing reclaims capacity in the failure tail for both, but the"
          "\n  stronger scheme pushes the whole failure window out — in-chip"
          "\n  recovery first, OS tricks second (§1.1).")


if __name__ == "__main__":
    main()
