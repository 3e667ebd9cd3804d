"""Hardware cost accounting beyond the per-block Table 1 bits.

Separates the two kinds of cost the paper discusses:

* **per-block** metadata (slope counter, inversion vector / pointers) —
  Table 1, already covered by :mod:`repro.core.formations`;
* **chip-shared** structures (the Figure 3/4 ROMs, the Aegis-rw collision
  ROM, SAFER's fail cache) whose cost amortises over every block and is
  therefore excluded from Table 1 — but matters when comparing variants,
  which is why the paper concludes plain Aegis "is likely more efficient"
  once the fail cache is priced in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.formations import Formation
from repro.util.bitops import ceil_log2


@dataclass(frozen=True)
class ChipCost:
    """Chip-shared hardware for one Aegis formation."""

    formation_name: str
    group_rom_bits: int
    id_rom_bits: int
    and_gates: int
    collision_rom_bits: int


def chip_cost(form: Formation) -> ChipCost:
    """Chip-shared structure sizes for a formation (cf. the paper's 49x32
    and 49x7 ROMs for the 5x7 example)."""
    b = form.b_size
    n = form.n_bits
    return ChipCost(
        formation_name=form.name,
        group_rom_bits=b * b * n,
        id_rom_bits=b * b * b,
        and_gates=b * b,
        collision_rom_bits=n * n * ceil_log2(b),
    )
