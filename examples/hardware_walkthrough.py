"""Hardware walkthrough: the paper's Figures 2, 3 and 4, reproduced on the
32-bit / 5x7 example the paper itself uses.

Prints the Cartesian partition under two slopes (Figure 2), exercises the
group-ID lookup ROM (Figure 3) and the inversion-mask ROM (Figure 4), and
sizes the Aegis-rw collision ROM (§2.4).

Run:  python examples/hardware_walkthrough.py
"""

import numpy as np

from repro.core.collision import NO_COLLISION, collision_rom_for
from repro.core.formations import formation
from repro.core.geometry import rectangle_for
from repro.core.partition import partition_for
from repro.hardware import GroupIdRom, InversionMaskRom, chip_cost

GLYPHS = "0123456"


def draw_partition(rect, slope: int) -> str:
    """ASCII rendering of the rectangle; each cell shows its group ID."""
    lines = []
    for b in reversed(range(rect.b_size)):  # top row first, like the figure
        row = []
        for a in range(rect.a_size):
            offset = rect.offset_of(a, b)
            row.append("." if offset is None else GLYPHS[rect.group_of(offset, slope)])
        lines.append(" ".join(row))
    return "\n".join(lines)


def main() -> None:
    rect = rectangle_for(32, 7)
    print("=== Figure 2: a 32-bit block in a 5x7 rectangle ===")
    for slope in (0, 1):
        print(f"\nslope k = {slope} (dots are the three unmapped positions):")
        print(draw_partition(rect, slope))
    print("\nany two bits sharing a symbol above share a group; change the"
          "\nslope and no pair ever shares a group twice (Theorem 2).")

    print("\n=== Figure 3: the group-ID lookup ROM ===")
    rom = GroupIdRom(rect)
    print(f"membership ROM: {rom.membership.shape[0]} x {rom.membership.shape[1]} bits "
          f"(the paper's 49 x 32), ID ROM: 49 x 7")
    for address, slope in [(13, 0), (13, 3), (27, 5)]:
        print(f"  fault at address {address:2d}, slope {slope} -> group "
              f"{rom.lookup(address, slope)}")

    print("\n=== Figure 4: the inversion-mask ROM ===")
    mask_rom = InversionMaskRom(rect)
    vector = np.zeros(7, dtype=np.uint8)
    vector[[2, 5]] = 1  # groups 2 and 5 are stored inverted
    mask = mask_rom.mask_for(1, vector)
    partition = partition_for(rect)
    print(f"slope 1, inversion vector {vector.tolist()}")
    print(f"  -> invert bits {sorted(int(b) for b in np.flatnonzero(mask))}")
    expected = sorted(
        int(b) for b in np.flatnonzero(partition.members_mask(1, [2, 5]))
    )
    print(f"  (arithmetic check: {expected})")

    print("\n=== §2.4: the Aegis-rw collision ROM ===")
    collision = collision_rom_for(rect)
    print(f"for the 5x7 example: {collision.storage_bits} bits")
    for o1, o2 in [(0, 1), (0, 5), (3, 19)]:
        slope = collision.slope_of(o1, o2)
        where = (
            "never collide (same column)" if slope == NO_COLLISION
            else f"collide only on slope {slope}"
        )
        print(f"  bits {o1:2d} and {o2:2d}: {where}")

    print("\n=== chip-shared cost for a production formation (Aegis 9x61) ===")
    cost = chip_cost(formation(9, 61, 512))
    print(f"membership ROM {cost.group_rom_bits} b + ID ROM {cost.id_rom_bits} b "
          f"+ {cost.and_gates} AND gates; Aegis-rw adds a "
          f"{cost.collision_rom_bits} b collision ROM")
    print("these structures are shared by every block on the chip — the"
          "\nper-block cost stays the 67 bits of Table 1.")


if __name__ == "__main__":
    main()
