"""Bit-vector helpers shared across schemes and the PCM device model.

Data blocks are represented in two interchangeable forms throughout the
library:

* a numpy ``uint8`` array of 0/1 values (the device model's native form,
  convenient for vectorised fault masking), and
* a Python ``int`` bit-mask (convenient for set-like manipulation in the
  recovery schemes, e.g. "which bits belong to group ``y``").

These helpers convert between the two and implement the handful of bit
tricks the schemes need.
"""

from __future__ import annotations

import numpy as np


def bits_to_int(bits: np.ndarray) -> int:
    """Pack an array of 0/1 values into an int, bit ``i`` of the result
    holding ``bits[i]``.

    >>> import numpy as np
    >>> bits_to_int(np.array([1, 0, 1], dtype=np.uint8))
    5
    """
    packed = np.packbits(np.asarray(bits).astype(bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Unpack ``value`` into a ``uint8`` array of ``width`` 0/1 entries.

    >>> int_to_bits(5, 4)
    array([1, 0, 1, 0], dtype=uint8)
    """
    if value < 0:
        raise ValueError("bit-mask values must be non-negative")
    if value >> width:
        raise ValueError(f"value does not fit in {width} bits")
    if width == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = value.to_bytes((width + 7) // 8, "little")
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), count=width, bitorder="little"
    )


def offsets_from_mask(mask: int) -> list[int]:
    """Return the sorted list of set-bit offsets of an int bit-mask.

    >>> offsets_from_mask(0b1011)
    [0, 1, 3]
    """
    offsets = []
    index = 0
    while mask:
        if mask & 1:
            offsets.append(index)
        mask >>= 1
        index += 1
    return offsets


def ceil_log2(n: int) -> int:
    """``ceil(log2(n))`` for positive ``n``; 0 when ``n == 1``.

    This is the paper's sizing function for counters and pointers.

    >>> [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)]
    [0, 1, 2, 2, 3, 3, 4]
    """
    if n <= 0:
        raise ValueError("ceil_log2 requires a positive argument")
    return (n - 1).bit_length()
