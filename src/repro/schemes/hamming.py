"""(72, 64) extended Hamming SEC-DED code — the paper's ECC reference.

The paper uses the 12.5% overhead of the (72, 64) Hamming code, "the most
popular ECC scheme", as the space budget any recovery scheme should respect
(§3.2, Figure 6 discussion).  This module implements the code bit-accurately
— a full encoder and a syndrome decoder with single-error correction and
double-error detection — plus a block-level :class:`HammingScheme` that
protects each 64-bit word of a data block with its own 8 check bits.

Against *stuck-at* faults (rather than the transient flips the code was
designed for), SEC-DED corrects at most one stuck-at-wrong cell per word at
read time, and a word holding two wrong cells is lost; this is exactly why
the paper dismisses ECC for PCM and why the scheme makes an instructive
baseline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.base import RecoveryScheme, WriteReceipt

DATA_BITS = 64
CHECK_BITS = 8
CODE_BITS = DATA_BITS + CHECK_BITS


def _build_parity_matrix() -> np.ndarray:
    """Parity-check matrix H (8 x 72) of the extended Hamming code.

    Columns 0..63 carry data bits: the 64 seven-bit non-power-of-two values
    in [3, 127] (each with >= 2 set bits), extended with an overall parity
    row.  Columns 64..71 carry the check bits (identity + parity row).
    """
    data_columns = [v for v in range(3, 128) if v.bit_count() >= 2][:DATA_BITS]
    if len(data_columns) != DATA_BITS:
        raise AssertionError("not enough Hamming columns")  # pragma: no cover
    h = np.zeros((CHECK_BITS, CODE_BITS), dtype=np.uint8)
    for j, value in enumerate(data_columns):
        for row in range(7):
            h[row, j] = (value >> row) & 1
    for row in range(7):
        h[row, DATA_BITS + row] = 1
    h[7, :] = 1  # overall parity row makes the code SEC-DED
    h[7, DATA_BITS + 7] = 1
    return h


_H = _build_parity_matrix()
#: syndrome (as packed int) -> codeword bit position, for single-bit errors
_SYNDROME_TO_BIT = {
    int(np.packbits(_H[:, j], bitorder="little")[0]): j for j in range(CODE_BITS)
}


def encode(data: np.ndarray) -> np.ndarray:
    """Encode 64 data bits into a 72-bit codeword (data bits first)."""
    data = np.asarray(data, dtype=np.uint8)
    if data.shape != (DATA_BITS,):
        raise ValueError(f"encode expects {DATA_BITS} bits, got {data.shape}")
    code = np.zeros(CODE_BITS, dtype=np.uint8)
    code[:DATA_BITS] = data
    # solve the identity part: check bits = H_data @ data (mod 2)
    checks = (_H[:7, :DATA_BITS] @ data) % 2
    code[DATA_BITS : DATA_BITS + 7] = checks
    code[DATA_BITS + 7] = (int(code[: DATA_BITS + 7].sum()) % 2)
    return code


def decode(codeword: np.ndarray) -> tuple[np.ndarray, int]:
    """Decode a 72-bit word; returns ``(data, errors_corrected)``.

    Raises :class:`UncorrectableError` on a detected double error.
    """
    codeword = np.asarray(codeword, dtype=np.uint8)
    if codeword.shape != (CODE_BITS,):
        raise ValueError(f"decode expects {CODE_BITS} bits, got {codeword.shape}")
    syndrome = (_H @ codeword) % 2
    packed = int(np.packbits(syndrome, bitorder="little")[0])
    if packed == 0:
        return codeword[:DATA_BITS].copy(), 0
    overall_parity = syndrome[7]
    if not overall_parity:
        raise UncorrectableError("Hamming(72,64): double error detected")
    position = _SYNDROME_TO_BIT.get(packed)
    if position is None:
        raise UncorrectableError("Hamming(72,64): uncorrectable syndrome")
    corrected = codeword.copy()
    corrected[position] ^= 1
    return corrected[:DATA_BITS].copy(), 1


class HammingScheme(RecoveryScheme):
    """Per-word (72, 64) SEC-DED over a block.

    Check bits live in a side cell array (which may itself carry faults when
    constructed with ``fragile_checks=True``).
    """

    def __init__(self, cells: CellArray, *, fragile_checks: bool = False) -> None:
        super().__init__(cells)
        if cells.n_bits % DATA_BITS:
            raise ConfigurationError(
                f"Hamming scheme needs a multiple of {DATA_BITS} bits, got {cells.n_bits}"
            )
        self.words = cells.n_bits // DATA_BITS
        self._checks = CellArray(
            self.words * CHECK_BITS, differential_writes=cells.differential_writes
        )
        self.fragile_checks = fragile_checks

    @property
    def name(self) -> str:
        return "Hamming(72,64)"

    @property
    def overhead_bits(self) -> int:
        return self.words * CHECK_BITS

    @property
    def hard_ftc(self) -> int:
        return 1  # one fault per block is always safe (it lands in one word)

    def _encode_write(self, data: np.ndarray) -> WriteReceipt:
        receipt = WriteReceipt()
        check_image = np.zeros(self.words * CHECK_BITS, dtype=np.uint8)
        for w in range(self.words):
            word = data[w * DATA_BITS : (w + 1) * DATA_BITS]
            code = encode(word)
            check_image[w * CHECK_BITS : (w + 1) * CHECK_BITS] = code[DATA_BITS:]
        receipt.cell_writes += self.cells.write(data)
        receipt.cell_writes += self._checks.write(check_image)
        receipt.verification_reads += 1
        # a write is serviceable iff every word decodes back to its data
        stored = self.cells.read()
        stored_checks = self._checks.read()
        for w in range(self.words):
            codeword = np.concatenate(
                [
                    stored[w * DATA_BITS : (w + 1) * DATA_BITS],
                    stored_checks[w * CHECK_BITS : (w + 1) * CHECK_BITS],
                ]
            )
            try:
                decoded, _ = decode(codeword)
            except UncorrectableError as exc:
                raise UncorrectableError(
                    f"{self.name}: word {w} unrecoverable ({exc})"
                ) from exc
            if not np.array_equal(decoded, data[w * DATA_BITS : (w + 1) * DATA_BITS]):
                raise UncorrectableError(f"{self.name}: word {w} miscorrected")
        return receipt

    def read(self) -> np.ndarray:
        stored = self.cells.read()
        stored_checks = self._checks.read()
        out = np.zeros(self.cells.n_bits, dtype=np.uint8)
        for w in range(self.words):
            codeword = np.concatenate(
                [
                    stored[w * DATA_BITS : (w + 1) * DATA_BITS],
                    stored_checks[w * CHECK_BITS : (w + 1) * CHECK_BITS],
                ]
            )
            decoded, _ = decode(codeword)
            out[w * DATA_BITS : (w + 1) * DATA_BITS] = decoded
        return out
