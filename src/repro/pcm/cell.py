"""Bit-accurate model of a row of PCM cells with stuck-at faults.

A :class:`CellArray` is the raw storage substrate every recovery scheme
drives.  Each cell stores one bit; a cell may be *stuck-at* 0 or 1, in which
case reads always return the stuck value and writes to it are silently
ineffective (paper §1: "its stuck-at value is still readable but cannot be
changed").

The array also does the wear bookkeeping the paper's evaluation relies on:

* every *actual* cell write (a write whose value differs from the stored
  value, after differential-write filtering) increments that cell's write
  counter, and
* the total write counter feeds the Monte Carlo lifetime model.

The array itself never decides *when* a cell fails — fault injection is
driven from outside (by tests or by the lifetime model in
:mod:`repro.pcm.lifetime`) through :meth:`CellArray.inject_fault`.

*How* a cell fails is delegated to a pluggable
:class:`~repro.pcm.faults.FaultModel`: the default
:class:`~repro.pcm.faults.HardStuckAt` keeps the paper's semantics
byte-identical, while richer models (partially stuck, drift bursts) can
mark injected faults as *partial* — still readable, maskable at low cost.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.pcm.faults import FaultModel, fault_model_for


class CellRows(NamedTuple):
    """The per-cell arrays a :class:`CellArray` keeps its state in."""

    stored: np.ndarray
    stuck: np.ndarray
    stuck_value: np.ndarray
    partial: np.ndarray
    write_counts: np.ndarray


class CellArray:
    """A fixed-width row of PCM cells supporting stuck-at faults.

    Parameters
    ----------
    n_bits:
        Number of cells.
    differential_writes:
        When ``True`` (the default, matching the paper's setup §3.1), a
        write only programs cells whose stored value differs from the new
        value, and only those cells accrue wear.
    fault_model:
        A :class:`~repro.pcm.faults.FaultModel` (or its registry name)
        governing injection and verification semantics.  Defaults to the
        paper's hard stuck-at model.
    rows:
        Pristine caller-owned :class:`CellRows` of width ``n_bits`` (rows
        of a columnar store), mutated strictly in place; by default the
        array allocates its own.
    """

    def __init__(
        self,
        n_bits: int,
        *,
        differential_writes: bool = True,
        fault_model: "FaultModel | str | None" = None,
        rows: CellRows | None = None,
    ) -> None:
        if n_bits <= 0:
            raise ConfigurationError("a cell array needs a positive number of cells")
        if rows is None:
            rows = CellRows(
                np.zeros(n_bits, dtype=np.uint8),
                np.zeros(n_bits, dtype=bool),
                np.zeros(n_bits, dtype=np.uint8),
                np.zeros(n_bits, dtype=bool),
                np.zeros(n_bits, dtype=np.int64),
            )
        self.n_bits = n_bits
        self.differential_writes = differential_writes
        self.fault_model = fault_model_for(fault_model)
        self._stored, self._stuck, self._stuck_value, self._partial, self._write_counts = rows

    # -- fault management ---------------------------------------------------

    def inject_fault(
        self,
        offset: int,
        stuck_value: int | None = None,
        *,
        partial: bool = False,
    ) -> None:
        """Make the cell at ``offset`` permanently stuck (delegated to the
        array's fault model).

        When ``stuck_value`` is ``None`` the cell freezes at its currently
        stored value — the physically faithful behaviour: a cell dies during
        a write and keeps the last value it held.  ``partial=True`` injects
        a partially-stuck fault, which only models with partial semantics
        accept.  Raises :class:`~repro.errors.FaultInjectionError` for an
        out-of-range offset, a non-bit stuck value, or an already-stuck
        cell.
        """
        self.fault_model.inject(self, offset, stuck_value, partial=partial)

    @property
    def fault_offsets(self) -> list[int]:
        """Offsets of stuck cells, sorted (oracle view, used by tests and
        by cache-assisted schemes via the fail cache)."""
        return [int(i) for i in np.flatnonzero(self._stuck)]

    @property
    def fault_count(self) -> int:
        return int(np.count_nonzero(self._stuck))

    @property
    def maskable_offsets(self) -> list[int]:
        """Stuck offsets the fault model lets a scheme mask at negligible
        cost (partially stuck cells); empty under the hard model."""
        return self.fault_model.maskable_offsets(self)

    def stuck_value_of(self, offset: int) -> int:
        """Stuck-at value of a faulty cell (oracle view)."""
        if not self._stuck[offset]:
            raise ValueError(f"cell {offset} is not stuck")
        return int(self._stuck_value[offset])

    # -- data path ------------------------------------------------------------

    def read(self) -> np.ndarray:
        """Raw read of all cells (stuck cells return their stuck value)."""
        return self._stored.copy()

    def write(self, data: np.ndarray, mask: np.ndarray | None = None) -> int:
        """Program cells with ``data`` (0/1 array of width ``n_bits``).

        ``mask`` optionally restricts the write to a subset of cells (1 =
        write).  Stuck cells silently retain their stuck value.  Returns the
        number of cells actually programmed (the wear incurred).
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.n_bits,):
            raise ValueError(f"data must have shape ({self.n_bits},), got {data.shape}")
        target = np.ones(self.n_bits, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if target.shape != (self.n_bits,):
            raise ValueError(f"mask must have shape ({self.n_bits},)")
        if self.differential_writes:
            programmed = target & (self._stored != data)
        else:
            programmed = target
        healthy = programmed & ~self._stuck
        self._stored[healthy] = data[healthy]
        self._write_counts[programmed] += 1
        return int(np.count_nonzero(programmed))

    def verify(self, expected: np.ndarray) -> np.ndarray:
        """Verification read (paper §2.2): offsets where the stored value
        disagrees with ``expected``.  With current faults these are exactly
        the stuck-at-*wrong* cells for that data.  Mismatch semantics are
        delegated to the array's fault model."""
        expected = np.asarray(expected, dtype=np.uint8)
        if expected.shape != (self.n_bits,):
            raise ValueError(f"expected must have shape ({self.n_bits},)")
        return self.fault_model.mismatch_offsets(self, expected)

    # -- wear accounting -------------------------------------------------------

    @property
    def write_counts(self) -> np.ndarray:
        """Per-cell count of actual programming operations."""
        return self._write_counts.copy()

    @property
    def total_writes(self) -> int:
        return int(self._write_counts.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CellArray(n_bits={self.n_bits}, faults={self.fault_count})"
