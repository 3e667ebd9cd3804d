"""Differential fuzzing across all recovery schemes.

The one property no scheme may ever violate: **a write that is accepted
must read back exactly** — silent corruption is worse than failure.  The
fuzzer drives every scheme through randomized fault-injection/write
interleavings (including fault counts far beyond every hard FTC, where
failures are expected and fine) and checks that accepted writes are
faithful, failures are permanent, and the exception carries sane metadata.
"""

import numpy as np
import pytest

from repro.core.aegis import AegisScheme
from repro.core.aegis_dw import AegisDoubleWriteScheme
from repro.core.aegis_rw import AegisRwScheme
from repro.core.aegis_rw_p import AegisRwPScheme
from repro.core.formations import formation
from repro.errors import BlockRetiredError, UncorrectableError
from repro.pcm.cell import CellArray
from repro.schemes.ecp import EcpScheme
from repro.schemes.hamming import HammingScheme
from repro.schemes.ideal import NoProtectionScheme
from repro.schemes.rdis import RdisScheme
from repro.schemes.safer import SaferCacheScheme, SaferScheme

FORM = formation(17, 31, 512)

ALL_SCHEMES = [
    ("aegis", lambda c: AegisScheme(c, FORM)),
    ("aegis-rw", lambda c: AegisRwScheme(c, FORM)),
    ("aegis-rw-p", lambda c: AegisRwPScheme(c, FORM, 5)),
    ("aegis-dw", lambda c: AegisDoubleWriteScheme(c, FORM)),
    ("ecp", lambda c: EcpScheme(c, 6)),
    ("safer-inc", lambda c: SaferScheme(c, 32, policy="incremental")),
    ("safer-exh", lambda c: SaferScheme(c, 32, policy="exhaustive")),
    ("safer-cache", lambda c: SaferCacheScheme(c, 32)),
    ("rdis", lambda c: RdisScheme(c)),
    ("hamming", lambda c: HammingScheme(c)),
    ("none", NoProtectionScheme),
]


def fuzz_one(factory, seed: int, max_faults: int = 40) -> None:
    """One randomized life: interleave fault injections and writes until
    the scheme fails or the fault budget is spent."""
    rng = np.random.default_rng(seed)
    cells = CellArray(512)
    scheme = factory(cells)
    offsets = rng.permutation(512)[:max_faults]
    failed = False
    for offset in offsets:
        cells.inject_fault(int(offset), stuck_value=int(rng.integers(0, 2)))
        for _ in range(int(rng.integers(1, 4))):
            data = rng.integers(0, 2, 512, dtype=np.uint8)
            try:
                scheme.write(data)
            except UncorrectableError as exc:
                failed = True
                assert scheme.retired
                # failure metadata refers to real in-block offsets
                assert all(0 <= o < 512 for o in exc.fault_offsets)
                break
            # the inviolable property: accepted writes read back exactly
            assert np.array_equal(scheme.read(), data), "silent corruption!"
        if failed:
            break
    if failed:
        with pytest.raises(BlockRetiredError):
            scheme.write(np.zeros(512, dtype=np.uint8))


@pytest.mark.parametrize("name,factory", ALL_SCHEMES, ids=[n for n, _ in ALL_SCHEMES])
def test_no_silent_corruption(name, factory):
    for seed in range(6):
        fuzz_one(factory, seed)


@pytest.mark.parametrize(
    "name,factory",
    [(n, f) for n, f in ALL_SCHEMES if n != "none"],
    ids=[n for n, _ in ALL_SCHEMES if n != "none"],
)
def test_heavy_fault_pressure(name, factory):
    """Push every scheme well past its capability: it must fail loudly,
    never corrupt."""
    for seed in (100, 101):
        fuzz_one(factory, seed, max_faults=120)
