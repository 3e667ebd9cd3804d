"""Host metadata shared by the benchmark harnesses.

``perfbench/run.py`` stamps ``host_cpus`` (the core count its numbers were
measured on) into every result, and ``benchmarks/test_floors.py`` skips a
process-pool floor on hosts with fewer cores than its workers: a pool
speedup measured on one core is 1.0x by construction.
"""

from __future__ import annotations

import os


def host_cpus() -> int:
    """CPU count of the current host (never ``None``)."""
    return os.cpu_count() or 1
