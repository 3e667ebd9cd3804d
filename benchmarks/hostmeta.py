"""Host metadata shared by the benchmark harnesses.

``perfbench/run.py`` stamps ``host_cpus`` (the core count its numbers were
measured on) into every result, and so does ``bench_fleet.py``.  Serial
throughput travels across hosts reasonably well, but **parallel-ladder
speedups do not**: a 1-CPU host faithfully records 1.0x process-pool
speedups, and comparing that ladder against a 4-CPU run (or vice versa)
manufactures a regression or hides one.  ``bench_fleet.py --check``
therefore routes its cross-record parallel comparison through
:func:`parallel_ladder_guard` and refuses, with an explanatory note,
instead of comparing ladders recorded on differing core counts.
"""

from __future__ import annotations

import os


def host_cpus() -> int:
    """CPU count of the current host (never ``None``)."""
    return os.cpu_count() or 1


def parallel_ladder_guard(previous: dict, current: dict) -> str | None:
    """``None`` when the two records' parallel ladders are comparable.

    Otherwise an explanatory message: the recorded file predates
    ``host_cpus`` stamping, or was measured on a host with a different
    core count.  Callers print the message and skip every cross-record
    parallel-speedup comparison; same-host comparisons (serial
    throughput, engine ladders) proceed regardless."""
    old = previous.get("host_cpus")
    new = current.get("host_cpus") or host_cpus()
    if old is None:
        return (
            "recorded file carries no host_cpus; refusing to compare "
            f"parallel ladders against the current {new}-CPU host"
        )
    if old != new:
        return (
            f"recorded on a {old}-CPU host but measured on {new} CPUs; "
            "refusing to compare parallel ladders across differing core "
            "counts"
        )
    return None
