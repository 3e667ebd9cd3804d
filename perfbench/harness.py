"""The repeat loop every workload runs under, and what one repeat yields."""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field

import numpy as np

#: iterations of the probe loop, about 3.2 ms on the host the benchmark was
#: tuned on (2 vCPUs of a shared x86-64 machine, Python 3.11)
PROBE_LOOPS = 60_000
#: the probe's time on that host when it is quiet; every time the
#: benchmark gates is scaled to a host that runs the probe this fast
REFERENCE_PROBE_S = 0.0032


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class Stopwatch:
    """Times consecutive parts of a repeat, with a probe between parts.

    On a shared host, other tenants slow this process's core by up to
    ~1.7x for minutes at a time, so a wall-clock figure moves with
    whatever the neighbours did during that run, and no statistic inside
    one run removes a slowdown that lasts all of it.  The probe slows down
    with the core, so :meth:`split` scales each part's wall time by
    ``REFERENCE_PROBE_S`` over the mean of the probes on either side of
    it: the part's time on the reference host.  The program's own speed
    never reaches the probe, so a faster program still reads faster.
    Probes inside a traced episode are spans of their own (``probe``), so
    no layer's time includes them.
    """

    def __init__(self, recorder) -> None:
        self._recorder = recorder
        self._probe = probe()
        self._start = time.perf_counter()

    def split(self) -> float:
        """Reference seconds since the last split (or since creation),
        not counting the probes."""
        elapsed = time.perf_counter() - self._start
        before = self._probe
        with self._recorder.span("probe"):
            self._probe = probe()
        self._start = time.perf_counter()
        return elapsed * REFERENCE_PROBE_S / ((before + self._probe) / 2.0)


@dataclass
class Outcome:
    """One repeat: a fresh set-up followed by one timed episode.

    ``round`` is the repeat's round of :func:`measure`.  ``setup_s`` and
    ``episode_s`` are reference seconds (:class:`Stopwatch`), the latter
    less the probes taken inside the episode; ``wall_s`` is the episode's
    plain wall time.  ``latencies`` holds per-call samples in nanoseconds;
    ``digests`` fingerprint the program's output so repeats and reference
    runs can be compared; ``failures`` lists every correctness check that
    failed while the episode ran.
    """

    round: int = 0
    setup_s: float = 0.0
    wall_s: float = 0.0
    episode_s: float = 0.0
    work: int = 0
    latencies: dict[str, np.ndarray] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


class NullRecorder:
    """Stand-in for :class:`perfbench.trace.SpanRecorder` on untraced runs."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def measure(workload, inputs, seconds: float, recorders, *, min_rounds: int = 2):
    """Run rounds of repeats until ``seconds`` have passed (and at least
    ``min_rounds``); each round runs one repeat per recorder, so traced and
    untraced repeats interleave and share whatever the host is doing.
    ``workload.repeat(inputs, recorder, round_index)`` runs one repeat; the
    repeats of one round do the same work.

    Returns one list of outcomes per recorder.  A round that starts before
    the deadline runs to completion, so a run lasts ``seconds`` plus at
    most one round.
    """
    runs: list[list[Outcome]] = [[] for _ in recorders]
    deadline = time.perf_counter() + seconds
    while len(runs[0]) < min_rounds or time.perf_counter() < deadline:
        round_index = len(runs[0])
        for outcomes, recorder in zip(runs, recorders):
            # free the previous repeat's cyclic garbage (whole arrays and
            # clusters) before building the next, so peak memory does not
            # depend on when the collector last ran
            gc.collect()
            outcome = workload.repeat(inputs, recorder, round_index)
            outcome.round = round_index
            outcomes.append(outcome)
    return runs
