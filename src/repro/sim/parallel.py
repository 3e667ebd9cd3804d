"""Parallel execution layer for the page-level Monte Carlo engine.

Page trials are embarrassingly parallel: page ``i`` of a study draws every
random number from the substream ``rng_for(seed, i)`` (:mod:`repro.sim.rng`),
so its :class:`~repro.sim.page_sim.PageResult` is a pure function of
``(spec, blocks_per_page, seed, i, model parameters)`` — independent of
which process computes it and in what order.  :class:`SimExecutor` exploits
that contract to fan page simulations out over a ``concurrent.futures``
process pool in deterministic contiguous chunks and reassemble the results
in page-index order, which makes ``workers=1`` and ``workers=N`` produce
bit-identical studies (asserted in ``tests/test_parallel.py``; the pool's
speedup floor is ``benchmarks/test_floors.py::test_pool_speedup``).

The same structural trick Aegis applies at the bit level — partition the
work so per-partition state never interacts — applied at the trial level.

Design notes
------------
* Tasks cross the process boundary by pickle, which is why every
  :class:`~repro.sim.roster.SchemeSpec` factory is a module-level
  ``functools.partial`` rather than a lambda.
* Worker processes rebuild the per-formation lookup tables (collision ROM,
  partition tables) once each via the ``lru_cache``'d constructors in
  :mod:`repro.core` — cheap relative to even a single page simulation.
* The executor degrades to the serial path when ``workers`` resolves to 1,
  when a tracing ``observer`` is attached (callbacks cannot cross the
  process boundary), or when the platform refuses to start a pool — the
  results are identical either way, only wall-clock changes.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.sim.context import ExecContext
from repro.util.stats import MeanEstimate, mean_ci

try:  # pragma: no cover - alias is version-dependent
    from concurrent.futures.process import BrokenProcessPool as BrokenProcessPoolError
except ImportError:  # pragma: no cover
    BrokenProcessPoolError = RuntimeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (page_sim imports us)
    from repro.pcm.faults import FaultModel
    from repro.pcm.lifetime import LifetimeModel
    from repro.sim.page_sim import PageResult
    from repro.sim.roster import SchemeSpec

#: pages handed to a worker per chunk; small enough to load-balance the
#: slow sampled schemes, large enough to amortise the pickle round-trip
DEFAULT_CHUNK_PAGES = 4

#: in-flight chunk futures per worker when no explicit window is given;
#: bounds both the submission queue and the out-of-order result buffer
DEFAULT_WINDOW_PER_WORKER = 4


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` request: ``None``/``0`` mean all cores."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ConfigurationError(f"workers must be positive, got {workers}")
    return workers


@dataclass(frozen=True)
class PageTask:
    """Everything a worker needs to simulate any page of one study.

    Frozen and fully picklable; the page index itself is supplied per
    chunk, so one task object describes the whole study.
    """

    spec: "SchemeSpec"
    blocks_per_page: int
    seed: int
    lifetime_model: "LifetimeModel | None"
    write_probability: float
    inversion_wear_rate: float
    engine: str = "auto"
    #: fault-model name or instance (repro.pcm.faults); "hard" = paper model
    fault_model: "FaultModel | str" = "hard"


def simulate_task_pages(
    task: PageTask, page_indices: tuple[int, ...]
) -> "list[PageResult]":
    """Simulate a run of a task's pages in one call.

    The chunk-level unit of work: with a vector-capable scheme the whole
    run advances through the batch kernels together
    (:func:`repro.sim.page_sim.simulate_pages`), so worker processes and
    in-process batching multiply.  Per-page substreams keep the result
    independent of how the indices are split into runs.
    """
    from repro.sim.page_sim import simulate_pages

    return simulate_pages(
        task.spec,
        task.blocks_per_page,
        page_indices,
        task.seed,
        lifetime_model=task.lifetime_model,
        write_probability=task.write_probability,
        inversion_wear_rate=task.inversion_wear_rate,
        engine=task.engine,
        fault_model=task.fault_model,
    )


def _run_chunk(fn, task, indices: tuple[int, ...]) -> list:
    """Worker entry point of :meth:`SimExecutor.map_indices`: apply
    ``fn(task, index)`` over a chunk."""
    return [fn(task, index) for index in indices]


def _flatten(chunk_results) -> list:
    return [result for chunk in chunk_results for result in chunk]


def _chunked(indices: Sequence[int], chunk_pages: int) -> list[tuple[int, ...]]:
    return [
        tuple(indices[start : start + chunk_pages])
        for start in range(0, len(indices), chunk_pages)
    ]


class SimExecutor:
    """Deterministic page-simulation fan-out over a process pool.

    ``run_pages`` returns results in page-index order regardless of
    completion order, so callers observe exactly the serial sequence.
    Chunks are dispatched under a bounded in-flight window
    (:attr:`window_chunks`) and consumed as they complete, so arbitrarily
    large scatters never queue more than a window of futures and a slow
    chunk never pins later results in pool memory; :meth:`imap_chunks`
    exposes the same machinery as a stream for out-of-core callers.

    The pool persists across calls for the executor's lifetime — the
    fleet campaign engine shares one executor (and its warm, pre-primed
    worker pool) across every scheme of a campaign.  Use as a context
    manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        chunk_pages: int = DEFAULT_CHUNK_PAGES,
        window_chunks: int | None = None,
        initializer=None,
        initargs: tuple = (),
    ) -> None:
        if chunk_pages < 1:
            raise ConfigurationError(f"chunk_pages must be positive, got {chunk_pages}")
        if window_chunks is not None and window_chunks < 1:
            raise ConfigurationError(
                f"window_chunks must be positive, got {window_chunks}"
            )
        self.workers = resolve_workers(workers)
        self.chunk_pages = chunk_pages
        #: bounded in-flight futures per scatter: backpressure instead of a
        #: million queued futures when a campaign streams millions of pages
        self.window_chunks = (
            window_chunks
            if window_chunks is not None
            else max(self.workers * DEFAULT_WINDOW_PER_WORKER, 8)
        )
        #: module-level pre-warm callable run once per worker process (the
        #: fleet engine primes the formation/collision/SAFER table caches
        #: here instead of lazily on each worker's first chunk)
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False

    @property
    def parallel(self) -> bool:
        """Whether this executor will attempt to use worker processes."""
        return self.workers > 1 and not self._pool_broken

    def __enter__(self) -> "SimExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self, n_chunks: int) -> ProcessPoolExecutor | None:
        if not self.parallel or n_chunks < 2:
            return None
        if self._pool is None:
            # the pool is sized for the executor's lifetime, not the first
            # request: a persistent executor shared across campaign schemes
            # must not be capped by its smallest scatter
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
            except (OSError, ValueError, RuntimeError):
                # sandboxed/exotic platforms without working multiprocessing:
                # fall back to the serial path for the rest of this executor
                self._pool_broken = True
                return None
        return self._pool

    def _gather_windowed(self, submit, total: int) -> Iterator:
        """Yield chunk results in chunk-index order under a bounded window.

        ``submit(index)`` schedules chunk ``index`` on the pool.  At most
        :attr:`window_chunks` futures are in flight; completed futures are
        consumed as they finish (their payloads move into a bounded reorder
        buffer and the future is released), so one slow chunk no longer
        pins every later chunk's result in pool memory or stalls further
        submissions.  Emission order is always submission order — the
        windowing is invisible to callers.
        """
        pending: dict = {}
        ready: dict[int, object] = {}
        next_submit = 0
        next_emit = 0
        while next_emit < total:
            while next_submit < total and len(pending) < self.window_chunks:
                pending[submit(next_submit)] = next_submit
                next_submit += 1
            if next_emit in ready:
                yield ready.pop(next_emit)
                next_emit += 1
                continue
            done, _ = wait(tuple(pending), return_when=FIRST_COMPLETED)
            for future in done:
                ready[pending.pop(future)] = future.result()

    def run_pages(self, task: PageTask, page_indices: Sequence[int]) -> list:
        """Simulate ``page_indices`` and return results in index order.

        Pages are dispatched in chunk-sized batches of
        :func:`simulate_task_pages` so the vector kernels amortise across
        a worker's whole chunk; without a pool the entire request is one
        chunk, i.e. one batched call.  Results are identical either way —
        batching is purely an execution strategy.
        """
        indices = tuple(page_indices)
        if not indices:
            return []
        chunks = _chunked(indices, self.chunk_pages) if self.parallel else [indices]
        return _flatten(self.imap_chunks(simulate_task_pages, task, chunks))

    def map_indices(self, fn, task, indices: Sequence[int]) -> list:
        """Apply ``fn(task, index)`` over ``indices``, results in index order.

        The per-index fan-out used by :class:`StudyRunner` and the service
        and cluster load generators.  ``fn`` must be a module-level
        callable and ``task`` picklable so chunks can cross the process
        boundary; ``fn(task, index)`` must be a pure function of its
        arguments, which is what makes every worker count produce
        identical results.
        """
        chunks = _chunked(list(indices), self.chunk_pages)
        return _flatten(self.imap_chunks(partial(_run_chunk, fn), task, chunks))

    def imap_chunks(self, fn, task, chunks: Sequence[tuple[int, ...]]) -> Iterator:
        """Stream ``fn(task, chunk)`` per chunk, in chunk order.

        The executor's one scatter/gather loop: :meth:`run_pages` and
        :meth:`map_indices` flatten it, and the fleet campaign engine
        (:mod:`repro.fleet`) folds it as a stream — each chunk's result is
        yielded as soon as every earlier chunk has been emitted, so a
        caller folding results into a running aggregate holds O(window)
        chunk results at peak, never O(study).  ``fn`` must be a
        module-level callable and ``fn(task, chunk)`` a pure function of
        its arguments; chunks are dispatched under the bounded in-flight
        window and emitted in deterministic chunk order, so the caller's
        fold order — and any digest over it — is identical for every
        worker count.

        A pool that breaks mid-stream does not lose the campaign: chunks
        not yet emitted are recomputed serially (already-yielded results
        stay valid — purity makes the recompute bit-identical).
        """
        chunks = [tuple(chunk) for chunk in chunks]
        pool = self._ensure_pool(len(chunks))
        emitted = 0
        if pool is not None:
            gather = self._gather_windowed(
                lambda i: pool.submit(fn, task, chunks[i]), len(chunks)
            )
            while emitted < len(chunks):
                # next() is wrapped — not the yield — so a consumer exception
                # thrown into the generator is never mistaken for a dead pool
                try:
                    result = next(gather)
                except (OSError, RuntimeError, BrokenProcessPoolError):
                    # a dead pool (killed worker, fork failure): recompute
                    # only the tail it never delivered
                    self._pool_broken = True
                    self.close()
                    break
                emitted += 1
                yield result
        for chunk in chunks[emitted:]:
            yield fn(task, chunk)


class StudyRunner:
    """The generic study harness of the unified execution plane.

    Every Monte Carlo study in this repository has the same shape: fan a
    picklable per-index task over :meth:`SimExecutor.map_indices`, merge
    the shards in deterministic index order, and reduce the merged rows
    into :class:`~repro.util.stats.MeanEstimate` aggregates.  This class
    owns that pattern once — extracted from ``page_sim.run_page_study``
    and shared by the pairing, PAYG and FREE-p remap simulators — so a
    study gains multi-core fan-out, span trees and worker-count-invariant
    results by supplying only its task dataclass and module-level
    per-index function.

    Span contract (recorded parent-side, so traces are bit-identical for
    every worker count): ``<name>_study`` wraps the whole run, with a
    ``fan_out`` child around the executor scatter/gather and, when a
    ``reduce`` callable is given, a ``reduce`` child around aggregation.
    """

    def __init__(
        self,
        name: str,
        ctx: "ExecContext | None" = None,
    ) -> None:
        self.name = name
        self.ctx = ctx if ctx is not None else ExecContext()
        self.executor = SimExecutor(self.ctx.workers)

    @property
    def workers(self) -> int:
        """The resolved worker count (``None``/``0`` became all cores)."""
        return self.executor.workers

    def __enter__(self) -> "StudyRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the executor down."""
        self.executor.close()

    def map_pages(self, task: PageTask, indices: Sequence[int]) -> list:
        """Bare page-batch fan-out, for :class:`PageTask`-shaped work."""
        return self.executor.run_pages(task, indices)

    def run(self, fn, task, indices: Sequence[int], *, reduce=None, **attrs):
        """Fan ``fn(task, i)`` over ``indices``; optionally reduce.

        Returns the index-ordered result list, or — when ``reduce`` is
        given — ``reduce(results)``, evaluated inside a ``reduce`` span
        so the study's aggregation phase shows up in trace trees.  The
        per-study item count is recorded on the process-wide metrics
        registry under ``study_items_total{study=<name>}``.
        """
        indices = list(indices)
        tracer = get_tracer()
        with tracer.span(
            f"{self.name}_study", workers=self.workers, **attrs
        ) as span:
            with tracer.span("fan_out", study=self.name):
                results = self.executor.map_indices(fn, task, indices)
            span.cost(items=len(results))
            registry = get_metrics()
            if registry is not None:
                registry.inc("study_items_total", len(results), study=self.name)
            if reduce is None:
                return results
            with tracer.span("reduce", study=self.name):
                return reduce(results)

    @staticmethod
    def mean_columns(
        results: Sequence[Sequence[float]], names: Sequence[str]
    ) -> dict[str, MeanEstimate]:
        """Per-column 95% CI estimates over row-shaped study results.

        ``names[i]`` labels column ``i`` of each result row — the shared
        accumulate-``MeanEstimate`` tail of every study.
        """
        return {
            name: mean_ci([float(row[column]) for row in results])
            for column, name in enumerate(names)
        }
