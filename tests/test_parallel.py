"""Tests for the parallel execution layer (`repro/sim/parallel.py`).

The headline property: the worker count is a pure performance knob — a
study's every sampled number is identical for ``workers=1`` and
``workers=N``, because page ``i`` always draws from the substream
``rng_for(seed, i)`` regardless of which process simulates it.
"""

import operator
import os
import pickle
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.tracer import Tracer, set_tracer
from repro.pcm.cell import CellArray
from repro.sim.context import ExecContext
from repro.sim.page_sim import run_page_study, simulate_page
from repro.sim.parallel import (
    DEFAULT_CHUNK_PAGES,
    BrokenProcessPoolError,
    PageTask,
    SimExecutor,
    _chunked,
    mean_columns,
    resolve_workers,
    run_study,
    simulate_task_pages,
)
from repro.sim.rng import BitSource, rng_for
from repro.sim.roster import (
    aegis_dynamic_spec,
    aegis_rw_p_spec,
    aegis_spec,
    ecp_spec,
    figure5_roster,
    hamming_spec,
    no_protection_spec,
    rdis_spec,
    safer_cache_spec,
    safer_spec,
    variants_roster,
)
from repro.util.stats import mean_ci

#: the representative roster the determinism contract is asserted on
REPRESENTATIVE = [
    aegis_spec(9, 61, 512),
    safer_spec(64, 512),
    ecp_spec(6, 512),
]


class TestSpecPicklability:
    """Specs must cross the process boundary: no lambdas anywhere."""

    @pytest.mark.parametrize(
        "spec",
        figure5_roster(512)
        + variants_roster(512)
        + [
            safer_cache_spec(64, 512),
            safer_cache_spec(32, 512),
            safer_cache_spec(128, 512),
            safer_spec(64, 512, policy="exhaustive"),
            aegis_spec(8, 71, 512),
            aegis_dynamic_spec(23, 23, 512),
            rdis_spec(512),
            hamming_spec(512),
            no_protection_spec(512),
        ],
        ids=lambda s: s.key,
    )
    def test_spec_roundtrips_through_pickle(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.key == spec.key
        assert clone.overhead_bits == spec.overhead_bits
        # the reconstructed factories must produce working objects
        checker = clone.make_checker(BitSource(np.random.default_rng(0)))
        assert checker.add_fault(1, 0) in (True, False)
        controller = clone.make_controller(CellArray(clone.n_bits))
        assert type(controller) is type(spec.make_controller(CellArray(spec.n_bits)))
        assert controller.overhead_bits == spec.overhead_bits
        data = np.random.default_rng(0).integers(0, 2, clone.n_bits, dtype=np.uint8)
        controller.write(data)
        assert np.array_equal(controller.read(), data)
        assert (clone.make_batch is None) == (spec.make_batch is None)
        if clone.make_batch is not None:
            batch = clone.make_batch(4)
            alive = batch.add_faults(np.arange(4, dtype=np.int64), np.ones(4, dtype=bool))
            assert alive.shape == (4,) and alive.all()

    def test_checker_from_unpickled_spec_matches_original(self):
        spec = aegis_rw_p_spec(9, 61, 9, 512)
        clone = pickle.loads(pickle.dumps(spec))
        r1 = simulate_page(spec, 4, np.random.default_rng(3))
        r2 = simulate_page(clone, 4, np.random.default_rng(3))
        assert r1 == r2

    def test_page_task_is_picklable(self):
        task = PageTask(
            spec=aegis_spec(9, 61, 512),
            blocks_per_page=4,
            seed=7,
            lifetime_model=None,
            write_probability=0.5,
            inversion_wear_rate=0.25,
        )
        clone = pickle.loads(pickle.dumps(task))
        assert simulate_task_pages(clone, (0,))[0] == simulate_task_pages(task, (0,))[0]


class TestWorkerResolution:
    def test_none_and_zero_mean_all_cores(self):
        import os

        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)

    def test_bad_chunk_pages_rejected(self):
        with pytest.raises(ConfigurationError):
            SimExecutor(2, chunk_pages=0)

    def test_single_worker_is_serial(self):
        assert not SimExecutor(1).parallel


class TestExecutorOrdering:
    def test_results_come_back_in_page_order(self):
        task = PageTask(
            spec=ecp_spec(2, 512),
            blocks_per_page=4,
            seed=11,
            lifetime_model=None,
            write_probability=0.5,
            inversion_wear_rate=0.25,
        )
        indices = list(range(3 * DEFAULT_CHUNK_PAGES + 1))
        with SimExecutor(2) as executor:
            pooled = executor.run_pages(task, indices)
        serial = [simulate_task_pages(task, (i,))[0] for i in indices]
        assert pooled == serial

    def test_serial_request_is_one_batched_call(self, monkeypatch):
        """Without a pool the whole request is one chunk: the page batch
        kernels see every page at once."""
        import repro.sim.parallel as parallel_mod

        calls = []

        def counting(task, indices):
            calls.append(indices)
            return simulate_task_pages(task, indices)

        monkeypatch.setattr(parallel_mod, "simulate_task_pages", counting)
        task = _page_task(seed=4, blocks=2)
        indices = range(3 * DEFAULT_CHUNK_PAGES + 1)
        with SimExecutor(1) as executor:
            results = executor.run_pages(task, indices)
        assert calls == [tuple(indices)]
        assert results == simulate_task_pages(task, tuple(indices))

    def test_empty_index_list(self):
        task = PageTask(
            spec=ecp_spec(1, 512),
            blocks_per_page=2,
            seed=0,
            lifetime_model=None,
            write_probability=0.5,
            inversion_wear_rate=0.25,
        )
        assert SimExecutor(2).run_pages(task, []) == []


class TestStudyDeterminism:
    """workers=1 and workers=4 must be bit-identical, not just close."""

    @pytest.mark.parametrize("spec", REPRESENTATIVE, ids=lambda s: s.key)
    def test_worker_count_does_not_change_results(self, spec):
        serial = run_page_study(
            spec, n_pages=10, blocks_per_page=8, seed=17, workers=1
        )
        pooled = run_page_study(
            spec, n_pages=10, blocks_per_page=8, seed=17, workers=4
        )
        assert pooled.results == serial.results
        assert pooled.faults == serial.faults
        assert pooled.lifetime == serial.lifetime
        assert pooled.baseline_lifetime == serial.baseline_lifetime

    def test_parallel_matches_direct_serial_engine(self):
        """Cross-validation against simulate_page called by hand."""
        spec = aegis_spec(9, 61, 512)
        study = run_page_study(
            spec, n_pages=6, blocks_per_page=8, seed=23, workers=2
        )
        by_hand = tuple(
            simulate_page(spec, 8, rng_for(23, page)) for page in range(6)
        )
        assert study.results == by_hand


class TestObserverForcesSerial:
    def test_observer_run_matches_unobserved_run(self):
        """An observer forces the scalar scheduler; the observed pages
        still equal the pooled study's, and the observer hears every
        fault of every page."""
        plain = run_page_study(
            ecp_spec(2, 512), n_pages=4, blocks_per_page=4, seed=5, workers=4
        )
        events = []
        observed = tuple(
            simulate_page(ecp_spec(2, 512), 4, rng_for(5, page), observer=events.append)
            for page in range(4)
        )
        assert observed == plain.results
        assert sum(event.fatal for event in events) == 4
        assert len(events) == sum(r.faults_recovered for r in observed) + 4


class TestPoolFallback:
    def test_broken_pool_recomputes_serially(self, monkeypatch):
        import repro.sim.parallel as parallel_mod

        def refuse(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", refuse)
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            study = run_page_study(
                ecp_spec(2, 512), n_pages=10, blocks_per_page=4, seed=5, workers=4
            )
        finally:
            set_metrics(previous)
        assert registry.counter_value("executor_fallbacks_total", reason="pool_start") == 1
        assert registry.counter_value("executor_fallbacks_total", reason="pool_broken") == 0
        reference = run_page_study(
            ecp_spec(2, 512), n_pages=10, blocks_per_page=4, seed=5, workers=1
        )
        assert study.results == reference.results


def _recorded(run):
    """Run ``run()`` under a fresh process-wide tracer and metrics
    registry; return ``(result, tracer, registry)``."""
    tracer, registry = Tracer(), MetricsRegistry()
    previous_tracer, previous_metrics = set_tracer(tracer), set_metrics(registry)
    try:
        result = run()
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)
    return result, tracer, registry


class TestParentSideTelemetry:
    """Study spans and counters are recorded in the parent process only,
    so a trace or metrics export cannot depend on the worker count."""

    def test_page_study_is_one_fan_out_span_tree(self):
        n_pages = 2 * DEFAULT_CHUNK_PAGES + 1
        runs = {
            workers: _recorded(
                lambda workers=workers: run_page_study(
                    ecp_spec(2, 512),
                    n_pages=n_pages,
                    blocks_per_page=4,
                    seed=5,
                    workers=workers,
                )
            )
            for workers in (1, 2)
        }
        (serial_study, serial_trace, serial_metrics) = runs[1]
        (pooled_study, pooled_trace, pooled_metrics) = runs[2]
        assert pooled_study.results == serial_study.results
        (root,) = serial_trace.roots
        assert root.name == "page_study"
        assert root.attrs == {"spec": ecp_spec(2, 512).key, "n_pages": n_pages}
        assert root.costs == {"pages": n_pages}
        assert [child.name for child in root.children] == ["page_sim", "reduce"]
        page_sim = root.children[0]
        # no per-kernel spans and no phase attribute under the fan-out
        assert page_sim.attrs == {} and page_sim.children == []
        assert [r.to_dict() for r in pooled_trace.roots] == [root.to_dict()]
        assert pooled_metrics.snapshot() == serial_metrics.snapshot()
        assert serial_metrics.counter_value(
            "pages_simulated_total", spec=ecp_spec(2, 512).key
        ) == n_pages

    def test_run_study_span_tree_and_item_counter(self):
        indices = range(3 * DEFAULT_CHUNK_PAGES + 1)
        runs = {
            workers: _recorded(
                lambda workers=workers: run_study(
                    "probe",
                    ExecContext(workers=workers),
                    operator.mul,
                    3,
                    indices,
                    reduce=list,
                    trials=len(indices),
                )
            )
            for workers in (1, 2)
        }
        (serial, serial_trace, serial_metrics) = runs[1]
        (pooled, pooled_trace, pooled_metrics) = runs[2]
        assert serial == pooled == [3 * index for index in indices]
        (root,) = serial_trace.roots
        assert root.name == "probe_study"
        assert root.attrs == {"trials": len(indices)}
        assert root.costs == {"items": len(indices)}
        assert [(c.name, c.attrs) for c in root.children] == [
            ("fan_out", {"study": "probe"}),
            ("reduce", {"study": "probe"}),
        ]
        assert [r.to_dict() for r in pooled_trace.roots] == [root.to_dict()]
        assert pooled_metrics.snapshot() == serial_metrics.snapshot()
        assert serial_metrics.counter_value("study_items_total", study="probe") == len(
            indices
        )

    def test_mean_columns_labels_each_column(self):
        rows = [(1.0, 10.0), (3.0, 30.0), (5.0, 20.0)]
        estimates = mean_columns(rows, ["low", "high"])
        assert list(estimates) == ["low", "high"]
        assert estimates["low"] == mean_ci([1.0, 3.0, 5.0])
        assert estimates["high"] == mean_ci([10.0, 30.0, 20.0])


def _page_task(seed: int = 11, blocks: int = 4) -> PageTask:
    return PageTask(
        spec=ecp_spec(2, 512),
        blocks_per_page=blocks,
        seed=seed,
        lifetime_model=None,
        write_probability=0.5,
        inversion_wear_rate=0.25,
    )


class TestWindowedGather:
    """The bounded-window reorder machinery behind every scatter."""

    def test_window_scales_with_workers(self):
        """Four chunks in flight per worker, never fewer than eight."""
        windows = [SimExecutor(workers).window_chunks for workers in (1, 2, 3, 16)]
        assert windows == [8, 8, 12, 64]

    def test_emits_in_order_under_adversarial_completion(self):
        """Futures complete in reverse submission order; emission must
        still be submission order."""
        executor = SimExecutor(2)
        total = 3 * executor.window_chunks + 2
        unresolved: list[tuple[int, Future]] = []
        submitted: list[int] = []

        def submit(index: int) -> Future:
            future: Future = Future()
            submitted.append(index)
            unresolved.append((index, future))
            if len(unresolved) == executor.window_chunks or index == total - 1:
                for chunk_index, pending in reversed(unresolved):
                    pending.set_result([chunk_index])
                unresolved.clear()
            return future

        results = list(executor._gather_windowed(submit, total))
        assert submitted == list(range(total))
        assert results == [[index] for index in range(total)]

    def test_window_bounds_in_flight_futures(self):
        """At no point may more than window_chunks submissions be
        outstanding — submission is throttled, not eager."""
        executor = SimExecutor(2)
        total = 2 * executor.window_chunks + 3
        unresolved: dict[int, Future] = {}
        violations: list[int] = []

        def resolve_lowest() -> None:
            lowest = min(unresolved)
            unresolved.pop(lowest).set_result([lowest])

        def submit(index: int) -> Future:
            future: Future = Future()
            unresolved[index] = future
            if len(unresolved) > executor.window_chunks:
                violations.append(index)
            if index == total - 1:
                while unresolved:
                    resolve_lowest()
            elif len(unresolved) == executor.window_chunks:
                resolve_lowest()
            return future

        results = list(executor._gather_windowed(submit, total))
        assert violations == []
        assert results == [[index] for index in range(total)]


class TestImapChunks:
    """Streaming chunk fan-out: chunk order, fallback, tail recompute."""

    def test_streams_chunk_results_in_order(self):
        task = _page_task()
        chunks = [(0, 1), (2, 3, 4), (5,), (6, 7)]
        expected = [
            [simulate_task_pages(task, (index,))[0] for index in chunk] for chunk in chunks
        ]
        with SimExecutor(1) as serial:
            assert (
                list(serial.imap_chunks(simulate_task_pages, task, chunks)) == expected
            )
        with SimExecutor(2) as pooled:
            assert (
                list(pooled.imap_chunks(simulate_task_pages, task, chunks)) == expected
            )

    def test_empty_chunk_list(self):
        with SimExecutor(2) as executor:
            assert list(executor.imap_chunks(simulate_task_pages, _page_task(), [])) == []

    def test_refused_pool_streams_serially(self, monkeypatch):
        import repro.sim.parallel as parallel_mod

        def refuse(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", refuse)
        task = _page_task(seed=3)
        chunks = _chunked(range(6), 2)
        executor = SimExecutor(4)
        streamed = list(executor.imap_chunks(simulate_task_pages, task, chunks))
        assert streamed == [list(simulate_task_pages(task, chunk)) for chunk in chunks]

    def test_pool_break_mid_stream_recomputes_only_the_tail(self):
        """A pool that dies after the first chunk must not lose the
        stream: the unemitted tail is recomputed serially and the full
        sequence equals the serial run."""
        task = _page_task(seed=9, blocks=2)
        executor = SimExecutor(2)
        # the pool dies on the first submission past the initial window,
        # i.e. after the first chunk has been emitted
        chunks = _chunked(range(2 * (executor.window_chunks + 2)), 2)
        pool = executor._ensure_pool(len(chunks))
        if pool is None:
            pytest.skip("multiprocessing unavailable on this platform")
        real_submit = pool.submit
        calls = {"count": 0}

        def flaky_submit(fn, *args):
            calls["count"] += 1
            if calls["count"] > executor.window_chunks:
                raise BrokenProcessPoolError("worker killed")
            return real_submit(fn, *args)

        pool.submit = flaky_submit
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            streamed = list(executor.imap_chunks(simulate_task_pages, task, chunks))
        finally:
            set_metrics(previous)
            executor.close()
        assert executor._pool_broken
        assert registry.counter_value("executor_fallbacks_total", reason="pool_broken") == 1
        assert registry.counter_value("executor_fallbacks_total", reason="pool_start") == 0
        assert streamed == [
            list(simulate_task_pages(task, chunk)) for chunk in chunks
        ]


def _mark_worker_warm(directory: str) -> None:
    """Module-level pool initializer: leave one marker file per worker."""
    with open(os.path.join(directory, f"worker-{os.getpid()}"), "w") as handle:
        handle.write("warm")


class TestPersistentPool:
    def test_pool_persists_across_scatters(self):
        task = _page_task(seed=21, blocks=2)
        with SimExecutor(2, chunk_pages=2) as executor:
            first = executor.run_pages(task, range(6))
            pool = executor._pool
            second = executor.run_pages(task, range(6))
            if pool is not None:  # skip the identity check if pools refuse
                assert executor._pool is pool
        assert first == second

    def test_initializer_runs_once_per_worker(self, tmp_path):
        task = _page_task(seed=5, blocks=2)
        with SimExecutor(
            2,
            chunk_pages=1,
            initializer=_mark_worker_warm,
            initargs=(str(tmp_path),),
        ) as executor:
            pooled = executor.run_pages(task, range(4))
            executor.run_pages(task, range(4))
            started = executor._pool is not None
        assert pooled == [simulate_task_pages(task, (index,))[0] for index in range(4)]
        if started:
            marks = list(tmp_path.iterdir())
            # one marker per worker process, never per scatter or per chunk
            assert 1 <= len(marks) <= 2
