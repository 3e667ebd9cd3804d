"""Tests for the experiment infrastructure (registry, memoisation, results)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.base import (
    ACCEPTED_OPTIONS,
    REGISTRY,
    ExperimentResult,
    clear_study_cache,
    dispatch,
    register,
    shared_page_studies,
)
from repro.sim.context import ExecContext
from repro.sim.roster import ecp_spec


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_study_cache()
    yield
    clear_study_cache()


class TestExperimentResult:
    def make(self):
        return ExperimentResult(
            experiment_id="x",
            title="T",
            headers=("a", "b"),
            rows=((1, 2), (3, 4)),
            notes=("n1",),
        )

    def test_column(self):
        assert self.make().column("b") == [2, 4]

    def test_column_unknown_header(self):
        with pytest.raises(ValueError):
            self.make().column("zzz")

    def test_dict_is_json_serialisable(self):
        payload = json.loads(json.dumps(self.make().to_dict()))
        assert payload == {
            "experiment_id": "x",
            "title": "T",
            "headers": ["a", "b"],
            "rows": [[1, 2], [3, 4]],
            "notes": ["n1"],
            "chart": None,
        }

    def test_render_contains_notes(self):
        out = self.make().render()
        assert "note: n1" in out
        assert "## T" in out


class TestRegister:
    def test_decorator_registers_and_returns(self):
        @register("zz-test-experiment")
        def runner(ctx, *, depth=1):
            return ExperimentResult("zz-test-experiment", "t", ("h",), ((depth,),))

        try:
            assert REGISTRY["zz-test-experiment"] is runner
            assert ACCEPTED_OPTIONS["zz-test-experiment"] == frozenset({"depth"})
        finally:
            del REGISTRY["zz-test-experiment"]
            del ACCEPTED_OPTIONS["zz-test-experiment"]

    def test_rejects_var_keyword_catch_all(self):
        with pytest.raises(ConfigurationError, match="catch-all"):
            @register("zz-bad-kwargs")
            def runner(ctx, **_):
                raise AssertionError  # pragma: no cover

    def test_rejects_missing_ctx(self):
        with pytest.raises(ConfigurationError, match="first parameter 'ctx'"):
            @register("zz-no-ctx")
            def runner(depth=1):
                raise AssertionError  # pragma: no cover

    def test_rejects_exec_field_shadowing(self):
        with pytest.raises(ConfigurationError, match="owned by ExecContext"):
            @register("zz-shadow")
            def runner(ctx, *, seed=0):
                raise AssertionError  # pragma: no cover


class TestDispatch:
    @pytest.fixture(autouse=True)
    def probe_driver(self):
        @register("zz-probe")
        def runner(ctx, *, depth=1):
            return ExperimentResult(
                "zz-probe", "t", ("seed", "depth"), ((ctx.seed, depth),)
            )

        yield
        del REGISTRY["zz-probe"]
        del ACCEPTED_OPTIONS["zz-probe"]

    def test_unknown_option_raises(self):
        # the motivating bug: 'worker=4' used to run serially, silently
        with pytest.raises(ConfigurationError, match="worker"):
            dispatch("zz-probe", worker=4)

    def test_legacy_exec_kwargs_fold_into_ctx(self):
        result = dispatch("zz-probe", seed=99, workers=1, engine="scalar")
        assert result.rows == ((99, 1),)

    def test_common_scale_options_filtered_to_signature(self):
        # drivers without n_pages/trials still accept the CLI's bulk options
        result = dispatch("zz-probe", n_pages=5, trials=7, depth=3)
        assert result.rows == ((2013, 3),)

    def test_explicit_ctx_threads_through(self):
        result = dispatch("zz-probe", ctx=ExecContext(seed=41))
        assert result.rows == ((41, 1),)


class TestSharedStudies:
    def test_memoised_within_parameters(self):
        spec = ecp_spec(2, 512)
        first = shared_page_studies([spec], n_pages=3, ctx=ExecContext(seed=1))[0]
        second = shared_page_studies([spec], n_pages=3, ctx=ExecContext(seed=1))[0]
        assert first is second  # same object: no re-simulation

    def test_distinct_parameters_not_shared(self):
        spec = ecp_spec(2, 512)
        a = shared_page_studies([spec], n_pages=3, ctx=ExecContext(seed=1))[0]
        b = shared_page_studies([spec], n_pages=3, ctx=ExecContext(seed=2))[0]
        c = shared_page_studies([spec], n_pages=4, ctx=ExecContext(seed=1))[0]
        assert a is not b and a is not c

    def test_clear_cache(self):
        spec = ecp_spec(2, 512)
        a = shared_page_studies([spec], n_pages=3, ctx=ExecContext(seed=1))[0]
        clear_study_cache()
        b = shared_page_studies([spec], n_pages=3, ctx=ExecContext(seed=1))[0]
        assert a is not b
        assert a.faults.mean == b.faults.mean  # but deterministic content
