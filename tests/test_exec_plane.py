"""Tests for the unified execution plane (`repro/sim/context.py`).

Two contracts anchor this suite:

* **Worker-count invariance for the migrated extension sims.**  The
  pairing, PAYG and FREE-p remap studies fan pages over
  :func:`~repro.sim.parallel.run_study`; their rendered
  experiment tables must be byte-identical for workers 1, 2 and 4
  (mirroring ``tests/test_parallel.py`` for the page studies).
* **Field additions are two edits.**  A new ExecContext field must reach
  every driver by editing only the context dataclass and the CLI parser —
  demonstrated here by extending the dataclass and watching ``from_args``,
  ``with_options``, ``cache_key`` and the dispatcher pick it up with no
  driver changes.
"""

import argparse
import operator
import pickle
from dataclasses import dataclass

import pytest

from repro import cli
from repro.cluster.bench import run_cluster_bench
from repro.errors import ConfigurationError
from repro.experiments import clear_study_cache, run_experiment
from repro.experiments.base import ACCEPTED_OPTIONS, REGISTRY, dispatch
from repro.pairing.sim import pairing_study
from repro.payg.sim import payg_page_study
from repro.remap.sim import remap_page_study
from repro.service import MemoryArray, run_load
from repro.sim.block_sim import failure_curve
from repro.sim.context import ExecContext
from repro.sim.page_sim import run_page_study
from repro.sim.parallel import run_study
from repro.sim.roster import aegis_spec, ecp_spec
from repro.core.formations import formation


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_study_cache()
    yield
    clear_study_cache()


class TestExecContext:
    def test_defaults_are_serial_auto(self):
        ctx = ExecContext()
        assert (ctx.seed, ctx.workers, ctx.engine) == (2013, 1, "auto")
        assert ctx.fault_model == "hard"

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="engine"):
            ExecContext(engine="turbo")

    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ExecContext(workers=-1)

    def test_with_options_unknown_field_raises(self):
        with pytest.raises(ConfigurationError, match="worker"):
            ExecContext().with_options(worker=4)

    def test_with_options_replaces(self):
        ctx = ExecContext().with_options(seed=7, engine="scalar")
        assert (ctx.seed, ctx.engine) == (7, "scalar")

    def test_cache_key_covers_every_field(self):
        names = [name for name, _ in ExecContext().cache_key]
        assert names == ["seed", "workers", "engine", "fault_model"]
        assert ExecContext(seed=1).cache_key != ExecContext(seed=2).cache_key
        # workers/engine never change numbers but must not alias caches
        assert ExecContext(workers=1).cache_key != ExecContext(workers=4).cache_key
        assert (
            ExecContext(engine="auto").cache_key
            != ExecContext(engine="scalar").cache_key
        )

    def test_picklable(self):
        ctx = ExecContext(seed=5, workers=3, engine="scalar")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_describe(self):
        assert ExecContext(seed=5, workers=None).describe() == (
            "seed=5 workers=all-cores engine=auto"
        )

    def test_from_args_maps_by_name(self):
        args = argparse.Namespace(
            seed=11, workers=2, engine="scalar", trace="/tmp/t.jsonl",
            metrics=None, pages=64,
        )
        ctx = ExecContext.from_args(args)
        assert (ctx.seed, ctx.workers, ctx.engine) == (11, 2, "scalar")
        # observability flags are process-global sinks, not context fields
        assert ctx == ExecContext(seed=11, workers=2, engine="scalar")

    def test_from_args_missing_attributes_keep_defaults(self):
        # a namespace without --workers/--engine flags
        ctx = ExecContext.from_args(argparse.Namespace(seed=3))
        assert ctx == ExecContext(seed=3)

    def test_from_args_overrides_win(self):
        args = argparse.Namespace(seed=3, workers=8)
        assert ExecContext.from_args(args, workers=1).workers == 1


#: (experiment id, study callable, scale kwargs) for the migrated sims
MIGRATED_STUDIES = [
    (
        "pairing",
        lambda ctx: pairing_study(
            ecp_spec(2, 512), n_pages=6, blocks_per_page=4, ctx=ctx
        ),
    ),
    (
        "payg",
        lambda ctx: payg_page_study(
            formation(17, 31, 512),
            pool_entries=4,
            blocks_per_page=8,
            n_pages=6,
            ctx=ctx,
        ),
    ),
    (
        "remap",
        lambda ctx: remap_page_study(
            aegis_spec(17, 31, 512), spares=2, blocks_per_page=4, n_pages=6, ctx=ctx
        ),
    ),
]


class TestWorkerLadderDeterminism:
    """workers=1, 2 and 4 must be bit-identical for every migrated sim."""

    @pytest.mark.parametrize(
        "name,study", MIGRATED_STUDIES, ids=[m[0] for m in MIGRATED_STUDIES]
    )
    def test_study_invariant_across_worker_counts(self, name, study):
        results = [study(ExecContext(seed=23, workers=w)) for w in (1, 2, 4)]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize(
        "experiment_id,options",
        [
            ("ext-pairing", {"n_pages": 6}),
            ("ext-payg", {"n_pages": 4, "pool_fractions": (0.25, 1.0)}),
            ("ext-freep", {"n_pages": 4, "spare_counts": (0, 2)}),
            ("ext-fullscale", {"n_pages": 4}),
        ],
    )
    def test_rendered_tables_identical(self, experiment_id, options):
        contexts = [ExecContext(seed=31, workers=workers) for workers in (1, 2, 4)]
        contexts.append(ExecContext(seed=31, engine="scalar"))
        rendered = []
        for ctx in contexts:
            clear_study_cache()
            result = run_experiment(experiment_id, ctx=ctx, **options)
            rendered.append(result.render())
        assert all(table == rendered[0] for table in rendered)

    @pytest.mark.parametrize(
        "name,study", MIGRATED_STUDIES, ids=[m[0] for m in MIGRATED_STUDIES]
    )
    def test_fault_model_reach(self, name, study):
        # pairing and PAYG pass the context's fault model to the page
        # scheduler; remap pages stay under hard faults
        drift = [study(ExecContext(seed=23, workers=w, fault_model="drift")) for w in (1, 2)]
        assert drift[0] == drift[1]
        assert (drift[0] == study(ExecContext(seed=23))) == (name == "remap")

    def test_engine_flag_transparent_for_scalar_only_sims(self):
        # the migrated sims have no batch kernels: any engine choice must
        # fall back to the scalar path without changing a single number
        base = pairing_study(ecp_spec(2, 512), n_pages=4, blocks_per_page=4,
                             ctx=ExecContext(seed=9))
        other = pairing_study(
            ecp_spec(2, 512), n_pages=4, blocks_per_page=4,
            ctx=ExecContext(seed=9, engine="scalar"),
        )
        assert other == base

    def test_invalid_engine_rejected_before_simulation(self):
        with pytest.raises(ConfigurationError, match="engine"):
            ExecContext(engine="nope")


def _parse(*argv):
    return cli._build_parser().parse_args(argv)


#: every public surface that takes an engine name, called with "vector",
#: which is not an engine value ("auto" takes the batch kernels); the CLI
#: parser exits instead of raising
VECTOR_ENGINE_SURFACES = {
    "ExecContext": lambda: ExecContext(engine="vector"),
    "failure_curve": lambda: failure_curve(
        aegis_spec(9, 61, 512), trials=1, engine="vector"
    ),
    "run_page_study": lambda: run_page_study(
        aegis_spec(9, 61, 512), n_pages=1, engine="vector"
    ),
    "MemoryArray": lambda: MemoryArray(
        2, 512, aegis_spec(9, 61, 512).make_controller, engine="vector"
    ),
    "run_load": lambda: run_load(aegis_spec(9, 61, 512), ops=8, engine="vector"),
    "run_cluster_bench": lambda: run_cluster_bench(
        aegis_spec(9, 61, 512), ops=8, engine="vector"
    ),
    "cli-run": lambda: _parse("run", "fig5", "--engine", "vector"),
    "cli-serve-bench": lambda: _parse("serve-bench", "--engine", "vector"),
    "cli-cluster-bench": lambda: _parse("cluster-bench", "--engine", "vector"),
    "cli-fleet-bench": lambda: _parse("fleet-bench", "--engine", "vector"),
}


@pytest.mark.parametrize("surface", sorted(VECTOR_ENGINE_SURFACES))
def test_vector_is_not_an_engine_value(surface, capsys):
    if surface.startswith("cli-"):
        with pytest.raises(SystemExit):
            VECTOR_ENGINE_SURFACES[surface]()
        assert "invalid choice: 'vector'" in capsys.readouterr().err
    else:
        with pytest.raises(ConfigurationError, match="engine"):
            VECTOR_ENGINE_SURFACES[surface]()


@dataclass(frozen=True)
class ExtendedContext(ExecContext):
    """ExecContext plus one hypothetical new execution flag.

    Stands in for the 'add a new field' exercise: everything below passes
    with *no* changes to any driver, dispatcher, or study runner —
    the two real edits would be the field (here) and a CLI flag.
    """

    checkpoint: bool = False


class TestFieldAdditionIsTwoEdits:
    def test_from_args_picks_up_new_field_automatically(self):
        args = argparse.Namespace(seed=4, checkpoint=True)
        ctx = ExtendedContext.from_args(args)
        assert ctx.seed == 4 and ctx.checkpoint is True

    def test_with_options_and_cache_key_include_new_field(self):
        ctx = ExtendedContext().with_options(checkpoint=True)
        assert ctx.checkpoint is True
        assert ("checkpoint", True) in ctx.cache_key

    def test_dispatch_threads_extended_context_to_drivers_unchanged(self):
        from repro.experiments.base import ExperimentResult, register

        @register("zz-extended-probe")
        def runner(ctx, *, depth=1):
            return ExperimentResult(
                "zz-extended-probe", "t", ("checkpoint",),
                ((getattr(ctx, "checkpoint", None),),),
            )

        try:
            result = dispatch(
                "zz-extended-probe", ctx=ExtendedContext(checkpoint=True)
            )
            assert result.rows == ((True,),)
        finally:
            del REGISTRY["zz-extended-probe"]
            del ACCEPTED_OPTIONS["zz-extended-probe"]

    def test_run_study_accepts_extended_context(self):
        ctx = ExtendedContext(workers=1, checkpoint=True)
        assert run_study("probe", ctx, operator.mul, 3, range(4), reduce=sum) == 18


class TestDriversDeclareNoExecKnobs:
    """No driver re-declares what ExecContext owns — the refactor's point."""

    def test_no_driver_accepts_exec_fields_as_options(self):
        for experiment_id, accepted in ACCEPTED_OPTIONS.items():
            assert not accepted & {"seed", "workers", "engine"}, experiment_id

    def test_every_registered_driver_was_vetted(self):
        # registration is the enforcement point; every id present in the
        # registry must have passed it
        assert set(ACCEPTED_OPTIONS) == set(REGISTRY)

    def test_typo_option_fails_loudly_on_real_driver(self):
        with pytest.raises(ConfigurationError, match="worker"):
            run_experiment("ext-pairing", worker=4)
