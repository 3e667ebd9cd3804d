"""Experiment drivers: one module per paper table/figure.

Importing this package populates :data:`repro.experiments.REGISTRY`;
``run_experiment("fig5", n_pages=32)`` regenerates a single artefact and
``all_experiment_ids()`` lists everything available.
"""

from repro.experiments import (  # noqa: F401  (registration side effects)
    ext_adaptive,
    ext_bsweep,
    ext_cluster,
    ext_fleet,
    ext_freep,
    ext_frontier,
    ext_fullscale,
    ext_intrablock,
    ext_latency,
    ext_memblock,
    ext_pairing,
    ext_payg,
    ext_service,
    ext_softftc,
    ext_writecost,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table1,
)
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


def run_experiment(
    experiment_id: str, ctx: ExecContext | None = None, **options: object
) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``"table1"``, ``"fig8"``).

    ``ctx`` is the execution plane threaded into the driver (seed,
    workers, engine, observability); legacy ``seed=``/``workers=``/
    ``engine=`` kwargs are folded into it, and any other option the
    driver does not declare raises (see :func:`repro.experiments.base.dispatch`).

    Each run is wrapped in an ``experiment`` span on the process-wide
    tracer, so ``repro run --trace`` attributes study phases to the
    artefact that requested them.
    """
    if experiment_id not in REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(sorted(REGISTRY))}"
        )
    from repro.obs import get_tracer

    with get_tracer().span("experiment", id=experiment_id):
        return dispatch(experiment_id, ctx=ctx, **options)


def all_experiment_ids() -> list[str]:
    """All registered experiment ids, in paper order."""
    order = [
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "ext-adaptive",
        "ext-bsweep",
        "ext-cluster",
        "ext-fleet",
        "ext-freep",
        "ext-frontier",
        "ext-fullscale",
        "ext-intrablock",
        "ext-latency",
        "ext-memblock",
        "ext-payg",
        "ext-pairing",
        "ext-service",
        "ext-softftc",
        "ext-writecost",
    ]
    return [e for e in order if e in REGISTRY] + sorted(set(REGISTRY) - set(order))


__all__ = [
    "ACCEPTED_OPTIONS",
    "REGISTRY",
    "ExecContext",
    "ExperimentResult",
    "all_experiment_ids",
    "clear_study_cache",
    "dispatch",
    "register",
    "run_experiment",
    "shared_page_studies",
]
