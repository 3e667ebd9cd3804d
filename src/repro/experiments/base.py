"""Experiment infrastructure: results, registry, and shared page studies.

Every paper table/figure has a driver module exposing
``run(ctx, **options) -> ExperimentResult``: the first parameter is the
:class:`~repro.sim.context.ExecContext` carrying *how* the study executes
(seed, workers, engine, observability), the keyword parameters are the
driver's own scale knobs (``n_pages``, ``trials``, …).  Results carry the
rendered table plus machine-readable rows so benchmarks and tests can
assert on them.

Registration is strict: :func:`register` rejects drivers that declare a
``**kwargs`` catch-all (which used to swallow mistyped options like
``worker=4`` silently) or that re-declare execution fields owned by the
context, and :func:`dispatch` raises on any option the driver does not
accept — except the :data:`COMMON_OPTIONS` scale knobs the CLI passes to
every experiment, which are filtered to each driver's signature.

``shared_page_studies`` memoises the expensive page-level Monte Carlo runs
within a process: Figures 5, 6 and 7 (and 11, 12, 13) are different views
of the *same* simulations, exactly as in the paper.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sim.context import ExecContext
from repro.sim.page_sim import PageStudy, run_page_study
from repro.sim.roster import SchemeSpec
from repro.util.tables import render_table


@dataclass(frozen=True)
class ExperimentResult:
    """One regenerated table or figure.

    ``chart`` optionally declares how to draw the artefact as a text chart:
    ``{"type": "bar", "label": <header>, "value": <header>}`` or
    ``{"type": "line", "x": <header>, "series": [<header>, ...]}``.
    """

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    notes: tuple[str, ...] = ()
    chart: dict | None = None

    def render(self) -> str:
        parts = [render_table(self.headers, self.rows, title=f"## {self.title}")]
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def render_chart(self) -> str | None:
        """Draw the declared chart, or ``None`` when the experiment is
        purely tabular."""
        from repro.util.charts import bar_chart, line_chart

        if self.chart is None:
            return None
        if self.chart["type"] == "bar":
            labels = [str(v) for v in self.column(self.chart["label"])]
            values = [float(v) for v in self.column(self.chart["value"])]
            return bar_chart(labels, values, title=f"## {self.title} [chart]")
        if self.chart["type"] == "line":
            xs = [float(v) for v in self.column(self.chart["x"])]
            series = {
                name: [float(v) for v in self.column(name)]
                for name in self.chart["series"]
            }
            return line_chart(
                xs, series, title=f"## {self.title} [chart]",
                x_label=self.chart["x"],
            )
        raise ValueError(f"unknown chart type {self.chart['type']!r}")

    def column(self, header: str) -> list[object]:
        """All values of one column, by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the CLI's ``--json``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "chart": self.chart,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (row cells come back as JSON types)."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            headers=tuple(payload["headers"]),
            rows=tuple(tuple(row) for row in payload["rows"]),
            notes=tuple(payload.get("notes", ())),
            chart=payload.get("chart"),
        )


#: experiment id -> runner; populated by repro.experiments.__init__
REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}

#: scale options the CLI hands to *every* experiment; filtered to each
#: driver's signature rather than raising, so ``repro run all --trials N``
#: works even though closed-form experiments take no trial count
COMMON_OPTIONS: frozenset[str] = frozenset({"n_pages", "trials", "block_bits"})

#: execution fields owned by ExecContext; accepted as legacy kwargs by
#: :func:`dispatch` (folded into the context) but forbidden as driver
#: parameters — drivers read them from ``ctx``
EXEC_OPTIONS: frozenset[str] = frozenset({"seed", "workers", "engine", "fault_model"})

#: experiment id -> keyword names its driver accepts (beyond ``ctx``)
ACCEPTED_OPTIONS: dict[str, frozenset[str]] = {}


def register(experiment_id: str) -> Callable:
    """Decorator adding a runner to the registry under ``experiment_id``.

    Validates the driver signature at import time: the first parameter
    must be the ``ctx`` execution context, every option must be declared
    explicitly (no ``**kwargs`` catch-all — that is how a typo like
    ``worker=4`` used to run serially without complaint), and none may
    shadow an ExecContext field.
    """

    def decorate(runner: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        parameters = list(inspect.signature(runner).parameters.values())
        if not parameters or parameters[0].name != "ctx":
            raise ConfigurationError(
                f"driver for {experiment_id!r} must take the ExecContext "
                f"as its first parameter 'ctx'"
            )
        for parameter in parameters:
            if parameter.kind is inspect.Parameter.VAR_KEYWORD:
                raise ConfigurationError(
                    f"driver for {experiment_id!r} declares a '**{parameter.name}' "
                    f"catch-all, which would swallow mistyped options; "
                    f"declare every option explicitly"
                )
            if parameter.name in EXEC_OPTIONS:
                raise ConfigurationError(
                    f"driver for {experiment_id!r} re-declares "
                    f"{parameter.name!r}, which is owned by ExecContext; "
                    f"read it from ctx instead"
                )
        REGISTRY[experiment_id] = runner
        ACCEPTED_OPTIONS[experiment_id] = frozenset(
            parameter.name for parameter in parameters[1:]
        )
        return runner

    return decorate


def dispatch(
    experiment_id: str, ctx: ExecContext | None = None, **options: object
) -> ExperimentResult:
    """Validate ``options`` and invoke a registered driver with ``ctx``.

    Legacy ``seed=``/``workers=``/``engine=`` kwargs are folded into the
    context (explicit ``ctx`` fields they collide with are overridden),
    :data:`COMMON_OPTIONS` are filtered to the driver's signature, and
    anything else the driver does not accept raises — the typo
    ``worker=4`` fails loudly instead of running serially.
    """
    runner = REGISTRY[experiment_id]
    accepted = ACCEPTED_OPTIONS[experiment_id]
    ctx = ctx if ctx is not None else ExecContext()
    exec_overrides = {
        name: options.pop(name) for name in tuple(options) if name in EXEC_OPTIONS
    }
    if exec_overrides:
        ctx = ctx.with_options(**exec_overrides)
    unknown = sorted(set(options) - accepted - COMMON_OPTIONS)
    if unknown:
        raise ConfigurationError(
            f"unknown option(s) for {experiment_id!r}: {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(accepted | COMMON_OPTIONS | EXEC_OPTIONS))}"
        )
    filtered = {name: value for name, value in options.items() if name in accepted}
    return runner(ctx, **filtered)


@dataclass
class _StudyCache:
    studies: dict[tuple, PageStudy] = field(default_factory=dict)


_CACHE = _StudyCache()


def shared_page_studies(
    specs: Sequence[SchemeSpec],
    *,
    n_pages: int,
    ctx: ExecContext | None = None,
) -> list[PageStudy]:
    """Page studies for a roster, memoised per (spec, n_pages, ExecContext).

    ``ctx`` carries the execution plane.  The memo key includes the *full*
    context (not just the seed): workers and engine never change the
    simulated numbers, but keying on them guarantees mixed-engine or
    mixed-worker invocations within one process can never alias a study
    computed under different execution settings."""
    if ctx is None:
        ctx = ExecContext()
    out = []
    for spec in specs:
        key = (spec.key, spec.n_bits, n_pages, ctx.cache_key)
        if key not in _CACHE.studies:
            _CACHE.studies[key] = run_page_study(spec, n_pages=n_pages, ctx=ctx)
        out.append(_CACHE.studies[key])
    return out


def clear_study_cache() -> None:
    """Drop memoised page studies (used by tests)."""
    _CACHE.studies.clear()
