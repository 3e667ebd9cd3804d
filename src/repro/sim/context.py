"""The unified execution plane: one :class:`ExecContext` for every study.

Before this module existed the repository had four execution harnesses:
``page_sim`` studies took ``workers=``/``engine=`` kwargs, while the
pairing, PAYG and FREE-p remap simulators each hand-rolled a serial
per-page loop, and every experiment driver re-declared the same knobs.
Adding one execution flag meant editing a dozen drivers.

:class:`ExecContext` is the single carrier of *how* a study executes —
seed, worker count, engine selection, fault model — created
once (``repro.cli`` builds it from the parsed arguments) and threaded
through ``repro.experiments`` into every simulator.  Two properties make
the plane uniform:

* **Field additions are two edits.**  :meth:`ExecContext.from_args` maps
  argparse attributes to fields by name, and drivers receive the whole
  context object, so a new execution flag touches this dataclass and the
  CLI parser — nothing else (asserted in ``tests/test_exec_plane.py``).
* **Execution never changes results.**  ``seed`` and ``fault_model`` are
  the only fields that may alter a simulated number (the fault model is a
  *scenario* knob, deliberately carried here so every driver honors it);
  ``workers`` and ``engine`` are pure performance knobs under the
  substream contract of
  :mod:`repro.sim.rng`.  Memoisation layers still key on
  :attr:`cache_key` — the *full* context — so mixed-engine or
  mixed-worker invocations can never alias a cached artefact that was
  produced under different settings.

Tracing and metrics are not context fields: the CLI installs the
process-global tracer and metrics registry of :mod:`repro.obs`, and the
simulators read those directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ConfigurationError

#: the public engine switch values (repro.sim.kernels and the CLI import
#: this tuple): ``"auto"`` takes a batch kernel wherever one covers the
#: scheme, ``"scalar"`` never does
ENGINE_CHOICES = ("auto", "scalar")

#: the public fault-model switch values (mirrors
#: repro.pcm.faults.FAULT_MODEL_CHOICES, duplicated for the same reason)
FAULT_MODEL_CHOICES = ("hard", "partial", "drift")


@dataclass(frozen=True)
class ExecContext:
    """How a study executes: seed, fan-out, engine, fault model.

    Frozen and picklable; every field has a default so ``ExecContext()``
    is the serial, auto-engine context the tests use.  ``workers=None``
    (or 0) means all CPU cores, matching :func:`repro.sim.parallel.resolve_workers`.
    """

    seed: int = 2013
    workers: int | None = 1
    engine: str = "auto"
    fault_model: str = "hard"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_CHOICES:
            raise ConfigurationError(
                f"engine must be one of {ENGINE_CHOICES}, got {self.engine!r}"
            )
        if self.fault_model not in FAULT_MODEL_CHOICES:
            raise ConfigurationError(
                f"fault model must be one of {FAULT_MODEL_CHOICES}, "
                f"got {self.fault_model!r}"
            )
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(
                f"workers must be non-negative or None, got {self.workers}"
            )

    @classmethod
    def from_args(cls, args: object, **overrides: object) -> "ExecContext":
        """Build a context from an ``argparse.Namespace``.

        Fields are matched to argument attributes *by name*.  Attributes
        the namespace lacks keep their defaults, which is what lets a new
        field reach every driver by editing only this class and the CLI
        parser.
        """
        values: dict[str, object] = {}
        for field in fields(cls):
            if field.name in overrides:
                values[field.name] = overrides[field.name]
            elif hasattr(args, field.name):
                values[field.name] = getattr(args, field.name)
        return cls(**values)

    def with_options(self, **overrides: object) -> "ExecContext":
        """A copy with ``overrides`` applied; unknown names raise.

        The strict counterpart of ``dataclasses.replace`` used by the
        experiment dispatcher to fold legacy ``seed=``/``workers=``/
        ``engine=`` kwargs into the context.
        """
        known = {field.name for field in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown ExecContext field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        return replace(self, **overrides)  # type: ignore[arg-type]

    @property
    def cache_key(self) -> tuple:
        """Every field as a hashable tuple, for memoisation keys.

        Deliberately the *full* context: workers and engine do not change
        simulated numbers, but keying on them guarantees a cache can
        never hand back an artefact produced under different execution
        settings (mixed-engine invocations must not alias).
        """
        return tuple((field.name, getattr(self, field.name)) for field in fields(self))

    def describe(self) -> str:
        """One-line human-readable form (used by reports and logs).

        The fault model only appears when it deviates from the hard
        default, keeping every historical report string stable.
        """
        workers = "all-cores" if self.workers in (None, 0) else str(self.workers)
        line = f"seed={self.seed} workers={workers} engine={self.engine}"
        if self.fault_model != "hard":
            line += f" fault-model={self.fault_model}"
        return line
