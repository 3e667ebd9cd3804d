"""Declarative SLOs, error budgets and burn-rate alerting.

An :class:`SLOSpec` states an objective against the time series a
:class:`~repro.obs.timeseries.TimeSeriesRecorder` collects:

* **ratio** — a bad/total counter ratio stays under the objective
  (``writes_total{outcome=lost} / writes_total < 0.001``);
* **quantile** — a histogram quantile stays under a bound
  (``p99(stage_cost{stage=differential_write}) < 640``); per bucket the
  "bad" events are the observations *above* the bound, so the objective
  is the tolerated tail mass ``1 - q``;
* **retention** — a gauge stays at or above a minimum
  (``capacity_retention{scope=cluster} >= 0.9``); sampled buckets where
  it dips below are the bad events.

Every kind reduces to per-bucket ``(bad, total)`` arrays, which makes
budgets and burn rates uniform: the **error budget** over a window is
``objective * total`` bad events, and the **burn rate** of a bucket
window is ``(bad / total) / objective`` — 1.0 means "consuming budget
exactly as fast as the objective allows", higher means the budget dies
early.  Alerts follow the SRE multi-window rule: a spec fires only when
*both* its fast window (responsive) and slow window (de-noised) burn
above the threshold, and an :class:`AlertEvent` is emitted on each
rising edge.  Events carry the op-clock bucket, never wall time, so
alert sequences are bit-identical across worker counts and engines —
and :meth:`SLOEngine.poll` gives the cluster control plane the same
rising edges incrementally, which is what lets ``maintenance()`` *act*
on an alert deterministically.

Specs are built with the :meth:`SLOSpec.ratio`, :meth:`SLOSpec.quantile`
and :meth:`SLOSpec.retention` constructors; :func:`write_slo_jsonl`
writes the one series artifact ``repro obs-report --series`` reads.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.timeseries import TimeSeriesRecorder

__all__ = [
    "AlertEvent",
    "SLOEngine",
    "SLOSpec",
    "default_cluster_slos",
    "default_service_slos",
    "write_slo_jsonl",
]

#: spec kinds understood by the engine
_KINDS = ("ratio", "quantile", "retention")


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective (frozen: usable as a dict key).

    ``fast_window``/``slow_window`` are bucket counts; ``burn_threshold``
    is the burn rate both windows must reach for the alert to fire;
    ``action`` names the control-plane reaction (``"migrate"`` asks
    :meth:`repro.cluster.service.ClusterService.maintenance` to sweep
    degraded keys off their arrays; ``""`` is observe-only).
    """

    name: str
    kind: str
    objective: float
    series: str
    bad_series: str = ""
    q: float = 0.99
    bound: float = 0.0
    fast_window: int = 1
    slow_window: int = 8
    burn_threshold: float = 2.0
    action: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown SLO kind: {self.kind!r}")
        if not 0.0 < self.objective <= 1.0:
            raise ConfigurationError("SLO objective must be in (0, 1]")
        if self.fast_window < 1 or self.slow_window < self.fast_window:
            raise ConfigurationError(
                "SLO windows must satisfy 1 <= fast_window <= slow_window"
            )
        if self.burn_threshold <= 0:
            raise ConfigurationError("SLO burn threshold must be positive")
        if self.kind == "retention" and self.bound <= 0:
            raise ConfigurationError(
                "retention minimum must be positive (a non-positive bound "
                "can never be violated)"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def ratio(
        cls, name: str, bad: str, total: str, *, objective: float, **kwargs: object
    ) -> "SLOSpec":
        """Bad/total counter ratio must stay under ``objective``."""
        return cls(name=name, kind="ratio", objective=objective,
                   series=total, bad_series=bad, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def quantile(
        cls, name: str, series: str, *, q: float, bound: float, **kwargs: object
    ) -> "SLOSpec":
        """The ``q``-quantile of a histogram must stay under ``bound``."""
        return cls(name=name, kind="quantile", objective=round(1.0 - q, 9),
                   series=series, q=q, bound=bound, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def retention(
        cls,
        name: str,
        series: str,
        *,
        minimum: float,
        objective: float = 0.05,
        **kwargs: object,
    ) -> "SLOSpec":
        """A gauge must stay >= ``minimum`` in all but an ``objective``
        fraction of sampled buckets."""
        return cls(name=name, kind="retention", objective=objective,
                   series=series, bound=minimum, **kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """One-line human-readable form of the objective."""
        if self.kind == "ratio":
            return f"{self.bad_series} / {self.series} < {self.objective:g}"
        if self.kind == "quantile":
            return f"p{self.q * 100:g}({self.series}) < {self.bound:g}"
        return f"{self.series} >= {self.bound:g}"


@dataclass(frozen=True)
class AlertEvent:
    """A burn-rate alert rising edge, on the op-clock time axis."""

    slo: str
    bucket: int
    clock: int
    burn_fast: float
    burn_slow: float
    action: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_selector(text: str) -> tuple[str, dict[str, str]]:
    """A spec-side series selector: bare name or ``name{k=v,...}`` with
    optionally-quoted label values."""
    text = text.strip()
    if "{" not in text:
        if not re.fullmatch(r"[\w:]+", text):
            raise ConfigurationError(f"unparseable series selector: {text!r}")
        return text, {}
    if not text.endswith("}"):
        raise ConfigurationError(f"unparseable series selector: {text!r}")
    name, body = text[:-1].split("{", 1)
    labels: dict[str, str] = {}
    if body.strip():
        for part in body.split(","):
            if "=" not in part:
                raise ConfigurationError(f"unparseable series selector: {text!r}")
            key, value = part.split("=", 1)
            labels[key.strip()] = value.strip().strip('"')
    return name.strip(), labels


def default_service_slos() -> tuple[SLOSpec, ...]:
    """SLOs every single-array service run can evaluate."""
    return (
        SLOSpec.ratio(
            "write_loss",
            "writes_total{outcome=lost}",
            "writes_total",
            objective=0.001,
            burn_threshold=2.0,
        ),
        SLOSpec.quantile(
            "drain_cost_p99",
            "stage_cost{stage=differential_write}",
            q=0.99,
            bound=640.0,
            burn_threshold=2.0,
        ),
    )


def default_cluster_slos() -> tuple[SLOSpec, ...]:
    """The cluster control plane's SLO roster.

    ``degrade_burst`` is the feedback hook: its alert carries
    ``action="migrate"``, which :meth:`ClusterService.maintenance` turns
    into an immediate sweep of degraded keys (see docs/observability.md).
    """
    return default_service_slos() + (
        SLOSpec.ratio(
            "degrade_burst",
            "health_transitions_total{to=degraded}",
            "writes_total",
            objective=0.02,
            fast_window=1,
            slow_window=4,
            burn_threshold=2.0,
            action="migrate",
        ),
        SLOSpec.retention(
            "capacity_retention",
            "capacity_retention{scope=cluster}",
            minimum=0.9,
            objective=0.05,
            fast_window=1,
            slow_window=4,
            burn_threshold=2.0,
        ),
    )


class SLOEngine:
    """Evaluate :class:`SLOSpec`s against a recorder's buckets."""

    def __init__(
        self, recorder: TimeSeriesRecorder, specs: tuple[SLOSpec, ...] | list[SLOSpec]
    ) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError("SLO spec names must be unique")
        self.recorder = recorder
        self.specs = tuple(specs)
        # poll() memory: absolute buckets already alerted per spec, so the
        # control plane sees each rising edge exactly once across polls
        self._alerted: dict[str, set[int]] = {spec.name: set() for spec in self.specs}

    # -- per-spec series -----------------------------------------------------

    def _bad_total(self, spec: SLOSpec) -> tuple[np.ndarray, np.ndarray]:
        """Per-bucket ``(bad, total)`` event counts for a spec."""
        recorder = self.recorder
        if spec.kind == "ratio":
            bad_name, bad_labels = _parse_selector(spec.bad_series)
            total_name, total_labels = _parse_selector(spec.series)
            bad = recorder.counter_view(bad_name, **bad_labels).astype(np.float64)
            total = recorder.counter_view(total_name, **total_labels).astype(np.float64)
            return bad, total
        if spec.kind == "quantile":
            name, labels = _parse_selector(spec.series)
            view = recorder.histogram_view(name, **labels)
            if view is None:
                empty = np.zeros(recorder.bucket_count, dtype=np.float64)
                return empty, empty.copy()
            edges, counts, totals, _sums = view
            # observations in buckets whose inclusive upper edge is <= bound
            # are within the objective; everything else (incl. overflow) is bad
            good_buckets = sum(1 for edge in edges if edge <= spec.bound)
            good = counts[:, :good_buckets].sum(axis=1) if good_buckets else 0
            total = totals.astype(np.float64)
            return total - good, total
        # retention: bad = sampled buckets where the gauge dips below minimum
        name, labels = _parse_selector(spec.series)
        values = recorder.gauge_view(name, **labels)
        sampled = recorder.sampled_mask()
        total = sampled.astype(np.float64)
        bad = (sampled & (values < spec.bound)).astype(np.float64)
        return bad, total

    @staticmethod
    def _burn(
        bad: np.ndarray, total: np.ndarray, window: int, objective: float
    ) -> np.ndarray:
        """Trailing-window burn rate per bucket (0 where the window saw
        no events; always finite)."""
        if bad.size == 0:
            return np.zeros(0, dtype=np.float64)
        kernel = np.ones(window, dtype=np.float64)
        bad_sum = np.convolve(bad, kernel)[: bad.size]
        total_sum = np.convolve(total, kernel)[: bad.size]
        out = np.zeros(bad.size, dtype=np.float64)
        mask = total_sum > 0
        out[mask] = (bad_sum[mask] / total_sum[mask]) / objective
        return out

    def _fired(
        self, spec: SLOSpec, bad: np.ndarray, total: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-bucket ``(fired, burn_fast, burn_slow)`` of a spec's
        ``(bad, total)`` series."""
        fast = self._burn(bad, total, spec.fast_window, spec.objective)
        slow = self._burn(bad, total, spec.slow_window, spec.objective)
        fired = (fast >= spec.burn_threshold) & (slow >= spec.burn_threshold)
        return fired, fast, slow

    def _events(
        self, spec: SLOSpec, fired: np.ndarray, fast: np.ndarray, slow: np.ndarray
    ) -> list[AlertEvent]:
        """Rising-edge alert events over the retained window."""
        recorder = self.recorder
        events: list[AlertEvent] = []
        previous = False
        for index, firing in enumerate(fired.tolist()):
            if firing and not previous:
                bucket = recorder.start_bucket + index
                events.append(
                    AlertEvent(
                        slo=spec.name,
                        bucket=bucket,
                        clock=(bucket + 1) * recorder.bucket_width,
                        burn_fast=round(float(fast[index]), 6),
                        burn_slow=round(float(slow[index]), 6),
                        action=spec.action,
                    )
                )
            previous = firing
        return events

    # -- reporting -----------------------------------------------------------

    def evaluate(self) -> dict:
        """Full evaluation: per-spec budget accounting, burn-rate series
        and alert events over the retained window (deterministic; safe
        to fold into digested snapshots)."""
        report: dict = {
            "buckets": self.recorder.bucket_count,
            "bucket_width": self.recorder.bucket_width,
            "start_bucket": self.recorder.start_bucket,
            "slos": {},
        }
        for spec in self.specs:
            bad, total = self._bad_total(spec)
            fired, fast, slow = self._fired(spec, bad, total)
            events = self._events(spec, fired, fast, slow)
            total_events = float(total.sum())
            bad_events = float(bad.sum())
            budget = spec.objective * total_events
            consumed = bad_events / budget if budget > 0 else 0.0
            report["slos"][spec.name] = {
                "kind": spec.kind,
                "objective": spec.objective,
                "description": spec.describe(),
                "action": spec.action,
                "events": int(total_events),
                "bad": int(bad_events),
                "budget": round(budget, 6),
                "budget_consumed": round(consumed, 6),
                "budget_left_fraction": round(max(0.0, 1.0 - consumed), 6),
                "violating_buckets": int(fired.sum()),
                "burn_fast": [round(float(v), 6) for v in fast],
                "burn_slow": [round(float(v), 6) for v in slow],
                "alerts": [event.to_dict() for event in events],
            }
        return report

    def poll(self) -> tuple[list[AlertEvent], frozenset[str]]:
        """``(new_alerts, active_actions)`` from one read of each spec's
        series.

        ``new_alerts`` are the rising-edge alerts since the previous poll:
        the edges :meth:`evaluate` reports, minus the buckets already
        alerted.  Each spec remembers which buckets it alerted on, so the
        control plane sees each rising edge exactly once however often it
        polls.  A bucket's firing state is *not* monotonic: the newest,
        still-filling bucket can fire on an early burst of bad ops and
        stop firing once later good ops dilute its ratio.  An alert it
        raised while firing stays raised (the bucket is remembered), even
        though a later :meth:`evaluate` may report no edge there.  Evicted
        buckets are forgotten (their data is gone; they can never re-fire).

        ``active_actions`` is the level-triggered view: the actions of
        specs whose *newest* bucket is firing now.  Alert events are
        edge-triggered, but the control plane keeps acting for as long as
        the burn condition holds, not only at the instant it first crossed
        the threshold.  Empty-string actions (observe-only specs) are
        never included.
        """
        fresh: list[AlertEvent] = []
        active: set[str] = set()
        start = self.recorder.start_bucket
        for spec in self.specs:
            alerted = self._alerted[spec.name]
            alerted.difference_update({bucket for bucket in alerted if bucket < start})
            fired, fast, slow = self._fired(spec, *self._bad_total(spec))
            new = [
                event
                for event in self._events(spec, fired, fast, slow)
                if event.bucket not in alerted
            ]
            alerted.update(event.bucket for event in new)
            fresh.extend(new)
            if spec.action and fired.size and bool(fired[-1]):
                active.add(spec.action)
        return fresh, frozenset(active)


def write_slo_jsonl(
    path: str, recorder: TimeSeriesRecorder | None, specs: tuple[SLOSpec, ...]
) -> int:
    """Write the series export plus the verdicts and alerts of ``specs``
    as one JSONL artifact (the file ``repro obs-report --series``
    consumes); returns the line count.

    The only series writer: a run that recorded no series passes its
    ``None`` recorder here and gets a typed error.
    """
    if recorder is None:
        raise ConfigurationError(
            "time series were not recorded for this run (pass series_bucket >= 1)"
        )
    report = SLOEngine(recorder, specs).evaluate()
    records = recorder.export_records()
    for name, entry in report["slos"].items():
        records.append({"record": "slo", "name": name, **entry})
        for alert in entry["alerts"]:
            records.append({"record": "alert", **alert})
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)
