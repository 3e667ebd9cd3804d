"""Repeat statistics: medians, quartiles and latency percentiles."""

from __future__ import annotations

import statistics

import numpy as np

from perfbench.harness import Outcome


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of per-repeat values (all equal for one value)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(values: list[float], unit: str) -> dict:
    """Median and quartiles across repeats, with the repeat count.

    ``value`` is the figure the run reports for the metric: the median,
    unless the caller replaces it (see :func:`throughput`).
    """
    q1, median, q3 = quartiles([float(v) for v in values])
    return {"value": median, "median": median, "q1": q1, "q3": q3, "unit": unit,
            "repeats": len(values)}


def throughput(outcomes: list[Outcome], unit: str, *, same_work: bool = True) -> dict:
    """Work per reference second: the median and quartiles of the
    per-repeat rates.

    When each repeat does its own work (``same_work=False``), ``value`` is
    instead all the work over all the time, so every page weighs the same.
    """
    entry = summary([o.work / o.episode_s for o in outcomes], unit)
    if not same_work:
        entry["value"] = sum(o.work for o in outcomes) / sum(o.episode_s for o in outcomes)
    return entry


def latency_summaries(
    prefix: str, per_repeat_ns: list[np.ndarray]
) -> dict[str, dict]:
    """``<prefix>_p50_us`` and ``<prefix>_p99_us`` across repeats.

    Each repeat's percentile is taken over that repeat's samples; the
    summary carries the smallest per-repeat sample count and how many
    samples lay beyond the percentile in that repeat, so a reader can see
    whether the p99 rests on at least ten.
    """
    out = {}
    fewest = min(len(samples) for samples in per_repeat_ns)
    for label, q in (("p50", 50.0), ("p99", 99.0)):
        values = [float(np.percentile(s, q)) / 1e3 for s in per_repeat_ns]
        entry = summary(values, "us")
        entry["samples"] = fewest
        entry["beyond"] = int(fewest * (100.0 - q) / 100.0)
        out[f"{prefix}_{label}_us"] = entry
    return out
