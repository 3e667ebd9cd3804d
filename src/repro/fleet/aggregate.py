"""Shard-side reduction contract for fleet campaigns.

The campaign engine never ships :class:`~repro.sim.page_sim.PageResult`
lists across the process boundary.  Each worker folds its chunk of pages
into a :class:`SchemeAggregate` — four Welford moment triples, two
bounded histograms and an exact retention counter — and only that
constant-size state crosses IPC.  The parent merges shard states in
deterministic chunk-index order, which together with Chan's exact
combination rule (:meth:`repro.util.stats.RunningMean.merge`) makes the
merged floats bit-identical for any worker count, either engine, and any
checkpoint/resume split of the stream.

Digest contract: :meth:`CampaignAggregate.digest` hashes the canonical
JSON of the statistical state only.  Transport byte counters
(``result_bytes``/``shard_bytes``) are *excluded* — pickle sizes are an
implementation detail of the wire, not of the simulated fleet.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram
from repro.util.stats import MeanEstimate, RunningMean

#: geometric ladder of retention-age multiples used to build default
#: histogram edges around a campaign's characteristic lifetime scale
_EDGE_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0)

#: moment accumulators carried per scheme, in serialization order
_MOMENT_FIELDS = ("lifetime", "baseline", "faults", "improvement")


def default_retention_edges(scale: float) -> tuple[float, ...]:
    """Histogram edges as a fixed ladder of multiples of ``scale``.

    ``scale`` is the campaign's characteristic page lifetime (model mean
    endurance divided by the write probability), so the buckets track the
    interesting region of the survival curve regardless of the endurance
    parameters chosen.
    """
    if scale <= 0:
        raise ConfigurationError(f"retention edge scale must be positive, got {scale}")
    return tuple(factor * scale for factor in _EDGE_FACTORS)


class SchemeAggregate:
    """Streaming reduction of one scheme's page results.

    Mergeable (:meth:`merge_state`) and serializable (:meth:`state`)
    with bit-exact float round-tripping, so the same class serves as the
    worker-side shard accumulator, the parent-side campaign state and the
    checkpoint payload.
    """

    __slots__ = (
        "edges",
        "retention_age",
        "pages",
        "retained",
        "lifetime",
        "baseline",
        "faults",
        "improvement",
        "lifetime_hist",
        "baseline_hist",
        "chunks",
        "result_bytes",
        "shard_bytes",
    )

    def __init__(self, edges: tuple[float, ...], retention_age: float) -> None:
        self.edges = tuple(float(edge) for edge in edges)
        self.retention_age = float(retention_age)
        self.pages = 0
        self.retained = 0
        self.lifetime = RunningMean()
        self.baseline = RunningMean()
        self.faults = RunningMean()
        self.improvement = RunningMean()
        self.lifetime_hist = Histogram(edges=self.edges)
        self.baseline_hist = Histogram(edges=self.edges)
        # transport accounting (not part of the digest)
        self.chunks = 0
        self.result_bytes = 0
        self.shard_bytes = 0

    def push(self, result) -> None:
        """Fold one :class:`~repro.sim.page_sim.PageResult` in."""
        self.pages += 1
        lifetime = float(result.lifetime_writes)
        baseline = float(result.baseline_lifetime)
        self.lifetime.push(lifetime)
        self.baseline.push(baseline)
        self.faults.push(float(result.faults_recovered))
        self.improvement.push(float(result.improvement))
        self.lifetime_hist.observe(lifetime)
        self.baseline_hist.observe(baseline)
        if lifetime > self.retention_age:
            self.retained += 1

    # -- serialization ------------------------------------------------

    def state(self) -> dict:
        """JSON-able shard state (full float precision via ``repr``)."""
        state = {
            "pages": self.pages,
            "retained": self.retained,
            "chunks": self.chunks,
            "result_bytes": self.result_bytes,
            "shard_bytes": self.shard_bytes,
        }
        for name in _MOMENT_FIELDS:
            state[name] = getattr(self, name).state()
        for name in ("lifetime_hist", "baseline_hist"):
            hist = getattr(self, name)
            state[name] = {"counts": list(hist.counts), "total": hist.total, "sum": hist.sum}
        return state

    @classmethod
    def from_state(
        cls, edges: tuple[float, ...], retention_age: float, state: Mapping
    ) -> "SchemeAggregate":
        """Bit-exact inverse of :meth:`state`."""
        agg = cls(edges, retention_age)
        agg.pages = int(state["pages"])
        agg.retained = int(state["retained"])
        agg.chunks = int(state.get("chunks", 0))
        agg.result_bytes = int(state.get("result_bytes", 0))
        agg.shard_bytes = int(state.get("shard_bytes", 0))
        for name in _MOMENT_FIELDS:
            setattr(agg, name, RunningMean.from_state(state[name]))
        for name in ("lifetime_hist", "baseline_hist"):
            payload = state[name]
            hist = getattr(agg, name)
            hist.counts = [int(count) for count in payload["counts"]]
            hist.total = int(payload["total"])
            hist.sum = float(payload["sum"])
        return agg

    def merge_state(self, state: Mapping) -> None:
        """Fold a worker shard's :meth:`state` into this aggregate.

        Exact for the integer fields; for the float moments the result
        depends on merge order, so callers must merge in chunk-index
        order (the campaign runner does).
        """
        self.pages += int(state["pages"])
        self.retained += int(state["retained"])
        self.chunks += int(state.get("chunks", 0))
        self.result_bytes += int(state.get("result_bytes", 0))
        self.shard_bytes += int(state.get("shard_bytes", 0))
        for name in _MOMENT_FIELDS:
            getattr(self, name).merge(RunningMean.from_state(state[name]))
        for name in ("lifetime_hist", "baseline_hist"):
            payload = state[name]
            hist = getattr(self, name)
            if len(payload["counts"]) != len(hist.counts):
                raise ConfigurationError("cannot merge shard histogram with different edges")
            hist.counts = [a + int(b) for a, b in zip(hist.counts, payload["counts"])]
            hist.total += int(payload["total"])
            hist.sum += float(payload["sum"])

    # -- derived views ------------------------------------------------

    @property
    def retention(self) -> float:
        """Fraction of pages whose lifetime exceeds the retention age."""
        return self.retained / self.pages if self.pages else 0.0

    def retention_curve(self) -> list[tuple[float, float]]:
        """``(age, fraction surviving beyond age)`` per histogram edge."""
        curve = []
        cumulative = 0
        for edge, count in zip(self.edges, self.lifetime_hist.counts):
            cumulative += count
            alive = 1.0 - cumulative / self.pages if self.pages else 0.0
            curve.append((edge, alive))
        return curve

    def lifetime_estimate(self, confidence: float = 0.95) -> MeanEstimate:
        return self.lifetime.estimate(confidence)

    @property
    def improvement_ratio(self) -> float:
        """Ratio of mean lifetimes — the paper's Figure 6 definition,
        robust where the mean of per-page ratios is not."""
        return self.lifetime.mean / self.baseline.mean if self.baseline.mean else 0.0

    def digest_state(self) -> dict:
        """The digest-bearing subset of :meth:`state`.

        Statistical state only: transport byte counters vary with pickle
        protocol and are excluded by contract.
        """
        state = self.state()
        for transport in ("result_bytes", "shard_bytes"):
            del state[transport]
        return state


class CampaignAggregate:
    """Per-scheme aggregates for one campaign, in scheme order."""

    __slots__ = ("schemes",)

    def __init__(self) -> None:
        self.schemes: dict[str, SchemeAggregate] = {}

    def scheme(
        self, name: str, edges: tuple[float, ...], retention_age: float
    ) -> SchemeAggregate:
        """The named scheme's aggregate, created on first use."""
        if name not in self.schemes:
            self.schemes[name] = SchemeAggregate(edges, retention_age)
        return self.schemes[name]

    @property
    def pages(self) -> int:
        return sum(agg.pages for agg in self.schemes.values())

    @property
    def result_bytes(self) -> int:
        return sum(agg.result_bytes for agg in self.schemes.values())

    @property
    def shard_bytes(self) -> int:
        return sum(agg.shard_bytes for agg in self.schemes.values())

    def state(self) -> dict:
        return {
            name: {
                "edges": list(agg.edges),
                "retention_age": agg.retention_age,
                "state": agg.state(),
            }
            for name, agg in self.schemes.items()
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "CampaignAggregate":
        campaign = cls()
        for name, payload in state.items():
            campaign.schemes[name] = SchemeAggregate.from_state(
                tuple(payload["edges"]), payload["retention_age"], payload["state"]
            )
        return campaign

    def digest(self) -> str:
        """sha256 over the canonical JSON of the statistical state.

        Floats serialize through ``repr`` (exact round-trip), keys are
        sorted, and transport counters are excluded, so two campaigns
        that simulated the same fleet — regardless of worker count,
        engine, window size or checkpoint splits — produce the same hex
        digest.
        """
        canonical = {name: agg.digest_state() for name, agg in sorted(self.schemes.items())}
        blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
