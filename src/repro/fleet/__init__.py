"""Streaming fleet-campaign engine (ROADMAP open item 3).

A *campaign* simulates a fleet of pages — millions of blocks over years
of simulated traffic — under one or more recovery schemes, without ever
holding the fleet in memory.  The package exploits the same structural
trick Aegis applies to data blocks: partition the work so per-partition
state never interacts.  Every page's trajectory is a pure function of
``rng_for(seed, page)``, so workers can fold their chunk of pages into a
compact, commutatively-mergeable :class:`~repro.fleet.aggregate.SchemeAggregate`
and ship O(aggregate) bytes across the process boundary instead of
O(pages) pickled results.

Layers:

* :mod:`repro.fleet.aggregate` — the shard-side reduction contract:
  Welford moments, bounded lifetime histograms, exact retention counts,
  and the campaign digest.
* :mod:`repro.fleet.campaign` — the streaming runner: windowed
  scheduling over a persistent warm pool, deterministic merge order,
  JSONL checkpoint/resume, and the time-series/SLO feed.

Surfaced as ``repro fleet-bench`` and the ``ext-fleet`` experiment; its
IPC-reduction floor is in ``tests/test_fleet.py``, its memory and pool
floors in ``benchmarks/test_floors.py``.
"""

from repro.fleet.aggregate import (
    CampaignAggregate,
    SchemeAggregate,
    default_retention_edges,
)
from repro.fleet.campaign import (
    DEFAULT_CAMPAIGN_SCHEMES,
    FLEET_SCHEMES,
    WEAR_POLICIES,
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    default_fleet_slos,
    fleet_spec,
    read_checkpoint,
    run_campaign,
    wear_lifetime,
)

__all__ = [
    "DEFAULT_CAMPAIGN_SCHEMES",
    "FLEET_SCHEMES",
    "WEAR_POLICIES",
    "CampaignAggregate",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "SchemeAggregate",
    "default_fleet_slos",
    "default_retention_edges",
    "fleet_spec",
    "read_checkpoint",
    "run_campaign",
    "wear_lifetime",
]
