"""``study-static`` and ``study-sampled``: serial page studies on two rosters.

This is what regenerating Fig. 5 and Figs. 11-13 costs.  The *static*
roster is covered by the batch kernels of ``repro.sim.kernels``; the
*sampled* roster has no kernel and runs the scalar checkers of
``repro.sim.checkers``.  Each roster is its own workload, so a change to
one path moves one workload's throughput and the other workload shows
that it bypassed the change.  Every call is
``run_page_study(workers=1, engine="auto")`` on 4 KB pages; ``service``,
``cluster`` and TCP are never touched.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import collision, formations, geometry, partition
from repro.sim import roster
from repro.sim.page_sim import run_page_study

from perfbench.harness import Outcome, Stopwatch
from perfbench.stats import throughput

STATIC = {
    "ecp6": lambda: roster.ecp_spec(6, 512),
    "safer64": lambda: roster.safer_spec(64, 512),
    "safer128": lambda: roster.safer_spec(128, 512),
    "aegis-17x31": lambda: roster.aegis_spec(17, 31, 512),
    "aegis-9x61": lambda: roster.aegis_spec(9, 61, 512),
}
SAMPLED = {
    "aegis-rw-17x31": lambda: roster.aegis_rw_spec(17, 31, 512),
    "aegis-rw-9x61": lambda: roster.aegis_rw_spec(9, 61, 512),
    "aegis-rw-p-9x61-p9": lambda: roster.aegis_rw_p_spec(9, 61, 9, 512),
    "rdis-3": lambda: roster.rdis_spec(512),
    "safer64-cache": lambda: roster.safer_cache_spec(64, 512),
}

#: (pages per call, calls per repeat).  The host is probed after every
#: call, so the costly sampled schemes run one page per call.  A page's
#: cost varies by 30-50% with its endurance draws, so every repeat draws
#: fresh pages (:func:`call_seed`) and a run's throughput averages over
#: every page it simulated; the counts keep a repeat to a few seconds with
#: no scheme dominating it.  Batches of 8-24 pages keep a static kernel
#: call's arrays small: with 96-page calls the process's peak memory
#: moved between 166 and 181 MB with the draws, now between 74 and 77 MB.
CALLS = {
    "ecp6": (24, 4),
    "safer64": (10, 4),
    "safer128": (12, 3),
    "aegis-17x31": (12, 4),
    "aegis-9x61": (8, 4),
    "aegis-rw-17x31": (8, 6),
    "aegis-rw-9x61": (2, 5),
    "aegis-rw-p-9x61-p9": (1, 4),
    "rdis-3": (8, 6),
    "safer64-cache": (1, 5),
}

#: the formations behind the roster's Aegis keys, rebuilt cold per set-up
FORMATIONS = ((17, 31), (9, 61))
CORE_CACHES = (
    formations.formation,
    geometry.rectangle_for,
    geometry.minimal_rectangle,
    partition.partition_for,
    collision.collision_rom_for,
)

#: a small fixed study per scheme whose digest must equal the one
#: recorded with ``engine="scalar"`` in ``scalar_digests.json``; it pins
#: the results of the scalar checkers, which no in-run reference can do
#: for schemes that only have the scalar engine
CANARY = {"n_pages": 2, "blocks_per_page": 8, "seed": 2013}
RECORDED_PATH = Path(__file__).with_name("scalar_digests.json")
RECORDED: dict[str, str] = json.loads(RECORDED_PATH.read_text())


@dataclass(frozen=True)
class Inputs:
    seed: int
    #: per roster key: the page count of each call of a repeat, in order
    calls: dict[str, list[int]]

    @property
    def pages(self) -> dict[str, int]:
        return {key: sum(calls) for key, calls in self.calls.items()}


def call_seed(seed: int, round_index: int, position: int, index: int) -> int:
    """The study seed of call ``index`` of the roster's ``position``-th key
    in round ``round_index`` of the run with workload seed ``seed``.

    Each key draws its own pages: a long-lived page is costly for every
    scheme, so shared draws would add the schemes' cost swings up instead
    of averaging them out.
    """
    return ((seed * 1000 + round_index) * 10 + position) * 100 + index


def build_core_tables() -> None:
    """Cold-build the formation, partition and collision-ROM tables."""
    for cached in CORE_CACHES:
        cached.cache_clear()
    for a_size, b_size in FORMATIONS:
        form = formations.formation(a_size, b_size, 512)
        partition.partition_for(form.rect)
        collision.collision_rom_for(form.rect)


def results_digest(studies) -> str:
    digest = hashlib.sha256()
    for study in studies:
        for result in study.results:
            digest.update(
                repr(
                    (result.lifetime_writes, result.faults_recovered, result.baseline_lifetime)
                ).encode()
            )
    return digest.hexdigest()[:16]


def canary_digest(spec, engine: str) -> str:
    """The canary study's digest for one scheme.

    ``scalar_digests.json`` holds ``canary_digest(spec, "scalar")`` for
    every key of both rosters; rewrite it only when a change is meant to
    alter the simulated results.
    """
    return results_digest([run_page_study(spec, workers=1, engine=engine, **CANARY)])


class RosterStudy:
    """One roster as a workload (see the module docstring)."""

    def __init__(self, name: str, keys: dict) -> None:
        self.roster = keys
        self.THROUGHPUT = f"{name}_pages_per_s"

    def make_inputs(self, seed: int, scale: str) -> Inputs:
        calls = {}
        for key in self.roster:
            pages, count = CALLS[key] if scale == "full" else (1, 1)
            calls[key] = [pages] * count
        return Inputs(seed=seed, calls=calls)

    def repeat(self, inputs: Inputs, recorder, round_index: int) -> Outcome:
        outcome = Outcome()
        watch = Stopwatch(recorder)
        with recorder.span("setup"):
            with recorder.span("core.tables"):
                build_core_tables()
            specs = {key: factory() for key, factory in self.roster.items()}
            for spec in specs.values():
                # builds the checker-side caches (SAFER vectors, kernel ROMs);
                # a fixed seed keeps the run's own pages out of set-up time
                run_page_study(spec, n_pages=1, blocks_per_page=1, seed=CANARY["seed"], workers=1)
        outcome.setup_s = watch.split()
        start = time.perf_counter()
        with recorder.span("episode"):
            for position, (key, spec) in enumerate(specs.items()):
                studies = []
                with recorder.span(f"sim.{key}"):
                    for index, pages in enumerate(inputs.calls[key]):
                        seed = call_seed(inputs.seed, round_index, position, index)
                        studies.append(run_page_study(
                            spec, n_pages=pages, seed=seed, workers=1, engine="auto"
                        ))
                        outcome.episode_s += watch.split()
                outcome.digests[key] = results_digest(studies)
                outcome.digests[f"{key}.call0"] = results_digest(studies[:1])
        outcome.wall_s = time.perf_counter() - start
        outcome.work = sum(inputs.pages.values())
        return outcome

    def verify(self, inputs: Inputs, outcomes: list[Outcome], recorder) -> list[str]:
        """Repeats of one round (traced and untraced) yield the same
        digests; the canary matches the recorded ``engine="scalar"``
        digests; and the first call of round 0 matches a replay on the
        scalar engine, which for a key with a batch kernel is the other
        engine."""
        failures = []
        first = {}
        for outcome in outcomes:
            if first.setdefault(outcome.round, outcome.digests) != outcome.digests:
                failures.append(f"study: the repeats of round {outcome.round} disagree")
        for position, (key, factory) in enumerate(self.roster.items()):
            spec = factory()
            canary = canary_digest(spec, "auto")
            if canary != RECORDED[key]:
                failures.append(
                    f"study {key}: canary digest {canary} != recorded scalar {RECORDED[key]}"
                )
            reference = results_digest([run_page_study(
                spec, n_pages=inputs.calls[key][0], seed=call_seed(inputs.seed, 0, position, 0),
                workers=1, engine="scalar",
            )])
            if first[0][f"{key}.call0"] != reference:
                failures.append(
                    f"study {key}: digest {first[0][f'{key}.call0']} != scalar engine {reference}"
                )
        return failures

    def report(self, inputs: Inputs, outcomes: list[Outcome]) -> dict[str, dict]:
        return {self.THROUGHPUT: throughput(outcomes, "pages/s", same_work=False)}

    def layers(self, inputs: Inputs, outcomes: list[Outcome], totals: dict) -> dict[str, float]:
        repeats = len(outcomes)
        out: dict[str, float] = {}
        for key in self.roster:
            # self time: the probes between calls are the span's only children
            seconds = totals[f"sim.{key}"]["self_s"] / repeats
            out[f"sim.{key}.s"] = seconds
            out[f"sim.{key}.pages_per_s"] = inputs.pages[key] / seconds
        out["core.tables_s"] = totals["core.tables"]["s"] / repeats
        return out


static = RosterStudy("static", STATIC)
sampled = RosterStudy("sampled", SAMPLED)
