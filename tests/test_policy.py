"""Adaptive per-block scheme selection (repro.service.policy).

The scoring engine is pure arithmetic with deterministic tie-breaks, the
array's ``switch_scheme`` primitive preserves data through a re-encode,
and a full adaptive run is bit-identical across engines and worker
counts while actually switching schemes under a mixed fault regime.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.campaign import (
    DEFAULT_WEAR_POLICY,
    WEAR_POLICIES,
    CampaignSpec,
    wear_lifetime,
)
from repro.pcm.lifetime import FixedLifetime, NormalLifetime, WearSkewLifetime
from repro.service.array import MemoryArray
from repro.service.loadgen import run_load
from repro.service.policy import (
    HYSTERESIS,
    POLICY_CHOICES,
    BlockConditions,
    SchemePolicyEngine,
    default_policy_options,
    validate_policy,
)
from repro.sim.roster import aegis_spec, ecp_spec


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=float).encode()
    ).hexdigest()


class TestConditions:
    def test_effective_faults_discounts_maskable(self):
        conditions = BlockConditions(fault_count=5, maskable_faults=3)
        assert conditions.effective_faults == 2

    def test_effective_faults_never_negative(self):
        conditions = BlockConditions(fault_count=1, maskable_faults=4)
        assert conditions.effective_faults == 0


class TestOptionTable:
    def test_default_table_spans_the_overhead_ftc_trade(self):
        options = default_policy_options(512)
        keys = {option.key for option in options}
        assert keys == {"aegis-17x31", "aegis-9x61", "ecp6", "safer64"}
        overheads = sorted(option.overhead_bits for option in options)
        assert overheads[0] < overheads[-1]  # a real trade, not a tie
        assert all(option.hard_ftc >= 1 for option in options)

    def test_validate_policy(self):
        assert POLICY_CHOICES == ("fixed", "adaptive")
        assert validate_policy("adaptive") == "adaptive"
        with pytest.raises(ConfigurationError):
            validate_policy("greedy")


class TestScoring:
    def test_scoring_is_deterministic(self):
        engine = SchemePolicyEngine()
        conditions = BlockConditions(fault_count=3, write_share=0.2, fault_burst=2)
        scores = [
            [engine.score(option, conditions) for option in engine.options]
            for _ in range(3)
        ]
        assert scores[0] == scores[1] == scores[2]

    def test_uncovered_options_are_disqualified(self):
        # an option whose hard FTC cannot cover the faults scores below
        # every option that still covers them
        engine = SchemePolicyEngine()
        conditions = BlockConditions(fault_count=7)  # above ecp6's FTC of 6
        options = {option.key: option for option in engine.options}
        ecp, aegis = options["ecp6"], options["aegis-9x61"]
        assert engine.score(ecp, conditions) < 0
        assert engine.score(aegis, conditions) > engine.score(ecp, conditions)

    def test_choose_escalates_an_at_risk_block(self):
        engine = SchemePolicyEngine()
        conditions = BlockConditions(fault_count=6, write_share=0.5, fault_burst=4)
        chosen = engine.choose(conditions, "ecp6")
        assert chosen is not None
        assert chosen.hard_ftc > conditions.effective_faults

    def test_choose_stays_put_when_already_cheapest(self):
        # on a quiet block the raw scorer favors the cheapest-overhead
        # option; holding it already means there is nowhere better to go
        # (the controller's zero-fault gate handles the pristine case)
        engine = SchemePolicyEngine()
        quiet = BlockConditions(fault_count=0)
        cheapest = min(engine.options, key=lambda option: option.overhead_bits)
        assert engine.choose(quiet, cheapest.key) is None

    def test_choose_ignores_unknown_incumbents(self):
        engine = SchemePolicyEngine()
        conditions = BlockConditions(fault_count=6, write_share=0.5, fault_burst=4)
        assert engine.choose(conditions, "hamming72") is None

    def test_hysteresis_suppresses_marginal_switches(self):
        # aegis-9x61 outscores the incumbent aegis-17x31 here, but by less
        # than the hysteresis margin, so the block stays put
        engine = SchemePolicyEngine()
        conditions = BlockConditions(fault_count=2)
        best = max(
            engine.options,
            key=lambda option: (engine.score(option, conditions), option.key),
        )
        incumbent = next(o for o in engine.options if o.key == "aegis-17x31")
        lead = engine.score(best, conditions) - engine.score(incumbent, conditions)
        assert best.key == "aegis-9x61"
        assert 0 < lead <= HYSTERESIS
        assert engine.choose(conditions, "aegis-17x31") is None


class TestSwitchScheme:
    def _array(self, **kwargs):
        return MemoryArray(
            4,
            512,
            ecp_spec(6, 512).make_controller,
            spares=2,
            lifetime_model=FixedLifetime(10**9),
            rng=np.random.default_rng(11),
            scheme_key="ecp6",
            **kwargs,
        )

    def test_switch_preserves_data_and_key(self, rng):
        array = self._array()
        payload = rng.integers(0, 2, size=512, dtype=np.uint8)
        array.write(0, payload)
        physical = array.physical_of(0)
        assert array.scheme_key_of(physical) == "ecp6"
        target = aegis_spec(9, 61, 512)
        assert array.switch_scheme(0, target.make_controller, target.key)
        assert array.scheme_key_of(array.physical_of(0)) == "aegis-9x61"
        assert np.array_equal(array.read(0), payload)

    def test_switch_refuses_unmapped_addresses(self):
        array = self._array()
        target = aegis_spec(9, 61, 512)
        # address 3 was never written, so no physical block backs it
        assert array.physical_of(3) is None
        assert not array.switch_scheme(3, target.make_controller, target.key)


class TestAdaptiveDrill:
    """A real adaptive run: switches happen, and the snapshot is invariant
    across engines and worker counts (the determinism contract)."""

    @staticmethod
    def _run(engine: str, workers: int):
        return run_load(
            ecp_spec(6, 512),
            ops=1200,
            seed=2013,
            shards=2,
            workers=workers,
            n_addresses=12,
            spares=4,
            lifetime_model=NormalLifetime(mean_lifetime=40.0),
            engine=engine,
            fault_model="drift",
            policy="adaptive",
        )

    def test_switches_surface_in_labeled_counters(self):
        snapshot = self._run("auto", 1).telemetry.snapshot()
        switches = {
            key: count
            for key, count in snapshot["labeled_counters"].items()
            if key.startswith("policy_switches_total{")
        }
        assert switches, "expected at least one policy switch under drift"
        assert all('from="' in key and 'to="' in key for key in switches)
        assert sum(switches.values()) >= 1

    def test_snapshot_engine_and_worker_invariant(self):
        digests = {
            _digest(self._run(engine, workers).telemetry.snapshot())
            for engine in ("auto", "scalar")
            for workers in (1, 2)
        }
        assert len(digests) == 1

    def test_fixed_policy_emits_no_switches(self):
        report = run_load(
            ecp_spec(6, 512),
            ops=600,
            seed=2013,
            shards=2,
            workers=1,
            n_addresses=12,
            spares=4,
            lifetime_model=NormalLifetime(mean_lifetime=40.0),
            engine="auto",
            fault_model="drift",
            policy="fixed",
        )
        snapshot = report.telemetry.snapshot()
        assert not any(
            key.startswith("policy_switches_total{")
            for key in snapshot["labeled_counters"]
        )


class TestWearPolicyGrid:
    """The fleet campaign's wear-policy dimension (satellite S2)."""

    def _spec(self, **kwargs):
        return CampaignSpec(
            schemes=("aegis-9x61", "ecp6"),
            pages_per_scheme=4,
            blocks_per_page=2,
            chunk_pages=2,
            mean_endurance=500.0,
            **kwargs,
        )

    def test_default_grid_keeps_historical_keys(self):
        spec = self._spec()
        assert spec.grid() == (
            ("aegis-9x61", "perfect", "aegis-9x61"),
            ("ecp6", "perfect", "ecp6"),
        )

    def test_grid_keys_encode_nondefault_policies(self):
        spec = self._spec(wear_policies=("perfect", "none"))
        keys = [key for _, _, key in spec.grid()]
        assert keys == ["aegis-9x61", "aegis-9x61+none", "ecp6", "ecp6+none"]

    def test_config_digest_stable_at_defaults(self):
        # the new dimensions must not perturb digests of old campaigns
        assert self._spec().config_digest(7) == self._spec(
            wear_policies=(DEFAULT_WEAR_POLICY,), fault_model="hard"
        ).config_digest(7)

    def test_config_digest_tracks_new_dimensions(self):
        base = self._spec().config_digest(7)
        assert self._spec(wear_policies=("perfect", "none")).config_digest(7) != base
        assert self._spec(fault_model="drift").config_digest(7) != base

    def test_unknown_wear_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(wear_policies=("write-through",))
        with pytest.raises(ConfigurationError):
            self._spec(wear_policies=())

    def test_unknown_fault_model_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(fault_model="soft")

    def test_wear_lifetime_wrapping(self):
        model = NormalLifetime(mean_lifetime=100.0)
        assert wear_lifetime(model, "perfect") is model
        skewed = wear_lifetime(model, "none")
        assert isinstance(skewed, WearSkewLifetime)
        assert (skewed.hot_fraction, skewed.hot_rate) == WEAR_POLICIES["none"]
        with pytest.raises(ConfigurationError):
            wear_lifetime(model, "write-through")
