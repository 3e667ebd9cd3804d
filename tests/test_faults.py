"""The pluggable fault-model layer (repro.pcm.faults).

Three contracts:

* **Typed injection errors** — every illegal injection raises
  :class:`~repro.errors.FaultInjectionError` carrying the offending
  ``offset`` (and stays a ``ValueError`` for historical callers).
* **Engine/worker invariance** — under every fault model, the vector and
  scalar engines and every worker count produce bit-identical results,
  because model randomness is drawn before engine dispatch.
* **Golden hard-model regression** — the default ``hard`` model is
  byte-identical to the code before the fault-model layer existed; the
  digests below were captured from the pre-refactor tree.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, FaultInjectionError
from repro.pcm import faults
from repro.pcm.cell import CellArray
from repro.pcm.faults import (
    FAULT_MODEL_CHOICES,
    HARD,
    DriftBurst,
    HardStuckAt,
    PartiallyStuck,
    fault_model_for,
)
from repro.pcm.lifetime import NormalLifetime, WearSkewLifetime
from repro.sim import roster
from repro.sim.block_sim import block_lifetime_study, failure_curve
from repro.sim.context import ExecContext
from repro.sim.page_sim import simulate_pages
from repro.service.loadgen import run_load


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=float).encode()
    ).hexdigest()


class TestResolution:
    def test_none_is_the_shared_hard_default(self):
        assert fault_model_for(None) is HARD
        assert fault_model_for("hard") is HARD

    def test_instances_pass_through(self):
        model = PartiallyStuck(partial_fraction=0.3)
        assert fault_model_for(model) is model

    def test_choices_resolve(self):
        for key in FAULT_MODEL_CHOICES:
            assert fault_model_for(key).key == key

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_model_for("soft")

    def test_params_reach_the_constructor(self):
        model = fault_model_for("drift", burst_span=4, burst_probability=0.5)
        assert (model.burst_span, model.burst_probability) == (4, 0.5)


class TestInjectionErrors:
    """The S1 contract: typed errors with the offset attached."""

    def test_offset_out_of_range(self):
        cells = CellArray(16)
        with pytest.raises(FaultInjectionError) as err:
            cells.inject_fault(16)
        assert err.value.offset == 16

    def test_double_injection_refused(self):
        cells = CellArray(16)
        cells.inject_fault(3, stuck_value=1)
        with pytest.raises(FaultInjectionError) as err:
            cells.inject_fault(3, stuck_value=0)
        assert err.value.offset == 3

    def test_non_bit_stuck_value(self):
        cells = CellArray(16)
        with pytest.raises(FaultInjectionError):
            cells.inject_fault(0, stuck_value=2)

    def test_partial_injection_needs_a_partial_model(self):
        cells = CellArray(16)  # hard default
        with pytest.raises(FaultInjectionError) as err:
            cells.inject_fault(5, partial=True)
        assert err.value.offset == 5

    def test_stays_a_value_error(self):
        # historical callers caught ValueError; the typed error still is one
        cells = CellArray(16)
        with pytest.raises(ValueError):
            cells.inject_fault(99)


class TestHardSemantics:
    def test_hard_cells_have_no_maskable_offsets(self):
        cells = CellArray(16)
        cells.inject_fault(2, stuck_value=0)
        assert cells.maskable_offsets == []

    def test_injection_freezes_the_cell(self):
        cells = CellArray(8)
        cells.inject_fault(1, stuck_value=1)
        cells.write(np.zeros(8, dtype=np.uint8))
        assert cells.read()[1] == 1


class TestPartialSemantics:
    def test_partial_cell_reads_as_one_and_is_maskable(self):
        cells = CellArray(16, fault_model=PartiallyStuck())
        cells.inject_fault(4, partial=True)
        assert cells.read()[4] == 1
        assert cells.maskable_offsets == [4]

    def test_partial_cannot_freeze_at_zero(self):
        cells = CellArray(16, fault_model=PartiallyStuck())
        with pytest.raises(FaultInjectionError):
            cells.inject_fault(4, stuck_value=0, partial=True)

    def test_weak_cells_are_positional_and_track_the_fraction(self):
        """Weak-cell selection is a pure function of the cell index: a
        prefix of a larger array classifies its cells identically."""
        weak = faults._weak_mask(4096, 0.5, salt=23)
        assert np.array_equal(faults._weak_mask(512, 0.5, salt=23), weak[:512])
        assert 0.45 < weak.mean() < 0.55
        assert not faults._weak_mask(512, 0.0, salt=23).any()

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            PartiallyStuck(partial_fraction=1.5)
        with pytest.raises(ConfigurationError):
            PartiallyStuck(mask_budget=-1)
        with pytest.raises(ConfigurationError):
            PartiallyStuck(weak_scale=0.0)


class TestDriftSemantics:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            DriftBurst(burst_span=1)
        with pytest.raises(ConfigurationError):
            DriftBurst(burst_probability=-0.1)

    def test_burst_collapse_pulls_span_deaths_together(self, rng):
        model = DriftBurst(burst_span=8, burst_probability=1.0)
        base = np.arange(64, dtype=np.float64) + 1.0
        transformed, masked = model.transform_base_death(base, 64, rng)
        assert masked is None
        # every aligned span collapses onto its minimum
        for start in range(0, 64, 8):
            span = transformed[start : start + 8]
            assert (span == span.min()).all()


class TestLifetimeShaping:
    def test_hard_shaping_is_identity(self):
        model = NormalLifetime(mean_lifetime=50.0)
        assert HardStuckAt().shape_lifetime(model) is model

    def test_partial_shaping_lowers_the_mean(self):
        base = NormalLifetime(mean_lifetime=100.0)
        shaped = PartiallyStuck().shape_lifetime(base)
        assert shaped.mean < base.mean

    def test_drift_shaping_preserves_the_mean(self):
        base = NormalLifetime(mean_lifetime=100.0)
        assert DriftBurst().shape_lifetime(base).mean == base.mean

    def test_wear_skew_identity_when_cold(self, rng):
        base = NormalLifetime(mean_lifetime=100.0)
        skew = WearSkewLifetime(base=base, hot_fraction=0.0, hot_rate=2.0)
        a = base.sample(256, np.random.default_rng(5))
        b = skew.sample(256, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_wear_skew_only_touches_the_hot_set(self):
        base = NormalLifetime(mean_lifetime=100.0)
        skew = WearSkewLifetime(base=base, hot_fraction=0.25, hot_rate=2.5)
        a = base.sample(1024, np.random.default_rng(5))
        b = skew.sample(1024, np.random.default_rng(5))
        hot = a != b
        assert 0.1 < hot.mean() < 0.4  # tracks the fraction
        assert np.allclose(b[hot], np.maximum(a[hot] / 2.5, 1.0))

    def test_wear_skew_validation(self):
        base = NormalLifetime()
        with pytest.raises(ConfigurationError):
            WearSkewLifetime(base=base, hot_fraction=1.5, hot_rate=2.0)
        with pytest.raises(ConfigurationError):
            WearSkewLifetime(base=base, hot_fraction=0.5, hot_rate=0.5)


class TestEngineInvariance:
    """Vector/scalar and worker-count invariance under the new models."""

    @pytest.mark.parametrize("fault_model", ["partial", "drift"])
    def test_failure_curve_engines_agree(self, fault_model):
        spec = roster.aegis_spec(9, 61, 512)
        curves = [
            failure_curve(
                spec,
                trials=32,
                max_faults=30,
                seed=2013,
                engine=engine,
                fault_model=fault_model,
            )
            for engine in ("auto", "scalar")
        ]
        assert list(curves[0].probabilities) == list(curves[1].probabilities)

    @pytest.mark.parametrize("fault_model", ["partial", "drift"])
    def test_block_lifetime_engines_agree(self, fault_model):
        spec = roster.ecp_spec(6, 512)
        studies = [
            block_lifetime_study(
                spec, trials=16, seed=2013, engine=engine, fault_model=fault_model
            )
            for engine in ("auto", "scalar")
        ]
        assert studies[0].lifetime.mean == studies[1].lifetime.mean
        assert studies[0].faults.mean == studies[1].faults.mean

    @pytest.mark.parametrize("fault_model", ["partial", "drift"])
    def test_served_snapshot_worker_and_engine_invariant(self, fault_model):
        spec = roster.aegis_spec(9, 61, 512)
        digests = {
            _digest(
                run_load(
                    spec,
                    ops=600,
                    seed=7,
                    shards=2,
                    workers=workers,
                    n_addresses=8,
                    spares=3,
                    lifetime_model=NormalLifetime(mean_lifetime=40.0),
                    engine=engine,
                    fault_model=fault_model,
                ).telemetry.snapshot()
            )
            for workers in (1, 2)
            for engine in ("auto", "scalar")
        }
        assert len(digests) == 1

    def test_exec_context_threads_fault_model(self):
        ctx = ExecContext(fault_model="partial")
        assert ("fault_model", "partial") in ctx.cache_key
        assert ctx.cache_key != ExecContext().cache_key


class TestGoldenHardRegression:
    """The default model reproduces pre-refactor results byte for byte.

    Digests captured from the tree before the fault-model layer landed;
    every path below runs with ``fault_model`` unset (the hard default).
    The Aegis failure-curve digest was re-pinned when failure curves moved
    onto the cell-death scheduler, which draws endurances rather than an
    arrival permutation; the ECP curve is deterministic and did not move.
    """

    def test_failure_curve_aegis_vector(self):
        curve = failure_curve(
            roster.aegis_spec(9, 61, 512),
            trials=64,
            max_faults=40,
            seed=2013,
            engine="auto",
        )
        assert (
            _digest(list(curve.probabilities))
            == "8f07e7ccbfe402d8e66934875ea08571304a59a4f61706d129a0c89533f9a65a"
        )

    def test_failure_curve_ecp_scalar(self):
        curve = failure_curve(
            roster.ecp_spec(6, 512),
            trials=64,
            max_faults=40,
            seed=2013,
            engine="scalar",
        )
        assert (
            _digest(list(curve.probabilities))
            == "a9f58fd30f43b0477c922b5792004de377031dc319ccac2d15b0e811f0117fef"
        )

    def test_simulated_pages_aegis(self):
        pages = simulate_pages(
            roster.aegis_spec(9, 61, 512), 8, range(12), 2013, engine="auto"
        )
        payload = [
            [p.lifetime_writes, p.faults_recovered, p.baseline_lifetime]
            for p in pages
        ]
        assert (
            _digest(payload)
            == "9807e0ad2360eced28208c8eed97c9cad729916439522c08ed5ca5b7350564e2"
        )

    def test_block_lifetime_ecp(self):
        study = block_lifetime_study(
            roster.ecp_spec(6, 512), trials=24, seed=2013, engine="auto"
        )
        assert (
            _digest([study.lifetime.mean, study.faults.mean])
            == "8ecce5fb32e4b4bded5932a8413b39d633ec8d5cbd898147aeda8b9060d2484b"
        )

    def test_served_telemetry_snapshot(self):
        report = run_load(
            roster.aegis_spec(9, 61, 512),
            ops=1500,
            seed=7,
            shards=2,
            workers=1,
            n_addresses=16,
            spares=6,
            lifetime_model=NormalLifetime(mean_lifetime=60.0),
            engine="auto",
        )
        assert (
            _digest(report.telemetry.snapshot())
            == "28783b7f5823e56a4f2688fc725af6ed4601fd9a5867ebc299eb84fe3f200749"
        )

    def test_campaign_config_and_aggregate(self):
        from repro.fleet.campaign import CampaignSpec, run_campaign

        spec = CampaignSpec(
            schemes=("aegis-9x61", "ecp6"),
            pages_per_scheme=8,
            blocks_per_page=4,
            chunk_pages=4,
            mean_endurance=1000.0,
        )
        assert (
            spec.config_digest(2013)
            == "e32c4eb4eafb70d7bbd9bc66e89bcd384a610229bc694573b7b3b7cd80647e34"
        )
        report = run_campaign(spec, ExecContext(seed=2013, workers=1, engine="auto"))
        assert (
            report.digest
            == "5629feeb327229f4a5206bd92f8c170516100dd312d57c928d64b1ba11c40199"
        )


@pytest.mark.parametrize("engine", ["auto", "scalar"])
class TestGoldenServiceRegression:
    """Cluster and adaptive-policy runs pinned to exact bytes.

    The cluster drill covers 37 migrations and one SLO alert (the
    pressure and alert sweeps, their batch limits and the SLO roster);
    the adaptive run makes 32 policy switches (the scoring and cadence
    constants).  Both digests are engine invariant.
    """

    def test_cluster_degrade_drill(self, engine):
        from repro.cluster.bench import run_cluster_bench

        report = run_cluster_bench(
            roster.aegis_spec(9, 61, 512),
            ops=600,
            n_arrays=3,
            tenants=4,
            seed=2013,
            n_addresses=96,
            lifetime_model=NormalLifetime(mean_lifetime=30.0),
            degrade_at=300,
            degrade_threshold=2,
            engine=engine,
            workers=1,
        )
        assert (
            report.snapshot_digest
            == "92af34e676d3f68ac701896bf7954370c52cb92fadc60b7f3dc435ef1ca031e8"
        )

    def test_adaptive_drift_load(self, engine):
        report = run_load(
            roster.ecp_spec(6, 512),
            ops=3000,
            seed=2013,
            shards=2,
            workers=1,
            n_addresses=16,
            spares=4,
            lifetime_model=NormalLifetime(mean_lifetime=40.0),
            fault_model="drift",
            policy="adaptive",
            engine=engine,
        )
        assert (
            _digest(report.telemetry.snapshot())
            == "32a203c5124833d88e677fe5435578f9ab0e5ca015bc60a696cae1a0dab5ecca"
        )
