"""Smoke and shape tests for the extension experiments, plus the JSON form."""

import json

import pytest

from repro.experiments import (
    all_experiment_ids,
    clear_study_cache,
    run_experiment,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_study_cache()
    yield
    clear_study_cache()


class TestRegistration:
    def test_extensions_registered(self):
        ids = all_experiment_ids()
        for ext in ("ext-memblock", "ext-payg", "ext-pairing", "ext-softftc",
                    "ext-writecost"):
            assert ext in ids
        assert ids.index("fig13") < ids.index("ext-memblock")


class TestExtMemblock:
    def test_same_ordering_smaller_magnitudes(self):
        result = run_experiment("ext-memblock", n_pages=8, seed=3)
        faults = dict(
            zip(result.column("Scheme"), result.column("Faults/256B block"))
        )
        assert faults["Aegis 9x61"] > faults["SAFER64"] > faults["ECP6"]
        assert faults["Aegis 9x61"] < 150  # ~1/64th of the 4 KB numbers


class TestExtPayg:
    def test_pool_sweep_monotone(self):
        result = run_experiment(
            "ext-payg", n_pages=6, seed=3, pool_fractions=(0.25, 1.0)
        )
        payg_rows = [r for r in result.rows if str(r[0]).startswith("PAYG")]
        assert len(payg_rows) == 2
        assert payg_rows[1][2] > payg_rows[0][2]  # capacity grows with pool
        assert payg_rows[1][1] > payg_rows[0][1]  # and so does overhead


class TestExtPairing:
    def test_gain_non_negative(self):
        result = run_experiment("ext-pairing", n_pages=8, seed=3)
        assert all(g >= 0 for g in result.column("Pairing gain"))


class TestExtSoftFtc:
    def test_analytic_tracks_monte_carlo(self):
        result = run_experiment("ext-softftc", trials=150, seed=3)
        for row in result.rows:
            if row[1] == "E[soft FTC]":
                continue
            measured, analytic = float(row[2]), float(row[3])
            assert abs(measured - analytic) < 0.45  # same transition region


class TestExtBsweep:
    def test_monotone_capability(self):
        result = run_experiment("ext-bsweep", trials=40, seed=3,
                                b_values=(23, 61))
        soft = [float(v) for v in result.column("Soft FTC (measured)")]
        assert soft[1] > soft[0]
        assert result.column("Formation") == ["23x23", "9x61"]


class TestExtWriteCost:
    def test_single_pass_for_cache_variants(self):
        result = run_experiment(
            "ext-writecost", fault_counts=(0, 6), writes=10, blocks=3, seed=3
        )
        for row in result.rows:
            label, faults = row[0], row[1]
            if "rw" in label or label.startswith("ECP"):
                assert row[3] == 1.0  # verify reads
                assert row[4] == 0.0  # inversion writes


class TestExtLatency:
    def test_cache_assisted_flat_latency(self):
        result = run_experiment(
            "ext-latency", fault_counts=(0, 8), writes=8, blocks=2, seed=3
        )
        latency = {(r[0], r[1]): float(r[2]) for r in result.rows}
        assert latency[("Aegis-rw 9x61", 8)] == latency[("Aegis-rw 9x61", 0)]
        assert latency[("Aegis 9x61", 8)] > latency[("Aegis 9x61", 0)]
        assert latency[("Aegis-dw 9x61", 0)] == pytest.approx(810.0)


class TestExtFreep:
    def test_registered_and_runs(self):
        result = run_experiment("ext-freep", n_pages=4, seed=3, spare_counts=(0, 2))
        lifetimes = [float(v) for v in result.column("Page lifetime (writes)")]
        assert len(lifetimes) == 4  # two schemes x two spare budgets


class TestHardFaultNote:
    """Drivers that never read the fault model say so under another one."""

    @pytest.mark.parametrize(
        "experiment_id, options",
        [("table1", {}), ("ext-freep", {"n_pages": 2, "spare_counts": (0,)})],
    )
    def test_non_hard_model_adds_the_note(self, experiment_id, options):
        hard = run_experiment(experiment_id, seed=3, **options)
        drift = run_experiment(experiment_id, seed=3, fault_model="drift", **options)
        assert drift.rows == hard.rows
        assert drift.notes == (
            *hard.notes,
            "this table ran under hard faults: its driver does not model "
            "the 'drift' fault model",
        )
        assert not any("hard faults" in note for note in hard.notes)

    def test_drivers_that_model_faults_get_no_note(self):
        result = run_experiment("fig5", n_pages=2, seed=3, fault_model="drift")
        assert not any("hard faults" in note for note in result.notes)


class TestExtFullscale:
    def test_batch_population_shapes(self):
        result = run_experiment("ext-fullscale", n_pages=64, seed=3)
        faults = dict(zip(result.column("Scheme"), result.column("Faults/page")))
        assert faults["Aegis 9x61"] > faults["ECP6"]
        assert all(int(v) == 64 for v in result.column("Pages"))


class TestJsonForm:
    def test_json_keeps_table_and_render(self):
        """``--json`` output carries the rendered table cell for cell."""
        result = run_experiment("table1")
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["headers"] == list(result.headers)
        assert [tuple(row) for row in payload["rows"]] == [
            tuple(row) for row in result.rows
        ]
        assert payload["title"] in result.render()
