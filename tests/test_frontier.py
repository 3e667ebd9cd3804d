"""Tests for the Pareto-frontier analysis."""

import pytest

from repro.analysis.frontier import SchemePoint, pareto_frontier
from repro.experiments import clear_study_cache, run_experiment


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_study_cache()
    yield
    clear_study_cache()


def p(label, bits, cap):
    return SchemePoint(label=label, overhead_bits=bits, capability=cap)


class TestDominance:
    def test_strictly_better_dominates(self):
        assert p("a", 10, 100).dominates(p("b", 20, 90))

    def test_equal_points_do_not_dominate(self):
        assert not p("a", 10, 100).dominates(p("b", 10, 100))

    def test_tradeoff_points_incomparable(self):
        cheap = p("cheap", 10, 50)
        strong = p("strong", 50, 100)
        assert not cheap.dominates(strong)
        assert not strong.dominates(cheap)

    def test_one_axis_tie(self):
        assert p("a", 10, 100).dominates(p("b", 10, 90))
        assert p("a", 10, 100).dominates(p("b", 20, 100))


class TestFrontier:
    def test_partition_is_complete(self):
        points = [p("a", 10, 50), p("b", 20, 100), p("c", 30, 80), p("d", 15, 40)]
        analysis = pareto_frontier(points)
        labels = {q.label for q in analysis.frontier} | {
            q.label for q, _ in analysis.dominated
        }
        assert labels == {"a", "b", "c", "d"}
        assert [q.label for q in analysis.frontier] == ["a", "b"]  # b beats c
        assert dict((q.label, d) for q, d in analysis.dominated)["d"] == ("a",)

    def test_dominators_are_frontier_points(self):
        points = [p("a", 10, 50), p("b", 20, 100), p("c", 30, 80), p("d", 15, 40)]
        analysis = pareto_frontier(points)
        by_label = {q.label: q for q in points}
        for point, dominators in analysis.dominated:
            assert dominators
            assert all(by_label[d].dominates(point) for d in dominators)

    def test_frontier_sorted_by_overhead(self):
        points = [p("x", 30, 90), p("y", 10, 50), p("z", 20, 70)]
        analysis = pareto_frontier(points)
        bits = [q.overhead_bits for q in analysis.frontier]
        assert bits == sorted(bits)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier([])


class TestFrontierExperiment:
    def test_aegis_spans_the_frontier(self):
        result = run_experiment("ext-frontier", n_pages=6, seed=4)
        status = dict(zip(result.column("Scheme"), result.column("Status")))
        for label, s in status.items():
            if label.startswith("Aegis"):
                assert s == "frontier", label
        assert status["SAFER64"] == "dominated"
        assert status["ECP6"] == "dominated"
