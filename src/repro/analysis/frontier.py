"""Pareto-frontier analysis of the overhead/capability trade (§3.2's
cost-effectiveness argument, distilled).

The paper's comparisons repeatedly take the form "scheme X tolerates more
faults with fewer bits than scheme Y" — i.e. Pareto dominance in the
(overhead, capability) plane.  This module computes the frontier of a set
of measured schemes, identifies which schemes each point dominates, and
ranks the dominated by their distance from the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SchemePoint:
    """One scheme's position in the overhead/capability plane."""

    label: str
    overhead_bits: float
    capability: float  # e.g. faults/page (higher is better)

    def dominates(self, other: "SchemePoint") -> bool:
        """Weak Pareto dominance: no worse on both axes, better on one."""
        no_worse = (
            self.overhead_bits <= other.overhead_bits
            and self.capability >= other.capability
        )
        better = (
            self.overhead_bits < other.overhead_bits
            or self.capability > other.capability
        )
        return no_worse and better


@dataclass(frozen=True)
class FrontierAnalysis:
    """The Pareto frontier and per-scheme dominance relations."""

    frontier: tuple[SchemePoint, ...]  # sorted by overhead
    dominated: tuple[tuple[SchemePoint, tuple[str, ...]], ...]


def pareto_frontier(points: list[SchemePoint]) -> FrontierAnalysis:
    """Partition schemes into the efficient frontier and the dominated set.

    >>> a = SchemePoint("a", 10, 100.0)
    >>> b = SchemePoint("b", 20, 90.0)
    >>> [point.label for point in pareto_frontier([a, b]).frontier]
    ['a']
    """
    if not points:
        raise ValueError("frontier analysis needs at least one scheme")
    frontier = []
    dominated = []
    for point in points:
        dominators = tuple(
            other.label for other in points if other.dominates(point)
        )
        if dominators:
            dominated.append((point, dominators))
        else:
            frontier.append(point)
    frontier.sort(key=lambda p: (p.overhead_bits, -p.capability))
    dominated.sort(key=lambda pair: pair[0].overhead_bits)
    return FrontierAnalysis(frontier=tuple(frontier), dominated=tuple(dominated))
