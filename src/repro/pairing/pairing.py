"""Pairing failed pages with disjoint failed-block sets.

Two failed pages are *compatible* when no block index is failed in both:
reads/writes to a block offset are served by whichever page of the pair is
healthy there.  Maximising reclaimed capacity is a maximum-cardinality
matching on the compatibility graph, computed with networkx.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx


@dataclass(frozen=True)
class FailedPage:
    """A retired page and the offsets of its failed data blocks."""

    page_id: int
    failed_blocks: frozenset[int]

    def __post_init__(self) -> None:
        if not self.failed_blocks:
            raise ValueError("a failed page must have at least one failed block")


def compatible(a: FailedPage, b: FailedPage) -> bool:
    """True when the two pages can serve as one (no shared failed offset)."""
    return not (a.failed_blocks & b.failed_blocks)


def pair_failed_pages(
    pages: list[FailedPage],
) -> tuple[list[tuple[FailedPage, FailedPage]], list[FailedPage]]:
    """Maximum-cardinality pairing of failed pages.

    Returns ``(pairs, unpaired)``; every page appears exactly once across
    the two.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(len(pages)))
    for i in range(len(pages)):
        for j in range(i + 1, len(pages)):
            if compatible(pages[i], pages[j]):
                graph.add_edge(i, j)
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    paired_ids = set()
    pairs = []
    for i, j in matching:
        pairs.append((pages[i], pages[j]))
        paired_ids.update((i, j))
    unpaired = [page for k, page in enumerate(pages) if k not in paired_ids]
    return pairs, unpaired
