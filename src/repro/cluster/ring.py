"""A deterministic consistent-hash ring for cluster routing.

The cluster front-end places tenant keys on :class:`~repro.service.MemoryArray`
nodes with classic consistent hashing: every node projects :data:`REPLICAS`
virtual points onto a 64-bit ring, and a key routes to the first node
point clockwise of the key's own hash.  The properties the cluster (and
``tests/test_cluster_ring.py``) relies on:

* **Deterministic across processes.**  Points come from BLAKE2b over the
  node/key strings — no ``hash()``, no ``PYTHONHASHSEED`` sensitivity —
  so placement computed in a worker process equals placement computed in
  the parent, byte for byte.
* **Minimal movement.**  Adding or retiring a node only moves the keys
  whose ring arcs that node's points own (~``1/n`` of the space); every
  other key keeps its node.  This is what makes live migration tractable:
  retiring a degraded array re-routes only its own residents.
* **No retired placements.**  ``preference`` yields only currently
  registered nodes, and walks the ring so callers that need capacity
  fallback visit every live node exactly once, in a deterministic
  key-specific order.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable, Iterator

from repro.errors import ConfigurationError

#: virtual points per node — enough that 3-16 node rings balance within
#: a few percent while keeping the ring small and cheap to rebuild
REPLICAS = 64


def stable_hash64(text: str) -> int:
    """A process-stable 64-bit hash of ``text`` (BLAKE2b, not ``hash()``)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring over named nodes.

    Parameters
    ----------
    nodes:
        Initial node names (order-insensitive: the ring layout depends
        only on the set of names).  Each node places :data:`REPLICAS`
        virtual points.
    """

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._nodes: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add_node(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> tuple[str, ...]:
        """Registered node names, sorted (deterministic)."""
        return tuple(sorted(self._nodes))

    def _rebuild(self) -> None:
        pairs = sorted(
            (stable_hash64(f"{node}#{replica}"), node)
            for node in self._nodes
            for replica in range(REPLICAS)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def add_node(self, node: str) -> None:
        """Register ``node``; idempotent."""
        if not node:
            raise ConfigurationError("ring node names cannot be empty")
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._rebuild()

    def remove_node(self, node: str) -> None:
        """Retire ``node`` from the ring; idempotent.  Keys it owned move
        to their next clockwise neighbour; every other key stays put."""
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        self._rebuild()

    def preference(self, key: str) -> Iterator[str]:
        """Every live node exactly once, in ``key``'s clockwise ring order.

        The first yielded node owns ``key`` (its first point clockwise of
        the key); callers that need capacity fallback (a full primary)
        take the next distinct node, which is also where consistent
        hashing would place the key if the primary retired — so fallback
        placement equals post-retirement placement.
        """
        if not self._nodes:
            return
        start = bisect.bisect_right(self._points, stable_hash64(key))
        seen: set[str] = set()
        count = len(self._points)
        for step in range(count):
            owner = self._owners[(start + step) % count]
            if owner not in seen:
                seen.add(owner)
                yield owner
