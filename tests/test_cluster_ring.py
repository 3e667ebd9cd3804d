"""The consistent-hash ring's routing contract (see ``repro/cluster/ring.py``).

Three properties the cluster layer leans on: placement is deterministic
across processes (no ``PYTHONHASHSEED`` sensitivity), membership changes
move the minimum set of keys, and no key ever routes to a retired node.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import HashRing, stable_hash64
from repro.errors import ConfigurationError

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: routing keys in the tenant:address shape the cluster uses
KEYS = [f"tenant{t}:{a}" for t in range(6) for a in range(40)]

NODES = ["array0", "array1", "array2"]


def owner(ring: HashRing, key: str) -> str:
    return next(ring.preference(key))


def assignments(ring: HashRing) -> dict[str, str]:
    return {key: owner(ring, key) for key in KEYS}


_SUBPROCESS_SCRIPT = """\
import json
from repro.cluster import HashRing
ring = HashRing(["array0", "array1", "array2"])
keys = [f"tenant{t}:{a}" for t in range(6) for a in range(40)]
print(json.dumps({key: next(ring.preference(key)) for key in keys}, sort_keys=True))
"""


class TestDeterminism:
    def test_placement_identical_across_processes(self):
        """Fresh interpreters with different hash seeds agree with us."""
        local = json.dumps(assignments(HashRing(NODES)), sort_keys=True)
        for hashseed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
            result = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            assert result.stdout.strip() == local

    def test_stable_hash64_is_a_pure_function(self):
        assert stable_hash64("tenant0:0") == stable_hash64("tenant0:0")
        assert stable_hash64("tenant0:0") != stable_hash64("tenant0:1")
        assert 0 <= stable_hash64("anything") < 2**64

    def test_layout_is_order_insensitive(self):
        forward = HashRing(NODES)
        backward = HashRing(reversed(NODES))
        assert assignments(forward) == assignments(backward)

    def test_every_node_takes_a_fair_share(self):
        ring = HashRing(NODES)
        placed = assignments(ring)
        for node in NODES:
            share = sum(1 for owner in placed.values() if owner == node)
            assert share >= len(KEYS) * 0.15, f"{node} owns only {share} keys"


class TestMembershipChanges:
    def test_add_node_moves_only_keys_onto_the_new_node(self):
        ring = HashRing(NODES)
        before = assignments(ring)
        ring.add_node("array3")
        after = assignments(ring)
        moved = [key for key in KEYS if before[key] != after[key]]
        assert moved, "a new node must take over some arcs"
        assert all(after[key] == "array3" for key in moved)
        # roughly 1/n of the space, not a reshuffle
        assert len(moved) <= len(KEYS) * 0.5

    def test_remove_node_moves_only_its_keys(self):
        ring = HashRing(NODES)
        before = assignments(ring)
        ring.remove_node("array1")
        after = assignments(ring)
        for key in KEYS:
            if before[key] == "array1":
                assert after[key] != "array1"
            else:
                assert after[key] == before[key]

    def test_no_key_maps_to_a_retired_node(self):
        ring = HashRing(NODES)
        ring.remove_node("array2")
        assert "array2" not in ring
        assert "array2" not in ring.nodes
        assert all(owner != "array2" for owner in assignments(ring).values())

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing(NODES)
        before = assignments(ring)
        ring.add_node("array1")  # already present
        ring.remove_node("array9")  # never present
        assert assignments(ring) == before


class TestPreferenceWalk:
    def test_visits_every_live_node_exactly_once(self):
        ring = HashRing(NODES)
        for key in KEYS[:20]:
            walk = list(ring.preference(key))
            assert sorted(walk) == sorted(NODES)

    def test_fallback_equals_post_retirement_placement(self):
        """The second preference is where the key lands if its primary
        retires — the property live migration relies on."""
        ring = HashRing(NODES)
        for key in KEYS[:20]:
            primary, fallback, *_ = ring.preference(key)
            ring.remove_node(primary)
            assert owner(ring, key) == fallback
            ring.add_node(primary)
            assert owner(ring, key) == primary


class TestValidation:
    def test_empty_ring_routes_nowhere(self):
        assert list(HashRing().preference("tenant0:0")) == []

    def test_empty_node_name_rejected(self):
        with pytest.raises(ConfigurationError):
            HashRing([""])
