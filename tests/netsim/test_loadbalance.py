"""Tests for repro.netsim.loadbalance — the selector semantics Hobbit
depends on."""

import pytest

from repro.netsim.loadbalance import (
    HybridBalancer,
    PerDestinationBalancer,
    PerFlowBalancer,
    PerPacketBalancer,
    SingleNextHop,
)

HOPS = (10, 11, 12, 13)


class TestSingle:
    def test_always_same(self):
        sel = SingleNextHop(7)
        assert all(sel.select(1, d, f, n) == 7 for d, f, n in [(1, 2, 3), (9, 9, 9)])


class TestPerFlow:
    def test_flow_pinning(self):
        sel = PerFlowBalancer(HOPS, salt=1)
        choices = {sel.select(1, 2, 5, n) for n in range(20)}
        assert len(choices) == 1  # nonce (per-packet) must not matter

    def test_flow_variation_covers_all(self):
        sel = PerFlowBalancer(HOPS, salt=1)
        seen = {sel.select(1, 2, f, 0) for f in range(200)}
        assert seen == set(HOPS)

    def test_destination_affects_choice(self):
        sel = PerFlowBalancer(HOPS, salt=1)
        outcomes = {sel.select(1, d, 0, 0) for d in range(50)}
        assert len(outcomes) > 1

    def test_roughly_balanced(self):
        sel = PerFlowBalancer((1, 2), salt=3)
        ones = sum(sel.select(9, 9, f, 0) == 1 for f in range(2000))
        assert 800 < ones < 1200

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PerFlowBalancer((), salt=1)


class TestPerDestination:
    def test_flow_invariant(self):
        sel = PerDestinationBalancer(HOPS, salt=1)
        choices = {sel.select(1, 42, f, n) for f in range(30) for n in range(2)}
        assert len(choices) == 1

    def test_destination_variation(self):
        sel = PerDestinationBalancer(HOPS, salt=1)
        seen = {sel.select(1, d, 0, 0) for d in range(200)}
        assert seen == set(HOPS)

    def test_source_hash_mode(self):
        sel = PerDestinationBalancer(HOPS, salt=1, include_source=True)
        per_source = {
            src: sel.select(src, 42, 0, 0) for src in range(100)
        }
        assert len(set(per_source.values())) > 1
        # Still flow-invariant.
        assert sel.select(5, 42, 0, 0) == sel.select(5, 42, 99, 7)

    def test_without_source_hash_source_is_ignored(self):
        sel = PerDestinationBalancer(HOPS, salt=1, include_source=False)
        assert sel.select(1, 42, 0, 0) == sel.select(2, 42, 0, 0)


class TestPerPacket:
    def test_nonce_variation(self):
        sel = PerPacketBalancer(HOPS, salt=1)
        seen = {sel.select(1, 2, 3, n) for n in range(100)}
        assert seen == set(HOPS)


class TestHybrid:
    def test_pair_is_per_destination(self):
        sel = HybridBalancer(HOPS, salt=1)
        pair = sel.pair_for(42)
        assert len(pair) == 2
        assert sel.pair_for(42) == pair

    def test_selection_stays_within_pair(self):
        sel = HybridBalancer(HOPS, salt=1)
        pair = set(sel.pair_for(42))
        seen = {sel.select(1, 42, f, 0) for f in range(100)}
        assert seen == pair

    def test_pairs_overlap_across_destinations(self):
        sel = HybridBalancer(HOPS, salt=1)
        pairs = {frozenset(sel.pair_for(d)) for d in range(200)}
        assert len(pairs) == len(HOPS)  # ring of overlapping pairs

    def test_rejects_short_list(self):
        with pytest.raises(ValueError):
            HybridBalancer((1,), salt=0)
