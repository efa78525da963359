"""Tests for the scenario builder: structural invariants of what it
produces."""

from collections import Counter

import pytest

from repro.net import Prefix
from repro.netsim import (
    RouterRole,
    build_scenario,
    paper_scenario,
    tiny_scenario,
)
from repro.netsim.build import _SpaceAllocator, _split_into_chunks
from repro.netsim.groundtruth import GroundTruth
from tests.oracle import fib_lookup
import random


@pytest.fixture(scope="module")
def built():
    return build_scenario(tiny_scenario(seed=7))


class TestSpaceAllocator:
    def test_spans_disjoint(self):
        allocator = _SpaceAllocator(random.Random(1))
        spans = []
        for _ in range(200):
            first = allocator.allocate(16)
            spans.append((first, first + 16 * 256 - 1))
        spans.sort()
        for (a_first, a_last), (b_first, _b_last) in zip(spans, spans[1:]):
            assert a_last < b_first

    def test_consecutive_spans_land_far_apart(self):
        allocator = _SpaceAllocator(random.Random(1))
        a = allocator.allocate(4)
        b = allocator.allocate(4)
        assert (a >> 24) != (b >> 24)  # different /8 regions

    def test_rejects_oversized(self):
        allocator = _SpaceAllocator(random.Random(1))
        with pytest.raises(OverflowError):
            allocator.allocate((1 << 16) + 1)

    def test_rejects_empty(self):
        allocator = _SpaceAllocator(random.Random(1))
        with pytest.raises(ValueError):
            allocator.allocate(0)

    def test_stays_below_router_space(self):
        allocator = _SpaceAllocator(random.Random(1))
        for _ in range(100):
            first = allocator.allocate(64)
            assert first < 0x64000000


class TestChunkSplitting:
    def test_single_fragment(self):
        assert _split_into_chunks(10, 1, random.Random(0)) == [10]

    def test_fragments_sum(self):
        rng = random.Random(0)
        for size, fragments in [(10, 3), (100, 6), (5, 5), (2, 8)]:
            chunks = _split_into_chunks(size, fragments, rng)
            assert sum(chunks) == size
            assert all(c >= 1 for c in chunks)
            assert len(chunks) <= fragments


class TestBuiltScenario:
    def test_universe_matches_config(self, built):
        expected = sum(org.num_slash24s for org in built.config.orgs)
        # Big pods may exceed their org's nominal budget slightly.
        assert len(built.universe_slash24s) >= expected * 0.95

    def test_universe_sorted_unique(self, built):
        nets = [p.network for p in built.universe_slash24s]
        assert nets == sorted(nets)
        assert len(nets) == len(set(nets))

    def test_every_slash24_has_a_pod(self, built):
        for slash24 in built.universe_slash24s[::7]:
            pods = built.allocations.slash24_pods(slash24)
            assert pods, f"{slash24} has no owning pod"

    def test_all_pods_have_lasthops(self, built):
        for pod in built.pods:
            if pod.allocations:
                assert pod.lasthop_router_ids

    def test_lasthop_routers_have_delivering_entries(self, built):
        for pod in built.pods[::5]:
            if not pod.allocations:
                continue
            for router_id in pod.lasthop_router_ids:
                fib = built.fibs[router_id]
                entry = fib_lookup(fib, pod.allocations[0].prefix.network)
                assert entry is not None and entry.delivers

    def test_unresponsive_pods_use_silent_routers(self, built):
        found = 0
        for pod in built.pods:
            if pod.unresponsive_lasthop and pod.allocations:
                found += 1
                for router_id in pod.lasthop_router_ids:
                    router = built.topology.by_id(router_id)
                    assert not router.responds_to_ttl_exceeded
        assert found > 0

    def test_split_slash24s_have_multiple_pods(self, built):
        splits = [
            p
            for p in built.universe_slash24s
            if len(built.allocations.slash24_pods(p)) > 1
        ]
        assert splits, "tiny scenario should contain split /24s"
        for slash24 in splits:
            allocations = built.allocations.allocations_within(slash24)
            assert all(a.prefix.length > 24 for a in allocations)
            assert sum(a.prefix.size for a in allocations) == 256

    def test_split_allocations_have_customer_records(self, built):
        for allocation in built.allocations:
            if allocation.prefix.length > 24:
                assert allocation.network_type == "CUSTOMER"
                assert allocation.registration_date >= "20150101"

    def test_geodb_covers_universe(self, built):
        for slash24 in built.universe_slash24s[::11]:
            record = built.geodb.lookup(slash24.network)
            assert record is not None

    def test_router_roles_present(self, built):
        roles = Counter(router.role for router in built.topology)
        for role in (
            RouterRole.VANTAGE_GATEWAY,
            RouterRole.BACKBONE,
            RouterRole.CORE,
            RouterRole.ORG_BORDER,
            RouterRole.METRO,
            RouterRole.LAST_HOP,
        ):
            assert roles.get(role, 0) > 0

    def test_deterministic_rebuild(self):
        a = build_scenario(tiny_scenario(seed=7))
        b = build_scenario(tiny_scenario(seed=7))
        assert [p.network for p in a.universe_slash24s] == [
            p.network for p in b.universe_slash24s
        ]
        assert len(a.pods) == len(b.pods)
        for pod_a, pod_b in zip(a.pods[::13], b.pods[::13]):
            assert pod_a.lasthop_router_ids == pod_b.lasthop_router_ids
            assert pod_a.lasthop_mode == pod_b.lasthop_mode

    def test_seed_changes_layout(self):
        a = build_scenario(tiny_scenario(seed=7))
        b = build_scenario(tiny_scenario(seed=8))
        assert [p.network for p in a.universe_slash24s] != [
            p.network for p in b.universe_slash24s
        ]

    def test_big_pods_are_fragmented(self, built):
        from repro.net import contiguous_runs

        big_pods = [p for p in built.pods if len(p.slash24s()) >= 20]
        assert big_pods
        for pod in big_pods:
            runs = contiguous_runs(pod.slash24s())
            assert len(runs) >= 2


@pytest.mark.parametrize(
    "config",
    [
        tiny_scenario(seed=7),
        paper_scenario(scale=0.25, seed=2016),
        paper_scenario(scale=0.25, seed=4242),
    ],
    ids=["tiny-7", "scale-0.25-2016", "scale-0.25-4242"],
)
def test_universe_is_exactly_the_allocated_slash24s(config):
    """``GroundTruth.pods_of`` asks the allocation map alone, which is
    right while the universe holds exactly the /24s that allocations
    cover, each with a pod."""
    built = build_scenario(config)
    universe = built.universe_slash24s
    covered = {
        network
        for allocation in built.allocations
        for network in range(
            allocation.prefix.network & ~0xFF, allocation.prefix.last + 1, 256
        )
    }
    assert covered == {slash24.network for slash24 in universe}
    truth = GroundTruth(built.allocations, universe)
    assert all(truth.pods_of(slash24) for slash24 in universe)
    assert truth.pods_of(Prefix(universe[-1].network + 256, 24)) == []
