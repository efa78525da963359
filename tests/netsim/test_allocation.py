"""Tests for repro.netsim.allocation."""

import pytest

from repro.net import Prefix
from repro.netsim import SPLIT_COMPOSITIONS
from repro.netsim.allocation import (
    Allocation,
    AllocationMap,
    Pod,
    composition_prefixes,
)
from repro.netsim.orgs import Organization, OrgType

ORG = Organization(0, 65000, "Org", "US", "city", OrgType.BROADBAND)


def make_pod(pod_id: int, lasthops=(1,)) -> Pod:
    return Pod(
        pod_id=pod_id,
        org=ORG,
        metro_id=0,
        lasthop_router_ids=tuple(lasthops),
        lasthop_salt=pod_id,
        host_density=0.5,
        host_stability=0.9,
    )


def make_allocation(prefix_text: str, pod: Pod) -> Allocation:
    return Allocation(
        prefix=Prefix.parse(prefix_text),
        pod=pod,
        customer_name="c",
        customer_address="a",
        zip_code="z",
        registration_date="20150101",
    )


class TestCompositions:
    def test_table2_distribution_sums_to_one(self):
        total = sum(weight for _lengths, weight in SPLIT_COMPOSITIONS)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_all_compositions_tile_a_slash24(self):
        for lengths, _weight in SPLIT_COMPOSITIONS:
            assert sum(1 << (32 - l) for l in lengths) == 256

    def test_composition_prefixes(self):
        slash24 = Prefix.parse("10.0.0.0/24")
        prefixes = composition_prefixes(slash24, (25, 26, 26))
        assert [str(p) for p in prefixes] == [
            "10.0.0.0/25", "10.0.0.128/26", "10.0.0.192/26",
        ]

    def test_composition_prefixes_disjoint_cover(self):
        slash24 = Prefix.parse("10.0.0.0/24")
        for lengths, _weight in SPLIT_COMPOSITIONS:
            prefixes = composition_prefixes(slash24, lengths)
            covered = sum(p.size for p in prefixes)
            assert covered == 256
            for left, right in zip(prefixes, prefixes[1:]):
                assert left.last + 1 == right.first

    def test_rejects_bad_tiling(self):
        with pytest.raises(ValueError):
            composition_prefixes(Prefix.parse("10.0.0.0/24"), (25, 25, 25))

    def test_rejects_non_slash24(self):
        with pytest.raises(ValueError):
            composition_prefixes(Prefix.parse("10.0.0.0/23"), (24, 24))


class TestAllocationMap:
    def test_lookup_most_specific(self):
        amap = AllocationMap()
        pod_a, pod_b = make_pod(0), make_pod(1)
        amap.add(make_allocation("10.0.0.0/16", pod_a))
        amap.add(make_allocation("10.0.5.0/24", pod_b))
        assert amap.pod_of(Prefix.parse("10.0.5.9").network) is pod_b
        assert amap.pod_of(Prefix.parse("10.0.6.9").network) is pod_a

    def test_lookup_missing(self):
        amap = AllocationMap()
        assert amap.lookup(Prefix.parse("1.2.3.4").network) is None

    def test_duplicate_rejected(self):
        amap = AllocationMap()
        pod = make_pod(0)
        amap.add(make_allocation("10.0.0.0/24", pod))
        with pytest.raises(ValueError):
            amap.add(make_allocation("10.0.0.0/24", pod))

    def test_allocations_within_subtree(self):
        amap = AllocationMap()
        pod = make_pod(0)
        amap.add(make_allocation("10.0.0.0/25", pod))
        amap.add(make_allocation("10.0.0.128/25", pod))
        found = amap.allocations_within(Prefix.parse("10.0.0.0/24"))
        assert len(found) == 2

    def test_allocations_within_enclosing(self):
        amap = AllocationMap()
        pod = make_pod(0)
        amap.add(make_allocation("10.0.0.0/20", pod))
        found = amap.allocations_within(Prefix.parse("10.0.5.0/24"))
        assert len(found) == 1
        assert found[0].prefix == Prefix.parse("10.0.0.0/20")

    def test_slash24_pods_split(self):
        amap = AllocationMap()
        pod_a, pod_b = make_pod(0), make_pod(1)
        amap.add(make_allocation("10.0.0.0/25", pod_a))
        amap.add(make_allocation("10.0.0.128/25", pod_b))
        pods = amap.slash24_pods(Prefix.parse("10.0.0.0/24"))
        assert {p.pod_id for p in pods} == {0, 1}

    def test_slash24_homogeneous(self):
        amap = AllocationMap()
        pod = make_pod(0)
        amap.add(make_allocation("10.0.0.0/24", pod))
        pods = amap.slash24_pods(Prefix.parse("10.0.0.0/24"))
        assert [p.pod_id for p in pods] == [0]

    def test_pod_tracks_allocations(self):
        amap = AllocationMap()
        pod = make_pod(0)
        amap.add(make_allocation("10.0.0.0/24", pod))
        amap.add(make_allocation("10.0.2.0/24", pod))
        assert len(pod.allocations) == 2
        assert len(pod.slash24s()) == 2


class TestPod:
    def test_lasthop_count(self):
        assert make_pod(0, (1, 2, 3)).lasthop_count == 3

    def test_slash24s_excludes_sub_allocations(self):
        amap = AllocationMap()
        pod = make_pod(0)
        amap.add(make_allocation("10.0.0.0/25", pod))
        assert pod.slash24s() == []
