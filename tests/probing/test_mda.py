"""Tests for MDA path enumeration, and for the reference last-hop
identification (``tests/oracle.py``) that the compiled engine's parity
suites compare against."""

import pytest

from repro.core.pipeline import enumerate_paths
from tests.oracle import identify_lasthops, resolve_path


def _addresses_of_pod(internet, snapshot, predicate, count=4):
    """Active snapshot addresses belonging to pods matching predicate."""
    for slash24 in snapshot.eligible_slash24s():
        pods = internet.allocations.slash24_pods(slash24)
        if len(pods) == 1 and predicate(pods[0]):
            actives = [
                a for a in snapshot.active_in(slash24)
                if internet.is_host_up(a, epoch=0)
            ]
            if len(actives) >= count:
                return actives[:count]
    pytest.fail("no matching pod found")


class TestEnumeratePaths:
    def test_finds_multiple_per_flow_paths(self, internet, snapshot, prober):
        addrs = _addresses_of_pod(
            internet, snapshot, lambda pod: not pod.unresponsive_lasthop, 1
        )
        result = enumerate_paths(prober, addrs[0])
        assert result.reached
        # The core diamond is per-flow with width > 1 in the scenario.
        assert len(result.routes) >= 1
        assert result.probes_used > 0

    def test_unresponsive_host(self, internet, prober):
        result = enumerate_paths(prober, 0xC6000001, max_ttl=5)
        assert not result.reached
        assert not result.routes

    def test_lasthop_addresses_consistent(self, internet, snapshot, prober):
        addrs = _addresses_of_pod(
            internet, snapshot, lambda pod: not pod.unresponsive_lasthop, 1
        )
        result = enumerate_paths(prober, addrs[0])
        for route in result.routes:
            if route and route[-1] is not None:
                assert internet.topology.by_address(route[-1]) is not None


class TestIdentifyLasthops:
    def test_single_lasthop_pod(self, internet, snapshot, prober):
        addrs = _addresses_of_pod(
            internet,
            snapshot,
            lambda pod: pod.lasthop_count == 1
            and not pod.unresponsive_lasthop,
        )
        expected = None
        for addr in addrs:
            result = identify_lasthops(prober, addr)
            if not result.host_responsive:
                continue
            assert result.usable
            assert len(result.lasthops) == 1
            router_addr = next(iter(result.lasthops))
            router = internet.topology.by_address(router_addr)
            assert router is not None
            if expected is None:
                expected = router_addr
            else:
                assert router_addr == expected

    def test_lasthop_matches_forwarding(self, internet, snapshot, prober):
        addrs = _addresses_of_pod(
            internet,
            snapshot,
            lambda pod: pod.lasthop_count == 1
            and not pod.unresponsive_lasthop,
            count=1,
        )
        result = identify_lasthops(prober, addrs[0])
        if result.usable:
            path = resolve_path(
                internet.forwarder, internet.vantage_address, addrs[0], 0
            )
            assert path[-1].address in result.lasthops

    def test_unresponsive_lasthop_pod(self, internet, snapshot, prober):
        addrs = _addresses_of_pod(
            internet, snapshot, lambda pod: pod.unresponsive_lasthop
        )
        saw_unresponsive = False
        for addr in addrs:
            result = identify_lasthops(prober, addr)
            if result.host_responsive and not result.lasthops:
                saw_unresponsive = True
                assert result.lasthop_unresponsive
        assert saw_unresponsive

    def test_dead_host(self, internet, prober):
        result = identify_lasthops(prober, 0xC6000001)
        assert not result.host_responsive
        assert not result.usable

    def test_perdest_pod_neighbours_diverge(self, internet, snapshot, prober):
        addrs = _addresses_of_pod(
            internet,
            snapshot,
            lambda pod: pod.lasthop_count >= 2
            and pod.lasthop_mode == "per-destination"
            and not pod.unresponsive_lasthop,
            count=8,
        )
        lasthops = set()
        for addr in addrs:
            result = identify_lasthops(prober, addr)
            lasthops.update(result.lasthops)
        assert len(lasthops) >= 2

    def test_probe_cost_is_bounded(self, internet, snapshot, prober):
        addrs = _addresses_of_pod(
            internet, snapshot, lambda pod: not pod.unresponsive_lasthop, 4
        )
        for addr in addrs:
            result = identify_lasthops(prober, addr)
            assert result.probes_used < 200
