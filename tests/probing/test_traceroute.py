"""Tests for the reference Paris traceroute (``tests/oracle.py``) and
route comparison."""

import pytest

from repro.probing import route_sets_share_route, routes_equal
from tests.oracle import paris_traceroute, resolve_path


def _responsive_destination(internet, snapshot):
    for slash24 in snapshot.eligible_slash24s():
        for addr in snapshot.active_in(slash24):
            if internet.is_host_up(addr, epoch=0):
                return addr
    pytest.fail("no responsive destination")


class TestParisTraceroute:
    def test_reaches_destination(self, internet, snapshot, prober):
        dst = _responsive_destination(internet, snapshot)
        result = paris_traceroute(prober, dst, flow_id=3)
        assert result.reached
        assert len(result.hops) >= 4

    def test_hops_are_routers(self, internet, snapshot, prober):
        dst = _responsive_destination(internet, snapshot)
        result = paris_traceroute(prober, dst, flow_id=3)
        for hop in result.hops:
            if hop.address is not None:
                assert internet.topology.by_address(hop.address) is not None

    def test_same_flow_same_route(self, internet, snapshot, prober):
        dst = _responsive_destination(internet, snapshot)
        a = paris_traceroute(prober, dst, flow_id=9)
        b = paris_traceroute(prober, dst, flow_id=9)
        assert routes_equal(a.route, b.route, wildcards=True)

    def test_lasthop_is_final_router(self, internet, snapshot, prober):
        dst = _responsive_destination(internet, snapshot)
        result = paris_traceroute(prober, dst, flow_id=3)
        if result.lasthop_address is not None:
            path = resolve_path(
                internet.forwarder, internet.vantage_address, dst, 3
            )
            assert result.lasthop_address == path[-1].address

    def test_first_ttl_skips_hops(self, internet, snapshot, prober):
        dst = _responsive_destination(internet, snapshot)
        full = paris_traceroute(prober, dst, flow_id=3)
        partial = paris_traceroute(prober, dst, flow_id=3, first_ttl=3)
        assert len(partial.hops) == len(full.hops) - 2

    def test_unreachable_host(self, internet, prober):
        # Unallocated space: every probe times out.
        result = paris_traceroute(prober, 0xC6000001, max_ttl=5, retries=0)
        assert not result.reached
        assert all(h.address is None for h in result.hops)


class TestRouteComparison:
    def test_equal_routes(self):
        assert routes_equal((1, 2, 3), (1, 2, 3))

    def test_unequal_routes(self):
        assert not routes_equal((1, 2, 3), (1, 9, 3))

    def test_length_mismatch(self):
        assert not routes_equal((1, 2), (1, 2, 3))

    def test_wildcards_match_anything(self):
        assert routes_equal((1, None, 3), (1, 2, 3), wildcards=True)
        assert routes_equal((None, 2, 3), (1, 2, 3), wildcards=True)

    def test_wildcards_disabled(self):
        assert not routes_equal((1, None, 3), (1, 2, 3), wildcards=False)

    def test_double_wildcard(self):
        assert routes_equal((1, None, 3), (1, 2, None), wildcards=True)

    def test_paper_example(self):
        # <A,B,C>, <A,*,C> and <*,B,C> are all identical (Section 2.1).
        a = (0xA, 0xB, 0xC)
        b = (0xA, None, 0xC)
        c = (None, 0xB, 0xC)
        assert routes_equal(a, b)
        assert routes_equal(a, c)
        assert routes_equal(b, c)

    def test_route_sets_share(self):
        set_a = {(1, 2, 3), (1, 4, 3)}
        set_b = {(1, 4, 3), (9, 9, 9)}
        assert route_sets_share_route(set_a, set_b)

    def test_route_sets_disjoint(self):
        assert not route_sets_share_route({(1, 2)}, {(3, 4)})
