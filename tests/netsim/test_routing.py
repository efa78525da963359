"""Tests for repro.netsim.routing — FIBs and the forwarder, walked by
the compiled engine's route-template build and by the reference
resolver (``tests/oracle.py``)."""

from types import SimpleNamespace

import pytest

from repro.core.fastengine import (
    _FIXED,
    _T_PER_FLOW,
    FastCampaignEngine,
    RouteTemplateError,
)
from repro.net import Prefix, parse
from repro.netsim.loadbalance import PerFlowBalancer, SingleNextHop
from repro.netsim.routing import Fib, Forwarder, RouteEntry
from repro.netsim.topology import RouterRole, Topology
from tests.oracle import ForwardingError, fib_lookup, resolve_path


def _template(forwarder, dst):
    """The route template the compiled engine builds towards ``dst``
    (the build reads nothing of the simulator but its forwarder)."""
    internet = SimpleNamespace(
        forwarder=forwarder,
        allocations=SimpleNamespace(revision=0),
        _built=SimpleNamespace(host_seed=0, loss_seed=0),
    )
    slots, _, _ = FastCampaignEngine(internet)._build_template(dst)
    return slots


def _linear_topology():
    """source → r1 → r2 (delivers 10.0.0.0/24)."""
    topo = Topology()
    source = topo.new_router(RouterRole.VANTAGE_GATEWAY)
    r1 = topo.new_router(RouterRole.METRO)
    r2 = topo.new_router(RouterRole.LAST_HOP)
    fibs = {}
    fibs[source.router_id] = Fib()
    fibs[source.router_id].install(
        RouteEntry(Prefix(0, 0), SingleNextHop(r1.router_id))
    )
    fibs[r1.router_id] = Fib()
    fibs[r1.router_id].install(
        RouteEntry(Prefix.parse("10.0.0.0/24"), SingleNextHop(r2.router_id))
    )
    fibs[r2.router_id] = Fib()
    fibs[r2.router_id].install(
        RouteEntry(Prefix.parse("10.0.0.0/24"), delivers=True)
    )
    return topo, fibs, source, r1, r2


class TestRouteEntry:
    def test_delivering_entry(self):
        entry = RouteEntry(Prefix.parse("10.0.0.0/24"), delivers=True)
        assert entry.delivers

    def test_forwarding_entry(self):
        entry = RouteEntry(Prefix(0, 0), SingleNextHop(1))
        assert not entry.delivers

    def test_rejects_neither(self):
        with pytest.raises(ValueError):
            RouteEntry(Prefix(0, 0))

    def test_rejects_both(self):
        with pytest.raises(ValueError):
            RouteEntry(Prefix(0, 0), SingleNextHop(1), delivers=True)


class TestFib:
    def test_longest_prefix_match(self):
        fib = Fib()
        coarse = RouteEntry(Prefix.parse("10.0.0.0/8"), SingleNextHop(1))
        fine = RouteEntry(Prefix.parse("10.1.0.0/16"), SingleNextHop(2))
        fib.install(coarse)
        fib.install(fine)
        assert fib_lookup(fib, parse("10.1.2.3")) is fine
        assert fib_lookup(fib, parse("10.2.0.0")) is coarse
        assert fib_lookup(fib, parse("11.0.0.0")) is None
        assert len(fib) == 2

    def test_entries_listing(self):
        fib = Fib()
        entry = RouteEntry(Prefix(0, 0), SingleNextHop(1))
        fib.install(entry)
        assert fib.entries() == [entry]


class TestForwarder:
    def test_resolves_linear_path(self):
        topo, fibs, source, r1, r2 = _linear_topology()
        fwd = Forwarder(topo, fibs, source)
        dst = parse("10.0.0.5")
        path = resolve_path(fwd, 0, dst, flow_id=0)
        assert [r.router_id for r in path] == [
            source.router_id, r1.router_id, r2.router_id,
        ]
        assert _template(fwd, dst) == tuple(
            (_FIXED, (router.responds_to_ttl_exceeded, None, router.address))
            for router in path
        )

    def test_no_route_raises(self):
        topo, fibs, source, r1, r2 = _linear_topology()
        fwd = Forwarder(topo, fibs, source)
        with pytest.raises(ForwardingError):
            resolve_path(fwd, 0, parse("11.0.0.1"), flow_id=0)
        with pytest.raises(RouteTemplateError, match="no route"):
            _template(fwd, parse("11.0.0.1"))

    def test_loop_detected(self):
        topo = Topology()
        a = topo.new_router(RouterRole.CORE)
        b = topo.new_router(RouterRole.CORE)
        fibs = {
            a.router_id: Fib(),
            b.router_id: Fib(),
        }
        fibs[a.router_id].install(
            RouteEntry(Prefix(0, 0), SingleNextHop(b.router_id))
        )
        fibs[b.router_id].install(
            RouteEntry(Prefix(0, 0), SingleNextHop(a.router_id))
        )
        fwd = Forwarder(topo, fibs, a)
        with pytest.raises(ForwardingError):
            resolve_path(fwd, 0, parse("10.0.0.1"), flow_id=0)
        with pytest.raises(RouteTemplateError, match="forwarding loop"):
            _template(fwd, parse("10.0.0.1"))

    def test_path_caching(self):
        """The reference resolver caches per (src, dst, flow) until the
        forwarder replaces its compiled state."""
        topo, fibs, source, r1, r2 = _linear_topology()
        fwd = Forwarder(topo, fibs, source)
        dst = parse("10.0.0.5")
        first = resolve_path(fwd, 0, dst, flow_id=1)
        assert resolve_path(fwd, 0, dst, flow_id=1) is first
        fwd._reset_compiled_state()
        again = resolve_path(fwd, 0, dst, flow_id=1)
        assert again == first
        assert again is not first

    def test_per_flow_branches(self):
        topo = Topology()
        source = topo.new_router(RouterRole.VANTAGE_GATEWAY)
        m1 = topo.new_router(RouterRole.DIAMOND)
        m2 = topo.new_router(RouterRole.DIAMOND)
        last = topo.new_router(RouterRole.LAST_HOP)
        prefix = Prefix.parse("10.0.0.0/24")
        fibs = {r.router_id: Fib() for r in (source, m1, m2, last)}
        fibs[source.router_id].install(
            RouteEntry(
                prefix,
                PerFlowBalancer((m1.router_id, m2.router_id), salt=3),
            )
        )
        for mid in (m1, m2):
            fibs[mid.router_id].install(
                RouteEntry(Prefix(0, 0), SingleNextHop(last.router_id))
            )
        fibs[last.router_id].install(RouteEntry(prefix, delivers=True))
        fwd = Forwarder(topo, fibs, source)
        dst = parse("10.0.0.9")
        middles = {
            resolve_path(fwd, 0, dst, flow_id=f)[1].router_id
            for f in range(50)
        }
        assert middles == {m1.router_id, m2.router_id}
        choice = _template(fwd, dst)[1]
        assert choice[0] == _T_PER_FLOW
        assert [member[2] for member in choice[3]] == [
            m1.address, m2.address,
        ]
