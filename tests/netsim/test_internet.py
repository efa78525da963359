"""Tests for the simulated Internet, probed through the reference probe
path (``tests/oracle.py``) and the engine's ping."""

import pytest

from repro.core.pipeline import ping
from repro.net import Prefix
from repro.probing import Prober
from tests.oracle import ReplyKind, resolve_path, send_probe


def _some_active_address(internet):
    for slash24 in internet.universe_slash24s:
        active = internet.active_addresses_in_slash24(slash24)
        if active:
            return active[0]
    pytest.fail("no active address in scenario")


class TestEchoProbes:
    def test_active_host_replies(self, internet):
        addr = _some_active_address(internet)
        reply = None
        for attempt in range(4):
            reply = send_probe(internet, addr, 64, flow_id=attempt)
            if reply:
                break
        assert reply is not None
        assert reply.kind is ReplyKind.ECHO_REPLY
        assert reply.source == addr
        assert reply.rtt_ms > 0

    def test_unallocated_address_is_silent(self, internet):
        assert send_probe(internet, 0xC6000001, 64) is None  # 198.0.0.1

    def test_zero_ttl_is_silent(self, internet):
        addr = _some_active_address(internet)
        assert send_probe(internet, addr, 0) is None

    def test_probe_advances_clock_and_counter(self, internet):
        addr = _some_active_address(internet)
        before = internet.clock_seconds
        send_probe(internet, addr, 64)
        assert internet.clock_seconds > before
        assert internet.probe_count == 1

    def test_echo_reply_ttl_below_default(self, internet):
        addr = _some_active_address(internet)
        reply = None
        for attempt in range(4):
            reply = send_probe(internet, addr, 64, flow_id=attempt)
            if reply:
                break
        assert reply.ttl < 255


class TestTracerouteProbes:
    def test_low_ttl_reaches_routers(self, internet):
        addr = _some_active_address(internet)
        reply = None
        for attempt in range(5):
            reply = send_probe(internet, addr, 1, flow_id=attempt)
            if reply:
                break
        assert reply is not None
        assert reply.kind is ReplyKind.TTL_EXCEEDED
        router = internet.topology.by_address(reply.source)
        assert router is not None

    def test_walk_reaches_destination(self, internet):
        addr = _some_active_address(internet)
        for ttl in range(1, 24):
            reply = send_probe(internet, addr, ttl)
            if reply is not None and reply.is_echo:
                assert ttl > 3  # several infrastructure hops exist
                return
        pytest.fail("never reached the destination")

    def test_paths_deterministic_per_flow(self, internet):
        addr = _some_active_address(internet)
        path_a = resolve_path(
            internet.forwarder, internet.vantage_address, addr, 5
        )
        path_b = resolve_path(
            internet.forwarder, internet.vantage_address, addr, 5
        )
        assert path_a == path_b


class TestHostOracles:
    def test_is_host_up_matches_vectorised(self, internet):
        slash24 = internet.universe_slash24s[0]
        active = set(internet.active_addresses_in_slash24(slash24, epoch=0))
        for offset in range(0, 256, 17):
            addr = slash24.network + offset
            assert internet.is_host_up(addr, epoch=0) == (addr in active)

    def test_snapshot_epoch_differs_from_probe_epoch(self, internet):
        differing = 0
        for slash24 in internet.universe_slash24s[:40]:
            snap = set(internet.active_addresses_in_slash24(slash24, epoch=-1))
            now = set(internet.active_addresses_in_slash24(slash24, epoch=0))
            if snap != now:
                differing += 1
        assert differing > 0


class TestNaming:
    def test_host_rdns(self, internet):
        addr = _some_active_address(internet)
        name = internet.rdns_lookup(addr)
        # tiny scenario's schemes have high but not full coverage; try a
        # few addresses if needed.
        if name is None:
            for slash24 in internet.universe_slash24s[:5]:
                for candidate in internet.active_addresses_in_slash24(slash24):
                    name = internet.rdns_lookup(candidate)
                    if name:
                        break
                if name:
                    break
        assert name
        assert "." in name

    def test_router_rdns(self, internet):
        router = internet.topology.by_id(0)
        name = internet.rdns_lookup(router.address)
        assert name is not None
        assert "transit.example.net" in name


class TestCellular:
    def test_cellular_first_probe_slower(self, internet):
        cellular_pod = next(
            pod for pod in internet.pods if pod.cellular and pod.allocations
        )
        prefix = cellular_pod.allocations[0].prefix
        slash24 = Prefix.of(prefix.network, 24)
        active = internet.active_addresses_in_slash24(slash24)
        assert active
        for addr in active[:10]:
            internet.advance_clock(30.0)
            first, second = ping(Prober(internet), addr, count=2).rtts_ms
            if first is None or second is None:
                continue
            assert first > second + 100.0
            return
        pytest.fail("no responsive cellular host found")


class TestStats:
    def test_stats_keys(self, internet):
        stats = internet.stats()
        for key in ("probe_count", "routers", "pods", "slash24s"):
            assert key in stats
