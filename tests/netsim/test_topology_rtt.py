"""Tests for the topology registry and the RTT model."""

import math
from collections import Counter

from repro.netsim.rtt import (
    HOST_LATENCY_MS,
    CellularRadioTracker,
    path_rtt_ms,
)
from repro.netsim.topology import (
    ROUTER_ADDRESS_BASE,
    RouterRole,
    Topology,
)


class TestTopology:
    def test_ids_and_addresses_sequential(self):
        topo = Topology()
        a = topo.new_router(RouterRole.CORE)
        b = topo.new_router(RouterRole.METRO)
        assert (a.router_id, b.router_id) == (0, 1)
        assert b.address == a.address + 1
        assert a.address == ROUTER_ADDRESS_BASE

    def test_lookup_by_id_and_address(self):
        topo = Topology()
        router = topo.new_router(RouterRole.LAST_HOP, label="lh-x")
        assert topo.by_id(router.router_id) is router
        assert topo.by_address(router.address) is router
        assert topo.by_address(0x01020304) is None

    def test_default_label(self):
        topo = Topology()
        router = topo.new_router(RouterRole.BACKBONE)
        assert router.label == "backbone-0"

    def test_count_by_role(self):
        topo = Topology()
        topo.new_router(RouterRole.CORE)
        topo.new_router(RouterRole.CORE)
        topo.new_router(RouterRole.METRO)
        counts = Counter(router.role for router in topo)
        assert counts[RouterRole.CORE] == 2
        assert counts[RouterRole.METRO] == 1

    def test_router_equality_by_id(self):
        topo = Topology()
        a = topo.new_router(RouterRole.CORE)
        b = topo.new_router(RouterRole.CORE)
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    def test_iteration(self):
        topo = Topology()
        routers = [topo.new_router(RouterRole.CORE) for _ in range(3)]
        assert list(topo) == routers
        assert len(topo) == 3


class TestRttModel:
    def _path(self, latencies):
        topo = Topology()
        return [
            topo.new_router(RouterRole.CORE, latency_ms=lat)
            for lat in latencies
        ]

    def test_rtt_includes_round_trip_propagation(self):
        path = self._path([5.0, 10.0])
        rtt = path_rtt_ms(path, seed=1, nonce=1)
        assert rtt >= 2 * 15.0 + HOST_LATENCY_MS

    def test_rtt_deterministic_per_nonce(self):
        path = self._path([5.0])
        assert path_rtt_ms(path, 1, 7) == path_rtt_ms(path, 1, 7)

    def test_rtt_varies_with_nonce(self):
        path = self._path([5.0])
        values = {path_rtt_ms(path, 1, n) for n in range(32)}
        assert len(values) > 16

    def test_longer_path_longer_rtt_on_average(self):
        short = self._path([2.0])
        long = self._path([2.0, 20.0, 20.0])
        mean_short = sum(path_rtt_ms(short, 1, n) for n in range(64)) / 64
        mean_long = sum(path_rtt_ms(long, 1, n) for n in range(64)) / 64
        assert mean_long > mean_short + 50.0

    def test_propagation_folds_left_to_right(self):
        """0.1 + 0.2 + 0.3 folds to 0.6000000000000001, while a
        compensated sum (builtin ``sum`` since Python 3.12, and
        ``math.fsum``) gives 0.6. The RTT is defined by the fold."""
        latencies = [0.1, 0.2, 0.3]
        folded = (0.1 + 0.2) + 0.3
        assert folded != math.fsum(latencies)
        for nonce in range(8):
            assert path_rtt_ms(self._path(latencies), 1, nonce) == (
                path_rtt_ms(self._path([folded]), 1, nonce)
            )

    def test_occasional_spikes(self):
        path = self._path([1.0])
        values = [path_rtt_ms(path, 3, n) for n in range(2000)]
        base = 2.0 + HOST_LATENCY_MS
        spikes = sum(1 for v in values if v > base + 30.0)
        assert 0 < spikes < 200


class TestRadioTracker:
    def test_first_probe_promotes(self):
        tracker = CellularRadioTracker(idle_timeout_seconds=10.0)
        assert tracker.promotion_applies(1, now_seconds=0.0)

    def test_rapid_followup_stays_connected(self):
        tracker = CellularRadioTracker(idle_timeout_seconds=10.0)
        tracker.promotion_applies(1, 0.0)
        assert not tracker.promotion_applies(1, 1.0)

    def test_idle_timeout_repromotes(self):
        tracker = CellularRadioTracker(idle_timeout_seconds=10.0)
        tracker.promotion_applies(1, 0.0)
        assert tracker.promotion_applies(1, 30.0)

    def test_addresses_independent(self):
        tracker = CellularRadioTracker()
        tracker.promotion_applies(1, 0.0)
        assert tracker.promotion_applies(2, 0.5)

    def test_reset(self):
        tracker = CellularRadioTracker()
        tracker.promotion_applies(1, 0.0)
        tracker.reset()
        assert tracker.promotion_applies(1, 0.5)
